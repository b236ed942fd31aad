"""Diagram emission: birth-death scatter plots, surprise-sweep curves and
rank-over-time plots, as deterministic standalone SVG plus raw-data CSV.

Category colors follow the blue / orange / green convention for historical,
overlap and inductive keys. Scatter panels with more than ``max_points``
keys are downsampled for rendering by a seeded, category-stratified draw;
the sidecar CSV always carries the full data.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._svg import SvgDocument
from .core import History, _write_rows
from .errors import DlpEvalError
from .metrics import MARSeries
from .partition import (CATEGORY_BY_INITIAL, LifetimeTable, SweepPoint, TemporalCategory,
                        category_codes)
from .scorelog import POSITIVE_ROLE

PALETTE = {
    TemporalCategory.HISTORICAL: "#007AA6",
    TemporalCategory.OVERLAP: "#FF9933",
    TemporalCategory.INDUCTIVE: "#008000",
}
_LINE_CYCLE = ("#007AA6", "#FF9933", "#008000", "#C02942", "#7851A9", "#555555")
_GUIDE = "#444444"
_CATEGORY_NAMES = tuple(c.value for c in TemporalCategory)  # by category code

_PANEL_W = 460.0
_PANEL_H = 420.0
_MARGIN_L = 70.0
_MARGIN_R = 20.0
_MARGIN_T = 46.0
_MARGIN_B = 58.0


class _Frame:
    """Maps data coordinates into one panel's pixel rectangle."""

    def __init__(self, doc: SvgDocument, x_off: float, xlim, ylim):
        self.doc = doc
        self.x0 = x_off + _MARGIN_L
        self.x1 = x_off + _PANEL_W - _MARGIN_R
        self.y0 = _MARGIN_T
        self.y1 = _PANEL_H - _MARGIN_B
        self.xlim = _pad_range(*xlim)
        self.ylim = _pad_range(*ylim)

    def px(self, x: float) -> float:
        lo, hi = self.xlim
        return self.x0 + (x - lo) / (hi - lo) * (self.x1 - self.x0)

    def py(self, y: float) -> float:
        lo, hi = self.ylim
        return self.y1 - (y - lo) / (hi - lo) * (self.y1 - self.y0)

    def draw_axes(self, xlabel: str, ylabel: str, title: str = ""):
        doc = self.doc
        doc.rect(self.x0, self.y0, self.x1 - self.x0, self.y1 - self.y0,
                 fill="none", stroke="#000000")
        for v in np.linspace(*self.xlim, 5):
            x = self.px(v)
            doc.line(x, self.y1, x, self.y1 + 4)
            doc.text(x, self.y1 + 16, _tick_label(v), size=10, anchor="middle")
        for v in np.linspace(*self.ylim, 5):
            y = self.py(v)
            doc.line(self.x0 - 4, y, self.x0, y)
            doc.text(self.x0 - 6, y + 3, _tick_label(v), size=10, anchor="end")
        doc.text((self.x0 + self.x1) / 2, self.y1 + 34, xlabel, anchor="middle")
        doc.text(self.x0 - 44, (self.y0 + self.y1) / 2, ylabel,
                 anchor="middle", rotate=-90.0)
        if title:
            doc.text((self.x0 + self.x1) / 2, self.y0 - 10, title,
                     size=14, anchor="middle")


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        lo, hi = lo - 0.5, lo + 0.5
    pad = (hi - lo) * 0.04
    return lo - pad, hi + pad


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def _role_color(role: str, i: int) -> str:
    if role == POSITIVE_ROLE:
        return "#000000"
    category = CATEGORY_BY_INITIAL.get(role[:1])
    return _LINE_CYCLE[i % len(_LINE_CYCLE)] if category is None else PALETTE[category]


def _stratified_sample(codes: np.ndarray, max_points: int, seed: int) -> np.ndarray:
    """Indexes to render, proportional per category code, deterministic for
    a seed. Codes are drawn in the sorted order of their category names."""
    n = len(codes)
    if n <= max_points:
        return np.arange(n)
    rng = np.random.default_rng(seed % 2**64)
    keep: list[np.ndarray] = []
    for code in np.argsort(_CATEGORY_NAMES):
        members = np.flatnonzero(codes == code)
        quota = max(1, int(round(max_points * len(members) / n)))
        if quota >= len(members):
            keep.append(members)
        else:
            keep.append(np.sort(rng.choice(members, size=quota, replace=False)))
    return np.sort(np.concatenate(keep))


def bd_diagram(
    lifetimes: Sequence[tuple[str, LifetimeTable]],
    t_split: float,
    svg_path: str | Path,
    csv_path: str | Path,
    max_points: int = 100_000,
    seed: int = 0,
) -> tuple[Path, Path]:
    """Scatter of death time (x) against birth time (y) per key.

    ``lifetimes`` lists named (title, table) panels, drawn side by side
    (e.g. source-role and destination-role nodes of a bipartite stream).
    Split guides are drawn at ``t_split`` on both axes; the CSV lists every
    key as ``key,birth,death,category``, with edge keys written ``a|b`` and,
    when there are several panels, prefixed by the panel's title.
    """
    panels = list(lifetimes)
    if not panels or all(len(m) == 0 for _, m in panels):
        raise DlpEvalError("birth-death diagram needs at least one lifetime")
    for panel_title, table in panels:
        if len(table) == 0:
            raise DlpEvalError(f"panel {panel_title!r} has no lifetimes")

    doc = SvgDocument(_PANEL_W * len(panels), _PANEL_H)
    colors = tuple(PALETTE[cat] for cat in TemporalCategory)
    svg_path, csv_path = Path(svg_path), Path(csv_path)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("key,birth,death,category\n")
        for p, (panel_title, table) in enumerate(panels):
            births, deaths = table.births, table.deaths
            codes = category_codes(births, deaths, t_split)

            lo = float(min(births.min(), deaths.min()))
            hi = float(max(births.max(), deaths.max(), t_split))
            frame = _Frame(doc, p * _PANEL_W, (lo, hi), (lo, hi))
            frame.draw_axes("death time", "birth time", panel_title or "birth-death")
            # diagonal: every key satisfies death >= birth
            doc.line(frame.px(lo), frame.py(lo), frame.px(hi), frame.py(hi),
                     stroke="#BBBBBB", width=0.8)
            # split guides
            doc.line(frame.px(t_split), frame.y0, frame.px(t_split), frame.y1,
                     stroke=_GUIDE, dash="5,3")
            doc.line(frame.x0, frame.py(t_split), frame.x1, frame.py(t_split),
                     stroke=_GUIDE, dash="5,3")

            shown = _stratified_sample(codes, max_points, seed)
            doc.circles(frame.px(deaths[shown]), frame.py(births[shown]), 2.2,
                        fill=(codes[shown], colors), opacity=0.6)

            # legend with per-category counts
            ly = frame.y0 + 6
            for cat, n_cat in zip(TemporalCategory,
                                  np.bincount(codes, minlength=3).tolist()):
                doc.rect(frame.x0 + 8, ly, 10, 10, fill=PALETTE[cat])
                doc.text(frame.x0 + 22, ly + 9,
                         f"{cat.value.capitalize()} (n={n_cat})", size=11)
                ly += 16

            # the prefix is literal text in the row format: double its braces
            prefix = (panel_title.replace("{", "{{").replace("}", "}}") + ":"
                      if len(panels) > 1 else "")
            if table.num_nodes is None:
                keys, key_format = [table.ids], "{}"
            else:
                keys, key_format = History.edge_endpoints(table.ids, table.num_nodes), "{}|{}"
            _write_rows(fh, prefix + key_format + ",{!r},{!r},{}\n",
                        [*keys, births, deaths, (codes, _CATEGORY_NAMES)])
    doc.write(svg_path)
    return svg_path, csv_path


def surprise_curve(
    sweeps: Mapping[str, Sequence[SweepPoint]] | Sequence[SweepPoint],
    svg_path: str | Path,
    mark_ratio: float | None = 0.15,
) -> Path:
    """Node surprise (x) against edge surprise (y), one path per dataset.

    The point at ``mark_ratio`` (when present in a sweep) is marked with a
    star so the conventional split ratio stands out.
    """
    if not isinstance(sweeps, Mapping):
        sweeps = {"": list(sweeps)}
    for name, points in sweeps.items():
        if len(points) < 2:
            raise DlpEvalError(
                f"sweep {name!r} has {len(points)} point(s); need at least 2"
            )

    doc = SvgDocument(_PANEL_W, _PANEL_H)
    frame = _Frame(doc, 0.0, (0.0, 1.0), (0.0, 1.0))
    frame.draw_axes("node surprise", "edge surprise", "surprise sweep")
    for i, (name, points) in enumerate(sweeps.items()):
        color = _LINE_CYCLE[i % len(_LINE_CYCLE)]
        coords = [
            (frame.px(p.node_surprise), frame.py(p.edge_surprise))
            for p in points
            if p.node_surprise is not None and p.edge_surprise is not None
        ]
        doc.polyline(coords, stroke=color)
        doc.circles(*np.reshape(coords, (-1, 2)).T, 2.5, fill=color)
        if mark_ratio is not None:
            for p in points:
                if p.node_surprise is None or abs(p.ratio - mark_ratio) > 1e-9:
                    continue
                doc.text(frame.px(p.node_surprise), frame.py(p.edge_surprise) + 5,
                         "*", size=20, anchor="middle", fill=color)
        if name:
            doc.rect(frame.x0 + 8, frame.y0 + 6 + 16 * i, 10, 10, fill=color)
            doc.text(frame.x0 + 22, frame.y0 + 15 + 16 * i, name, size=11)
    svg_path = Path(svg_path)
    doc.write(svg_path)
    return svg_path


def mar_plot(series: MARSeries, t_split: float | None, svg_path: str | Path) -> Path:
    """Mean-average-rank lines over time, one per role, gaps at empty bins."""
    finite = np.isfinite(series.mar)
    if not finite.any():
        raise DlpEvalError("every bin of the rank series is empty")

    centers = (series.bin_edges[:-1] + series.bin_edges[1:]) / 2.0
    xlim = (float(series.bin_edges[0]), float(series.bin_edges[-1]))
    vals = series.mar[finite]
    ylim = (min(1.0, float(vals.min())), float(vals.max()))

    doc = SvgDocument(_PANEL_W + 120, _PANEL_H)
    frame = _Frame(doc, 0.0, xlim, ylim)
    frame.draw_axes("time", "mean rank", "rank over time")
    if t_split is not None and xlim[0] <= t_split <= xlim[1]:
        doc.line(frame.px(t_split), frame.y0, frame.px(t_split), frame.y1,
                 stroke=_GUIDE, dash="5,3")
        doc.text(frame.px(t_split) + 3, frame.y0 + 12, "split", size=10, fill=_GUIDE)

    legend_x = frame.x1 + 14
    xs = frame.px(centers)
    for r, role in enumerate(series.roles):
        color = _role_color(role, r)
        ys = frame.py(series.mar[r])
        # each run of non-empty bins draws its markers, then its line
        for run in np.split(np.arange(series.bins), np.flatnonzero(~finite[r])):
            run = run[finite[r, run]]
            doc.circles(xs[run], ys[run], 2.0, fill=color)
            doc.polyline(list(zip(xs[run].tolist(), ys[run].tolist())), stroke=color)
        doc.rect(legend_x, frame.y0 + 6 + 16 * r, 10, 10, fill=color)
        doc.text(legend_x + 14, frame.y0 + 15 + 16 * r, role, size=11)

    svg_path = Path(svg_path)
    doc.write(svg_path)
    return svg_path
