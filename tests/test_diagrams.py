import csv
import hashlib
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SCENARIO_T_SPLIT,
    brute_force_lifetimes,
    build_history,
    category_of,
    make_log,
    random_history,
    scenario_history,
    svg_number,
    worked_example_log,
)
from dlpeval import GraphKind, KeyKind, LifetimeTable, lifetimes, mar_time_series, surprise_sweep
from dlpeval._svg import SvgDocument, escape
from dlpeval.diagrams import PALETTE, _role_color, bd_diagram, mar_plot, surprise_curve
from dlpeval.errors import DlpEvalError
from dlpeval.partition import SweepPoint, TemporalCategory


def _parse(path):
    return ET.parse(path)  # strict XML parser


@given(st.text(alphabet=st.sampled_from("&<>;amp gtl\"'\n") | st.characters()))
def test_escape_matches_saxutils(text):
    assert escape(text) == sax_escape(text)


def _circle(cx: str, cy: str, fill: str) -> str:
    return f'<circle cx="{cx}" cy="{cy}" r="2" fill="{fill}"/>'


class TestCircles:
    @pytest.mark.parametrize("x", [0.125, 0.005, 1.005, 2.675, -0.004, -0.0, 1e14,
                                   float("nan"), float("inf"), 0.375, -1.5, 12.0, 2.0 ** 60])
    def test_coordinates_print_as_fmt(self, x):
        # ties of .2f, values that 100 * x rounds across a tie, negative
        # zeros and values too large for the integer path
        doc = SvgDocument(10, 10)
        doc.circles([x, 1.25], [-x, x], 2.0, fill=["#a", "#b"])
        assert doc._parts == ["\n  ".join([_circle(svg_number(x), svg_number(-x), "#a"),
                                          _circle("1.25", svg_number(x), "#b")])]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False) | st.floats(-1e4, 1e4)
                    | st.builds(lambda m: m / 1000, st.integers(-10 ** 7, 10 ** 7)),
                    min_size=1, max_size=20))
    def test_random_coordinates_print_as_fmt(self, xs):
        doc = SvgDocument(10, 10)
        doc.circles(xs, xs[::-1], 2.0, fill="{#c}")
        assert doc._parts == ["\n  ".join(_circle(svg_number(a), svg_number(b), "{#c}")
                                          for a, b in zip(xs, xs[::-1]))]

    def test_column_of_non_finite_values(self):
        doc = SvgDocument(10, 10)
        doc.circles([float("nan"), float("inf")], [float("-inf"), 1e300], 2.0, fill="#d")
        assert doc._parts == ["\n  ".join([_circle("nan", "-inf", "#d"),
                                          _circle("inf", svg_number(1e300), "#d")])]

    def test_empty_column_adds_no_part(self):
        doc = SvgDocument(10, 10)
        doc.circles([], [], 2.0)
        assert doc._parts == []


class TestElements:
    """The exact text of each element, including the attribute combinations
    that no diagram draws."""

    @staticmethod
    def _parts(draw):
        doc = SvgDocument(10, 10)
        draw(doc)
        return doc._parts

    @pytest.mark.parametrize("dash,extra", [
        (None, ""), ("", ""), ("5,3", ' stroke-dasharray="5,3"'),
    ])
    def test_line(self, dash, extra):
        assert self._parts(lambda d: d.line(0.5, -1, 2.005, 1e3, dash=dash)) == [
            f'<line x1="0.5" y1="-1" x2="2" y2="1000" stroke="#000000" '
            f'stroke-width="1"{extra}/>']

    @pytest.mark.parametrize("stroke,extra", [
        (None, ""), ("", ""), ("#123456", ' stroke="#123456" stroke-width="0.25"'),
    ])
    def test_rect(self, stroke, extra):
        assert self._parts(lambda d: d.rect(1, 2, 3.5, 4.125, fill="#abcdef",
                                            stroke=stroke, stroke_width=0.25)) == [
            f'<rect x="1" y="2" width="3.5" height="4.12" fill="#abcdef"{extra}/>']

    def test_text_with_rotate(self):
        assert self._parts(lambda d: d.text(10, 20.5, "mean rank", anchor="middle",
                                            rotate=-90.0)) == [
            '<text x="10" y="20.5" font-family="sans-serif" font-size="12" '
            'text-anchor="middle" fill="#000000" transform="rotate(-90 10 20.5)">'
            'mean rank</text>']

    def test_text_escapes_its_content(self):
        assert self._parts(lambda d: d.text(0, 0, "a & <b>", size=9, fill="#111111")) == [
            '<text x="0" y="0" font-family="sans-serif" font-size="9" '
            'text-anchor="start" fill="#111111">a &amp; &lt;b&gt;</text>']

    def test_polyline_of_one_point_adds_no_part(self):
        assert self._parts(lambda d: d.polyline([(1.0, 2.0)])) == []

    def test_polyline(self):
        assert self._parts(lambda d: d.polyline([(1, 2.5), (-0.001, 3.333)],
                                                stroke="#ff0000")) == [
            '<polyline points="1,2.5 0,3.33" fill="none" stroke="#ff0000" '
            'stroke-width="1.5"/>']

    def test_circles_with_zero_opacity(self):
        assert self._parts(lambda d: d.circles([1.5], [2], 2.2, fill="#00ff00",
                                               opacity=0.0)) == [
            '<circle cx="1.5" cy="2" r="2.2" fill="#00ff00" fill-opacity="0"/>']


class TestBdDiagram:
    def test_scenario_counts_and_colors(self, tmp_path):
        h = scenario_history(1)
        svg, csv_ = bd_diagram(
            [("", lifetimes(h, KeyKind.NODE))], SCENARIO_T_SPLIT,
            tmp_path / "bd.svg", tmp_path / "bd.csv",
        )
        text = svg.read_text()
        assert text.count(PALETTE[TemporalCategory.OVERLAP]) >= 4
        assert text.count(PALETTE[TemporalCategory.INDUCTIVE]) >= 1
        rows = csv_.read_text().splitlines()
        assert rows[0] == "key,birth,death,category"
        assert len(rows) == 1 + 5
        cats = [r.split(",")[3] for r in rows[1:]]
        assert cats.count("overlap") == 4
        assert cats.count("inductive") == 1
        _parse(svg)

    def test_inductive_point_sits_above_the_guide(self, tmp_path):
        # the newcomer's birth is after the cutoff: its y pixel must be above
        # (smaller than) the horizontal guide's
        h = scenario_history(1)
        svg, _ = bd_diagram(
            [("", lifetimes(h, KeyKind.NODE))], SCENARIO_T_SPLIT,
            tmp_path / "bd.svg", tmp_path / "bd.csv",
        )
        root = _parse(svg).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        guides = [el for el in root.iter(f"{ns}line")
                  if el.get("stroke-dasharray") and el.get("y1") == el.get("y2")]
        guide_y = float(guides[0].get("y1"))
        green = [el for el in root.iter(f"{ns}circle")
                 if el.get("fill") == PALETTE[TemporalCategory.INDUCTIVE]]
        assert len(green) == 1
        assert float(green[0].get("cy")) < guide_y

    def test_single_event_point_on_diagonal(self, tmp_path):
        life = LifetimeTable([0], [5.0], [5.0])
        svg, csv_ = bd_diagram([("", life)], 6.0, tmp_path / "bd.svg", tmp_path / "bd.csv")
        root = _parse(svg).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        pts = [el for el in root.iter(f"{ns}circle")]
        assert len(pts) == 1
        assert csv_.read_text().splitlines()[1] == "0,5.0,5.0,historical"

    def test_role_facets_render_two_panels(self, tmp_path):
        rng = np.random.default_rng(12)
        h = random_history(rng, n_events=300, n_nodes=20,
                           kind=GraphKind(bipartite=True))
        panels = [
            ("source", lifetimes(h, KeyKind.SOURCE_NODE)),
            ("destination", lifetimes(h, KeyKind.DESTINATION_NODE)),
        ]
        svg, csv_ = bd_diagram(panels, 50.0, tmp_path / "bd.svg", tmp_path / "bd.csv")
        root = _parse(svg).getroot()
        assert float(root.get("width")) == 2 * 460.0
        rows = csv_.read_text().splitlines()[1:]
        assert len(rows) == len(panels[0][1]) + len(panels[1][1])
        assert any(r.startswith("source:") for r in rows)
        assert any(r.startswith("destination:") for r in rows)

    def test_csv_rows_equal_key_count_even_when_downsampled(self, tmp_path):
        rng = np.random.default_rng(3)
        h = random_history(rng, n_events=2000, n_nodes=300)
        life = lifetimes(h, KeyKind.EDGE)
        svg, csv_ = bd_diagram([("", life)], 50.0, tmp_path / "bd.svg",
                               tmp_path / "bd.csv", max_points=100)
        root = _parse(svg).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        rendered = len(list(root.iter(f"{ns}circle")))
        assert rendered <= 110  # proportional quotas can round up slightly
        assert len(csv_.read_text().splitlines()) == 1 + len(life)

    def test_byte_identical_across_runs(self, tmp_path):
        rng = np.random.default_rng(3)
        h = random_history(rng, n_events=2000, n_nodes=300)
        life = lifetimes(h, KeyKind.EDGE)
        outputs = []
        for run in range(2):
            svg, csv_ = bd_diagram(
                [("", life)], 50.0,
                tmp_path / f"bd{run}.svg", tmp_path / f"bd{run}.csv",
                max_points=100, seed=7,
            )
            outputs.append(svg.read_bytes() + csv_.read_bytes())
        assert outputs[0] == outputs[1]

    def test_pinned_digests(self, tmp_path):
        # Golden sha256 of downsampled renders; the stratified draw visits
        # categories in string order, so any reordering changes these bytes.
        def digests(svg, csv_):
            return (hashlib.sha256(svg.read_bytes()).hexdigest(),
                    hashlib.sha256(csv_.read_bytes()).hexdigest())

        h = random_history(np.random.default_rng(3), n_events=2000, n_nodes=300)
        single = bd_diagram([("", lifetimes(h, KeyKind.EDGE))], 50.0,
                            tmp_path / "e.svg", tmp_path / "e.csv",
                            max_points=100, seed=7)
        assert digests(*single) == (
            "774d9b47d0bf6d40f121ab6adaffbc48a6324c042bdbe28dde91796adb43908c",
            "b9a570c978d42b429b058a29d0c370443b9c2e7d5eb9f3b21010cb6633d5165e",
        )
        hb = random_history(np.random.default_rng(12), n_events=600, n_nodes=60,
                            kind=GraphKind(bipartite=True))
        panels = [
            ("source", lifetimes(hb, KeyKind.SOURCE_NODE)),
            ("destination", lifetimes(hb, KeyKind.DESTINATION_NODE)),
        ]
        faceted = bd_diagram(panels, 50.0, tmp_path / "r.svg", tmp_path / "r.csv",
                             max_points=10, seed=7)
        assert digests(*faceted) == (
            "d9bcaaa4693168da3ed757b8974b97d7165e20019a6e36d6a59a1c8f63f8eb79",
            "aaab88ec04d0c1748e64903c68e9f229e58e4a06970e962a86ab450af692f2a1",
        )

    def test_negative_seed_draws_as_its_residue_mod_2_64(self, tmp_path):
        # numpy rejects a negative seed; the draw takes any integer, as
        # sample_negatives does
        h = random_history(np.random.default_rng(3), n_events=2000, n_nodes=300)
        renders = []
        for seed in (-1, 2**64 - 1):
            svg, csv_ = bd_diagram([("", lifetimes(h, KeyKind.EDGE))], 50.0,
                                   tmp_path / f"{seed}.svg", tmp_path / f"{seed}.csv",
                                   max_points=10, seed=seed)
            renders.append(svg.read_bytes() + csv_.read_bytes())
        assert renders[0] == renders[1]

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(DlpEvalError):
            bd_diagram({}, 1.0, tmp_path / "bd.svg", tmp_path / "bd.csv")
        # and one empty panel beside a full one
        panels = [("full", LifetimeTable([0], [1.0], [2.0])), ("empty", LifetimeTable([], [], []))]
        with pytest.raises(DlpEvalError, match="panel 'empty' has no lifetimes"):
            bd_diagram(panels, 1.0, tmp_path / "bd.svg", tmp_path / "bd.csv")
        assert not list(tmp_path.iterdir())


@st.composite
def _small_streams(draw):
    """A directed or undirected stream on 7 nodes and quarter-step
    timestamps, without self-loops."""
    kind = draw(st.sampled_from([GraphKind(), GraphKind(directed=False)]))
    n = draw(st.integers(1, 40))
    events = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6),
                                     st.integers(0, 24)), min_size=n, max_size=n))
    return build_history([(u, (u + d) % 7, t / 4) for u, d, t in events],
                         kind=kind, num_nodes=7)


class TestBdDiagramProperties:
    @settings(max_examples=150, deadline=None)
    @given(h=_small_streams(), kind=st.sampled_from([KeyKind.NODE, KeyKind.EDGE]),
           at=st.integers(0, 25), max_points=st.integers(1, 50))
    def test_csv_rows_are_the_scanned_lifetimes(self, h, kind, at, max_points):
        # the CSV lists every key, however few points the scatter keeps
        t_split = at / 4
        with tempfile.TemporaryDirectory() as tmp:
            _, csv_ = bd_diagram([("", lifetimes(h, kind))], t_split,
                                 Path(tmp) / "bd.svg", Path(tmp) / "bd.csv",
                                 max_points=max_points)
            with open(csv_, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        assert rows[0] == ["key", "birth", "death", "category"]
        got = {}
        for key, birth, death, category in rows[1:]:
            key = tuple(map(int, key.split("|"))) if kind is KeyKind.EDGE else int(key)
            assert key not in got
            got[key] = (float(birth), float(death), category)
        want = brute_force_lifetimes(h, edges=kind is KeyKind.EDGE)
        assert got == {key: (*life, category_of(life, t_split).value)
                       for key, life in want.items()}


class TestSurpriseCurve:
    def test_vertex_count(self, tmp_path):
        points = [SweepPoint(r, r / 2, r) for r in (0.1, 0.2, 0.3, 0.4, 0.5)]
        svg = surprise_curve({"synthetic": points}, tmp_path / "curve.svg",
                             mark_ratio=0.3)
        root = _parse(svg).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        assert len(list(root.iter(f"{ns}circle"))) == 5
        stars = [el for el in root.iter(f"{ns}text") if el.text == "*"]
        assert len(stars) == 1

    def test_monotone_sweep_renders_ordered_path(self, tmp_path):
        points = [SweepPoint(r, r, r) for r in (0.1, 0.3, 0.5)]
        svg = surprise_curve(points, tmp_path / "curve.svg", mark_ratio=None)
        root = _parse(svg).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        polys = list(root.iter(f"{ns}polyline"))
        assert len(polys) == 1
        xs = [float(p.split(",")[0]) for p in polys[0].get("points").split()]
        assert xs == sorted(xs)

    def test_needs_two_points(self, tmp_path):
        with pytest.raises(DlpEvalError):
            surprise_curve([SweepPoint(0.1, 0.5, 0.5)], tmp_path / "curve.svg")

    def test_byte_identical_across_runs(self, tmp_path):
        points = [SweepPoint(r, r / 3, r / 2) for r in (0.1, 0.2, 0.3)]
        a = surprise_curve({"d": points}, tmp_path / "a.svg").read_bytes()
        b = surprise_curve({"d": points}, tmp_path / "b.svg").read_bytes()
        assert a == b

    def test_real_sweep_smoke(self, tmp_path):
        h = scenario_history(2)
        points = surprise_sweep(h, [0.2, 0.3, 0.4])
        svg = surprise_curve({"scenario": points}, tmp_path / "curve.svg")
        _parse(svg)


class TestMarPlot:
    def test_worked_example_markers(self, tmp_path):
        series = mar_time_series(worked_example_log(), bins=1)
        svg = mar_plot(series, t_split=None, svg_path=tmp_path / "mar.svg")
        root = _parse(svg).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        # one bin -> one marker per role, at distinct heights for 1.75 / 2 / 2.25
        markers = [el for el in root.iter(f"{ns}circle")]
        assert len(markers) == 3
        heights = sorted(float(el.get("cy")) for el in markers)
        assert len(set(heights)) == 3

    def test_gap_at_missing_middle_bin(self, tmp_path):
        groups = [(0.9, {"NS": [0.1]}), (0.9, {"NS": [0.1]}), (0.9, {"NS": [0.1]})]
        log = make_log(groups, ("NS",), t_of=lambda o: [0.0, 1.0, 4.0][o])
        series = mar_time_series(log, bins=5)
        svg = mar_plot(series, t_split=2.0, svg_path=tmp_path / "mar.svg")
        root = _parse(svg).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        # the run of finite bins is interrupted: positive role draws two
        # segments at most one of which can be a multi-point polyline
        polys = [el for el in root.iter(f"{ns}polyline")]
        for p in polys:
            assert len(p.get("points").split()) <= 2

    def test_adjacent_empty_bins_render_as_pinned(self, tmp_path):
        # runs of empty bins hand circles empty columns, which draw nothing
        groups = [(0.9, {"NS": [0.1], "HE": [0.95]})] * 6
        log = make_log(groups, ("NS", "HE"),
                       t_of=lambda o: [0.0, 1.0, 2.0, 7.0, 9.0, 10.0][o])
        series = mar_time_series(log, bins=10)
        assert series.counts[0].tolist() == [1, 1, 1, 0, 0, 0, 0, 1, 0, 2]
        svg = mar_plot(series, t_split=5.0, svg_path=tmp_path / "mar.svg")
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == \
            "7b74085598dfa71d4198b6d4f46a20773944d29746a352056454798cf90bbd2b"

    @pytest.mark.parametrize("role, i, color", [
        ("positive", 0, "#000000"),
        ("HX", 1, "#007AA6"),  # the first letter names the category
        ("OD", 2, "#FF9933"),
        ("ID", 0, "#008000"),
        ("RND", 3, "#C02942"),  # no category: the line cycle by role index
        ("model-b", 10, "#7851A9"),
    ])
    def test_role_colors(self, role, i, color):
        assert _role_color(role, i) == color

    def test_all_missing_is_an_error(self, tmp_path):
        series = mar_time_series(worked_example_log(), bins=1)
        empty = type(series)(
            bin_edges=series.bin_edges,
            roles=series.roles,
            mar=np.full_like(series.mar, np.nan),
            counts=np.zeros_like(series.counts),
        )
        with pytest.raises(DlpEvalError):
            mar_plot(empty, None, tmp_path / "mar.svg")

    def test_split_guide_drawn(self, tmp_path):
        groups = [(0.9, {"NS": [0.1]})] * 10
        log = make_log(groups, ("NS",), t_of=lambda o: float(o))
        series = mar_time_series(log, bins=5)
        svg = mar_plot(series, t_split=4.5, svg_path=tmp_path / "mar.svg")
        assert "split" in svg.read_text()
