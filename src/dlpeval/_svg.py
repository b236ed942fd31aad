"""Minimal deterministic SVG builder.

Emits plain shape elements with fixed attribute order and fixed number
formatting, no generated ids and no timestamps, so identical inputs render
byte-identical documents. One serializer, ``_tag``, writes every element.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import _compact as fmt
from .core import _format_rows


def escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` replaced by entity references, as
    ``xml.sax.saxutils.escape`` does without importing its XML stack."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _tag(tag: str, attrs: dict, content: str | None = None) -> str:
    """One ``tag`` element with ``attrs`` in the order given: a string as
    written, a number through ``fmt``, a None value left out. Without
    ``content`` the element closes itself; else it holds ``content``
    escaped."""
    text = "".join(f' {name}="{value if isinstance(value, str) else fmt(value)}"'
                   for name, value in attrs.items() if value is not None)
    return f"<{tag}{text}/>" if content is None else f"<{tag}{text}>{escape(content)}</{tag}>"


_SEPARATOR = "\n  "  # what write puts between two parts


class SvgDocument:
    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self._parts: list[str] = []

    def line(self, x1, y1, x2, y2, stroke="#000000", width=1.0, dash: str | None = None):
        self._parts.append(_tag("line", {"x1": x1, "y1": y1, "x2": x2, "y2": y2, "stroke": stroke,
                                         "stroke-width": width, "stroke-dasharray": dash or None}))

    def circles(self, cx, cy, r, fill="#000000", opacity: float | None = None):
        """One circle per point of the ``cx`` and ``cy`` columns, a part per
        chunk of rows that the text kernel renders; ``fill`` is one color, a
        column of colors or a ``(codes, colors)`` column."""
        cx, cy = np.asarray(cx, dtype=np.float64), np.asarray(cy, dtype=np.float64)
        columns = [cx, cy]
        if isinstance(fill, str):  # one color is literal text of the row format
            fill = fill.replace("{", "{{").replace("}", "}}")
        else:
            columns.append(fill)
            fill = "{}"
        row = _tag("circle", {"cx": "{:compact}", "cy": "{:compact}", "r": r, "fill": fill,
                              "fill-opacity": opacity}) + _SEPARATOR
        self._parts.extend(text[:-len(_SEPARATOR)] for text in _format_rows(row, columns))

    def rect(self, x, y, w, h, fill="none", stroke: str | None = None, stroke_width=1.0):
        self._parts.append(_tag("rect", {"x": x, "y": y, "width": w, "height": h, "fill": fill,
                                         "stroke": stroke or None,
                                         "stroke-width": stroke_width if stroke else None}))

    def polyline(self, points, stroke="#000000", width=1.5):
        if len(points) >= 2:
            self._parts.append(_tag("polyline", {
                "points": " ".join(f"{fmt(x)},{fmt(y)}" for x, y in points), "fill": "none",
                "stroke": stroke, "stroke-width": width}))

    def text(self, x, y, content, size=12.0, anchor="start", fill="#000000",
             rotate: float | None = None):
        transform = None if rotate is None else f"rotate({fmt(rotate)} {fmt(x)} {fmt(y)})"
        self._parts.append(_tag("text", {"x": x, "y": y, "font-family": "sans-serif",
                                         "font-size": size, "text-anchor": anchor, "fill": fill,
                                         "transform": transform}, content))

    def write(self, path) -> Path:
        """Write the document to ``path`` part by part, each after an indent
        on a line of its own, and return ``path`` as a ``Path``."""
        path = Path(path)
        root = _tag("svg", {"xmlns": "http://www.w3.org/2000/svg", "width": self.width,
                            "height": self.height,
                            "viewBox": f"0 0 {fmt(self.width)} {fmt(self.height)}"})
        with open(path, "w", encoding="utf-8", newline="") as fh:
            # the root element, its tag left open for the parts
            fh.write(f'<?xml version="1.0" encoding="UTF-8"?>\n{root[:-2]}>\n')
            for i, part in enumerate(self._parts):
                fh.write(_SEPARATOR if i else _SEPARATOR[1:])
                fh.write(part)
            fh.write("\n</svg>\n")
        return path
