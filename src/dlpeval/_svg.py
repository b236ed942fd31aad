"""Minimal deterministic SVG builder.

Emits plain shape elements with fixed attribute order and fixed number
formatting, no generated ids and no timestamps, so identical inputs render
byte-identical documents.
"""

from __future__ import annotations

import numpy as np

from .core import _compact as fmt
from .core import _format_rows


def escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` replaced by entity references, as
    ``xml.sax.saxutils.escape`` does without importing its XML stack."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


_SEPARATOR = "\n  "  # what write puts between two parts


class SvgDocument:
    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self._parts: list[str] = []

    def line(self, x1, y1, x2, y2, stroke="#000000", width=1.0, dash: str | None = None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._parts.append(
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{fmt(width)}"{dash_attr}/>'
        )

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
        opacity_attr = f' fill-opacity="{fmt(opacity)}"' if opacity is not None else ""
        row = (f'<circle cx="{{:compact}}" cy="{{:compact}}" r="{fmt(r)}" '
               f'fill="{fill}"{opacity_attr}/>{_SEPARATOR}')
        self._parts.extend(text[:-len(_SEPARATOR)] for text in _format_rows(row, columns))

    def rect(self, x, y, w, h, fill="none", stroke: str | None = None, stroke_width=1.0):
        stroke_attr = (
            f' stroke="{stroke}" stroke-width="{fmt(stroke_width)}"' if stroke else ""
        )
        self._parts.append(
            f'<rect x="{fmt(x)}" y="{fmt(y)}" width="{fmt(w)}" height="{fmt(h)}" '
            f'fill="{fill}"{stroke_attr}/>'
        )

    def polyline(self, points, stroke="#000000", width=1.5):
        if len(points) < 2:
            return
        pts = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in points)
        self._parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{fmt(width)}"/>'
        )

    def text(self, x, y, content, size=12.0, anchor="start", fill="#000000",
             rotate: float | None = None):
        transform = (
            f' transform="rotate({fmt(rotate)} {fmt(x)} {fmt(y)})"'
            if rotate is not None else ""
        )
        self._parts.append(
            f'<text x="{fmt(x)}" y="{fmt(y)}" font-family="sans-serif" '
            f'font-size="{fmt(size)}" text-anchor="{anchor}" '
            f'fill="{fill}"{transform}>{escape(content)}</text>'
        )

    def write(self, path) -> None:
        """Write the document to ``path`` part by part, each after an indent
        on a line of its own."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write('<?xml version="1.0" encoding="UTF-8"?>\n'
                     f'<svg xmlns="http://www.w3.org/2000/svg" '
                     f'width="{fmt(self.width)}" height="{fmt(self.height)}" '
                     f'viewBox="0 0 {fmt(self.width)} {fmt(self.height)}">\n')
            for i, part in enumerate(self._parts):
                fh.write(_SEPARATOR if i else _SEPARATOR[1:])
                fh.write(part)
            fh.write("\n</svg>\n")
