"""Event-stream data model: ingestion, canonicalization and time-indexed access.

An interaction stream is stored columnar (numpy arrays for sources,
destinations and timestamps) so that million-event histories stay cheap to
sort, slice and scan. Node labels from the input file are remapped once at
ingestion to dense integer ids; every downstream structure indexes arrays by
those ids.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import os
import re
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import IngestError

MINIMAL_HEADER = ("source", "destination", "timestamp")


@dataclass(frozen=True)
class GraphKind:
    """Directedness, bipartiteness and the self-loop rule of a stream.

    Bipartite streams use directed semantics: sources and destinations live
    in disjoint id universes, so an edge is always an ordered pair.
    """

    directed: bool = True
    bipartite: bool = False
    allow_self_loops: bool = False

    def __post_init__(self):
        if self.bipartite and not self.directed:
            raise ValueError("bipartite streams require directed semantics")


class History:
    """Chronologically ordered, immutable stream of interaction events.

    Events are sorted non-decreasing by timestamp; ties keep input order.
    ``edges()`` is the one cached index of the events' canonical edges."""

    __slots__ = (
        "src",
        "dst",
        "t",
        "kind",
        "num_nodes",
        "num_sources",
        "labels",
        "_edges",
        "_occurrences",
    )

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        t: np.ndarray,
        kind: GraphKind,
        num_nodes: int,
        num_sources: int | None = None,
        labels: tuple[str, ...] | None = None,
    ):
        # Raw constructor: arrays must already be chronologically sorted.
        self.src = src
        self.dst = dst
        self.t = t
        self.kind = kind
        self.num_nodes = num_nodes
        self.num_sources = num_sources
        self.labels = labels
        self._edges: tuple[np.ndarray, np.ndarray] | None = None
        self._occurrences: np.ndarray | None = None

    @classmethod
    def from_arrays(
        cls,
        src: Iterable[int],
        dst: Iterable[int],
        t: Iterable[float],
        kind: GraphKind = GraphKind(),
        num_nodes: int | None = None,
        num_sources: int | None = None,
        labels: tuple[str, ...] | None = None,
    ) -> "History":
        """Build a History from parallel event columns.

        Events are stable-sorted by timestamp. Ids must be dense
        non-negative ints; ``num_nodes`` defaults to max id + 1. Bipartite
        kinds need ``num_sources``: source ids below it, destinations not.
        """
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        t = np.ascontiguousarray(t, dtype=np.float64)
        if not (len(src) == len(dst) == len(t)):
            raise ValueError("source, destination and timestamp columns differ in length")
        if len(t) and not np.all(np.isfinite(t)):
            raise ValueError("timestamps must be finite")
        if len(t) and t.min() < 0:
            raise ValueError("timestamps must be non-negative")
        if num_nodes is None:
            num_nodes = int(max(src.max(), dst.max())) + 1 if len(src) else 0
        if len(src) and (src.min() < 0 or dst.min() < 0):
            raise ValueError("node ids must be non-negative")
        if len(src) and max(int(src.max()), int(dst.max())) >= num_nodes:
            raise ValueError("node id out of range")
        if not kind.allow_self_loops and len(src) and np.any(src == dst):
            raise ValueError("self-loop present but self-loops are disabled")
        if kind.bipartite and (num_sources is None or len(src) and (
                src.max() >= num_sources or dst.min() < num_sources)):
            raise ValueError("bipartite streams need num_sources with "
                             "source < num_sources <= destination")
        order = np.argsort(t, kind="stable")
        return cls(src[order], dst[order], t[order], kind, num_nodes, num_sources, labels)

    def __len__(self) -> int:
        return len(self.t)

    def slice_until(self, t: float) -> "History":
        """Events strictly before ``t``, sharing array storage with self."""
        n = int(np.searchsorted(self.t, t, side="left"))
        return History(
            self.src[:n], self.dst[:n], self.t[:n],
            self.kind, self.num_nodes, self.num_sources, self.labels,
        )

    def slice_from(self, t: float) -> "History":
        """Events at or after ``t`` (the complement of slice_until)."""
        n = int(np.searchsorted(self.t, t, side="left"))
        return History(
            self.src[n:], self.dst[n:], self.t[n:],
            self.kind, self.num_nodes, self.num_sources, self.labels,
        )

    # -- edge keys -----------------------------------------------------

    def edge_keys(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Canonical edges of endpoint columns, each packed into one int."""
        a, b = np.asarray(u), np.asarray(v)
        if not self.kind.directed:
            a, b = np.minimum(u, v), np.maximum(u, v)
        return a * np.int64(self.num_nodes) + b

    @staticmethod
    def edge_endpoints(keys: np.ndarray, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """The (a, b) endpoint columns of edge keys packed by ``edge_keys``
        over ``num_nodes`` nodes."""
        return np.divmod(keys, num_nodes)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted distinct canonical edge keys of the events and each
        event's index into them, cached: the one sort of the event edges."""
        if self._edges is None:
            self._edges = np.unique(self.edge_keys(self.src, self.dst), return_inverse=True)
        return self._edges

    def find_edges(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The order that sorts the queries (u[r], v[r]) by canonical edge,
        and in that order each query's index into ``edges()``, or -1 where no
        event holds it. Ids outside [0, num_nodes) are never found. Sorted
        queries search many times faster than random ones."""
        in_range = (np.minimum(u, v) >= 0) & (np.maximum(u, v) < self.num_nodes)
        key = np.where(in_range, self.edge_keys(u, v), -1)
        order = np.argsort(key)
        key, edges = key[order], self.edges()[0]
        at = np.searchsorted(edges, key)
        return order, np.where(np.searchsorted(edges, key, side="right") > at, at, -1)

    def occurs(self, u: np.ndarray, v: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Whether each (u[r], v[r]) is a true event at exactly time t[r]: the
        same canonical edge at that timestamp. Ids outside the stream never
        are."""
        n = len(self)
        if self._occurrences is None:  # a timestamp is coded by its first event's position
            self._occurrences = np.sort(self.edges()[1] * n + np.searchsorted(self.t, self.t))
        if n == 0:
            return np.zeros(len(t), dtype=bool)
        # callers query in time order, so times are searched as given; the
        # codes are searched in the edge order that find_edges sorts by
        t_at = np.minimum(np.searchsorted(self.t, t), n - 1)
        on_time = self.t[t_at] == t
        order, edge = self.find_edges(u, v)
        # edge index * n + event position is below n ** 2, so it cannot overflow
        code, codes = edge * n + t_at[order], self._occurrences
        at = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
        found = np.empty(len(order), dtype=bool)
        found[order] = (edge >= 0) & (codes[at] == code)
        return on_time & found

    # -- export ----------------------------------------------------------

    def export_csv(self, dest: str | Path | TextIO) -> None:
        """Write the stream as minimal-schema CSV with original labels."""
        ends = [self.src, self.dst]
        if self.labels is not None:  # code columns: each label is rendered once
            fields = self._label_fields()
            ends = [(self.src, fields), (self.dst, fields)]
        with _open_for_write(dest) as fh:
            fh.write(",".join(MINIMAL_HEADER) + "\n")
            _write_rows(fh, "{},{},{!r}\n", [*ends, self.t])

    def export_label_map(self, dest: str | Path | TextIO) -> None:
        """Write the dense-id to original-label map as ``id,label`` CSV."""
        with _open_for_write(dest) as fh:
            fh.write("id,label\n")
            _write_rows(fh, "{},{}\n", [np.arange(self.num_nodes), self._label_fields()])

    def _label_fields(self) -> np.ndarray:
        """Each node's label as one CSV field, indexed by node id."""
        if self.labels is None:
            return np.arange(self.num_nodes)
        return np.array([_csv_field(s) for s in self.labels], dtype=object)


def first_last(ids: np.ndarray, size: int, per_event: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The first and last event position of each id in [0, size), where
    ``ids`` holds ``per_event`` ids of each event, in event order. An id
    that never occurs is first at the event count and last at -1."""
    position = np.arange(len(ids)) // per_event
    first, last = np.full(size, len(ids) // per_event), np.full(size, -1)
    np.minimum.at(first, ids, position)
    np.maximum.at(last, ids, position)
    return first, last


_CHUNK = 8192  # rows per rendered chunk, which bounds the byte blocks
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with its quotes doubled, when it
    holds a comma, quote or line break, as ``csv`` writes it by default."""
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _compact(x: float) -> str:
    """``x`` to two decimals without trailing zeros, a trailing point or a
    negative zero; ``{:compact}`` in a row format."""
    s = f"{x:.2f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _write_rows(fh: TextIO, row_format: str, columns) -> None:
    """Write one ``row_format`` line per row of aligned numpy ``columns``,
    as ``row_format.format`` writes it, ``_CHUNK`` rows at a time."""
    for text in _format_rows(row_format, columns):
        fh.write(text)


# Each field renders a chunk of its column to a block of UTF-8 bytes, one row
# per value, padded with _PAD, a byte no UTF-8 text holds; the row literals
# are blocks of their own. One mask over the side-by-side blocks drops the
# padding and leaves the rows' text in order.
_PAD = 0xFF


def _format_rows(row_format: str, columns) -> Iterator[str]:
    """The text of ``row_format.format`` on each row of ``columns``, one
    string per ``_CHUNK`` rows. Fields are ``{}``, ``{!r}``, ``{:.17g}``
    or ``{:compact}`` (``_compact``); integers, and the floats whose text
    is a short decimal, render by numpy arithmetic, every other value by
    Python once per distinct value. A column given as a ``(codes, names)``
    pair holds ``names[code]`` in each row."""
    from string import Formatter  # imported here, so `import dlpeval` loads no more modules

    literals, fields = [""], []  # the text before each field, and after the last
    for literal, name, spec, conversion in Formatter().parse(row_format):
        literals[-1] += literal  # an escaped brace ends a literal early
        if name is not None:
            if name:
                raise ValueError(f"row format fields are unnumbered: {row_format!r}")
            fields.append((conversion, spec))
            literals.append("")
    literals = [np.frombuffer(s.encode("utf-8", "surrogatepass"), np.uint8) for s in literals]
    if len(columns) != len(fields):
        raise ValueError(f"{len(columns)} columns for {len(fields)} fields")
    renders = [_column_render(column, *field) for column, field in zip(columns, fields)]
    for start in range(0, len(renders[0][0]), _CHUNK):
        blocks = [render(values[start:start + _CHUNK]) for values, render in renders]
        rows = len(blocks[0])
        parts = [np.broadcast_to(literals[0], (rows, len(literals[0])))]
        for block, literal in zip(blocks, literals[1:]):
            parts += [block, np.broadcast_to(literal, (rows, len(literal)))]
        text = np.concatenate(parts, axis=1)
        yield text[text != _PAD].tobytes().decode("utf-8", "surrogatepass")


def _column_render(column, conversion: str | None, spec: str):
    """A column's values and the function that renders a chunk of them to
    the block of one field. A ``(codes, names)`` column renders each name
    once and gathers its rows from that block by their codes."""
    if isinstance(column, tuple):
        codes, names = column
        block = _text_block(list(map(_python(conversion, spec), names)))
        return np.asarray(codes), block.__getitem__
    return np.asarray(column), lambda values: _field_block(values, conversion, spec)


def _python(conversion: str | None, spec: str):
    """The Python function that formats one value as the field does."""
    if spec == "compact":
        return _compact
    return ("{" + (f"!{conversion}" if conversion else "") + (f":{spec}" if spec else "")
            + "}").format


def _field_block(values: np.ndarray, conversion: str | None, spec: str) -> np.ndarray:
    """The block of one field of a row format over a chunk of its column."""
    python = _python(conversion, spec)
    kind = values.dtype.kind
    # str, repr and ascii of an int are its digits
    if kind in "iu" and not spec and (kind == "i" or values.max() < 2 ** 63):
        return _int_block(values.astype(np.int64))
    if kind == "f" and values.dtype.itemsize <= 8:  # widening to float64 is exact
        x = values.astype(np.float64)
        if not spec:
            return _fast_or_python(x, *_repr_digits(x), python)
        if spec == ".17g" and not conversion:
            return _fast_or_python(x, *_integral_digits(x), python)
        if spec == "compact":
            return _fast_or_python(x, *_compact_digits(x), python)
    return _python_block(values, python)


def _fast_or_python(x: np.ndarray, fast: np.ndarray, block: np.ndarray | None,
                    python) -> np.ndarray:
    """One block of the ``fast`` rows of ``x``, already rendered in
    ``block`` (None when there are none), and of the others, rendered by
    ``python``."""
    if fast.all():
        return block
    slow = _python_block(x[~fast], python)
    if block is None:
        return slow
    out = np.full((len(x), max(block.shape[1], slow.shape[1])), _PAD, np.uint8)
    out[fast, :block.shape[1]] = block
    out[~fast, :slow.shape[1]] = slow
    return out


def _python_block(values: np.ndarray, python) -> np.ndarray:
    """The block of ``python`` over ``values``: numbers are printed once
    per distinct value, told apart by their bits (``-0.0`` is not
    ``0.0``), every other value once per row. A large column of text is
    passed as a ``(codes, names)`` column instead."""
    items, kind = values.tolist(), values.dtype.kind
    if kind not in "fiub" or values.dtype.itemsize > 8:
        return _text_block(list(map(python, items)))
    bits = values.view(f"u{values.itemsize}") if kind == "f" else values
    _, firsts, inverse = np.unique(bits, return_index=True, return_inverse=True)
    if len(firsts) == len(items):
        return _text_block(list(map(python, items)))
    return _text_block(list(map(python, map(items.__getitem__, firsts.tolist()))))[inverse.ravel()]


def _text_block(texts: list[str]) -> np.ndarray:
    """One row per text, its UTF-8 bytes left-aligned."""
    joined = "".join(texts)
    data = joined.encode("utf-8", "surrogatepass")
    if len(data) != len(joined):  # not all ASCII: count bytes, not characters
        texts = [t.encode("utf-8", "surrogatepass") for t in texts]
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    block = np.full((len(texts), int(lengths.max(initial=0))), _PAD, np.uint8)
    block[np.arange(block.shape[1]) < lengths[:, None]] = np.frombuffer(data, np.uint8)
    return block


def _digits(magnitude: np.ndarray) -> np.ndarray:
    """The decimal digits of non-negative integers, right-aligned."""
    top = int(magnitude.max(initial=0))
    width = len(str(top))
    # division by a scalar is fastest in the narrowest type that holds them
    m = magnitude.astype(np.int32 if top < 2 ** 31 else np.int64 if top < 2 ** 63 else np.uint64)
    digits = m
    block = np.empty((width, len(m)), np.uint8)  # a row per digit; transposed below
    for j in range(width - 1, -1, -1):
        q = digits // 10
        block[j] = digits - q * 10
        digits = q
    block += ord("0")
    for j in range(width - 1):  # leading zeros
        block[j, m < 10 ** (width - 1 - j)] = _PAD
    return block.T


def _signed(negative: np.ndarray, *blocks: np.ndarray) -> np.ndarray:
    """``blocks`` side by side, after a ``-`` on the ``negative`` rows."""
    if negative.any():
        blocks = (np.where(negative, ord("-"), _PAD).astype(np.uint8)[:, None], *blocks)
    return np.concatenate(blocks, axis=1) if len(blocks) > 1 else blocks[0]


def _int_block(v: np.ndarray) -> np.ndarray:
    """``str`` of int64 values."""
    magnitude = v.astype(np.uint64)
    negative = v < 0
    np.negative(magnitude, out=magnitude, where=negative)  # exact for the int64 minimum
    return _signed(negative, _digits(magnitude))


def _repr_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The rows of float64 ``x`` whose ``repr`` is fixed-point with at most
    15 significant digits, and their block. ``x`` is such a row when it is
    zero, or when ``1e-4 <= |x| < 1e15`` and, for the least ``p`` in 0..6,
    ``m = rint(|x| * 10**p)`` is below ``10**15`` and ``m / 10**p == |x|``
    exactly: then ``m * 10**-p`` is the one decimal of at most 15 digits
    that rounds to ``x``, and ``repr`` prints it."""
    a = np.abs(x)
    m = np.zeros(len(x), dtype=np.int64)
    p = np.zeros(len(x), dtype=np.int64)
    fast = a == 0
    todo = np.flatnonzero((a >= 1e-4) & (a < 1e15))
    for places in range(7):
        if len(todo) == 0:
            break
        scaled = np.rint(a[todo] * 10.0 ** places)
        hit = (scaled < 1e15) & (scaled / 10.0 ** places == a[todo])
        m[todo[hit]], p[todo[hit]], fast[todo[hit]] = scaled[hit], places, True
        todo = todo[~hit]
    if not fast.any():
        return fast, None
    m, p = m[fast], p[fast]
    whole, fraction = np.divmod(m, 10 ** p)
    places = int(p.max())
    if places == 0:
        point = np.broadcast_to(np.frombuffer(b".0", np.uint8), (len(m), 2))
    else:  # a point, then the fraction zero-padded to p digits, at least one
        point = _digits(fraction * 10 ** (places - p) + 10 ** places)
        point[:, 0] = ord(".")
        point[np.arange(places + 1) > np.maximum(p, 1)[:, None]] = _PAD
    return fast, _signed(np.signbit(x[fast]), _digits(whole), point)


def _integral_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The rows of float64 ``x`` that ``{:.17g}`` prints as integer digits:
    whole numbers below ``1e15`` in magnitude, but not ``-0.0``, and their block."""
    with np.errstate(invalid="ignore"):  # nan and inf are not fast
        fast = (np.abs(x) < 1e15) & (np.rint(x) == x) & ~((x == 0) & np.signbit(x))
    if not fast.any():
        return fast, None
    return fast, _int_block(x[fast].astype(np.int64))


def _compact_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The rows of float64 ``x`` that ``_compact`` prints from ``q =
    rint(100 * x)`` and their block. ``100 * x`` is rounded, so a row within
    ``1e-6`` of a tie, where that rounding could decide ``.2f``, is not one;
    nor are ``|100 * x| >= 2**53`` and the non-finite."""
    with np.errstate(invalid="ignore", over="ignore"):  # nor are inf and nan
        y = 100 * x
        fast = (np.abs(y) < 2.0 ** 53) & (np.abs(y - np.floor(y) - 0.5) >= 1e-6)
    if not fast.any():
        return fast, None
    q = np.rint(y[fast]).astype(np.int64)
    whole, cents = np.divmod(np.abs(q), 100)
    point = _digits(cents + 100)  # a point, then two digits but no trailing zeros
    point[:, 0] = ord(".")
    point[cents % 10 == 0, 2] = _PAD
    point[cents == 0] = _PAD
    return fast, _signed(q < 0, _digits(whole), point)


def _table_columns(rows, width: int) -> np.ndarray:
    """The columns of a few table rows, each None as an empty field; ``{}``
    prints the floats among them as their repr."""
    table = np.array(list(rows), dtype=object).reshape(-1, width)
    table[np.equal(table, None)] = ""
    return table.T


def _open_for_write(dest: str | Path | TextIO):
    if isinstance(dest, (str, Path)):
        return open(dest, "w", encoding="utf-8", newline="")
    return nullcontext(dest)


def _open_for_read(source: str | Path | TextIO):
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8"), newline="")
    return nullcontext(source)


# the suffixes by which numpy picks a decompressor for a file it opens
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


class _Text:
    """The text of an open handle from where it stands, read as often as
    asked: a seekable handle again from that place, a pipe from the list of
    lines it is read into once. ``source`` is what the handle was opened
    from and ``skipped`` the physical lines before that place.

    numpy may open the file itself when ``source`` is a path, the handle
    seeks (not a FIFO) and the name has no suffix that numpy decompresses
    by: its C reader then reads the file in chunks, not one ``str`` per
    line. It opens the file with universal newlines, so a reader whose
    fields may hold a CR passes ``by_path=False``; and by its absolute
    path, which no URL scheme can start."""

    def __init__(self, fh: TextIO, source, skipped: int = 0):
        self._fh, self._skipped = fh, skipped
        self._start = fh.tell() if fh.seekable() else None
        self._lines = fh if self._start is not None else list(fh)
        self._path = None
        if (self._start is not None and isinstance(source, (str, Path))
                and os.path.splitext(source)[1] not in _COMPRESSED):
            self._path = os.path.abspath(source)

    def lines(self) -> Iterable[str]:
        """The lines, read again from their start."""
        if self._start is not None:
            self._fh.seek(self._start)
        return self._lines

    def loadtxt(self, skip: int = 0, by_path: bool = True, **kwargs) -> np.ndarray | None:
        """``np.loadtxt`` of the lines after the first ``skip``, by the
        path when numpy may open it, or None where numpy refuses them."""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # text of no rows
                if by_path and self._path is not None:
                    return np.loadtxt(self._path, skiprows=self._skipped + skip,
                                      encoding="utf-8", **kwargs)
                return np.loadtxt(itertools.islice(self.lines(), skip, None), **kwargs)
        except ValueError:
            return None


def ingest_csv(
    source: str | Path | TextIO | bytes,
    schema: str = "minimal",
    kind: GraphKind = GraphKind(),
) -> History:
    """Read an interaction CSV into a History with dense remapped node ids.

    ``minimal`` expects header + (source, destination, timestamp);
    ``jodie`` expects header + (user_id, item_id, timestamp, ...) with
    every column past the third ignored. Rows are stable-sorted by
    timestamp and node labels are remapped to dense ids in order of first
    appearance in the sorted stream (bipartite kinds get disjoint id
    ranges: sources first, then destinations offset past them).

    The rows are parsed as columns in one pass, each label as ``_WIDTH``
    bytes of Latin-1 text and each timestamp by numpy, and the labels are
    numbered by one sort of those bytes as integers; only the distinct
    labels become Python strings. The text is read through ``_Text``: by
    numpy from the file itself unless the text holds a CR, which numpy
    would read as a LF inside a quoted label. ``loadtxt`` cuts a longer
    label and drops trailing NULs without a word, so a stream that holds a
    NUL or does not decode, a label that fills the width, or text outside
    Latin-1 is parsed again with each label a Python string, numbered by a
    dict. Only when that parse refuses a row too (numpy refuses some
    timestamps that ``float`` reads), or a row breaks a rule, are the rows
    walked one by one as ``csv`` reads them: the walk raises the first bad
    row's error with its line, or, where the columnar parse refused a row
    that ``csv`` accepts (such as ``1_0``, or any row of a text handle that
    does not split lines at a bare CR), reads the stream itself.
    """
    if schema not in ("minimal", "jodie"):
        raise ValueError(f"unknown schema {schema!r}")
    with _open_for_read(source) as fh:
        text = _Text(fh, source)
        fits, no_cr = _scan_text(text.lines())
        header = csv.reader(text.lines())
        if next(header, None) is None:
            raise IngestError("empty stream: no header")
        parse = functools.partial(
            text.loadtxt, skip=header.line_num, by_path=no_cr, delimiter=",", quotechar='"',
            comments=None, ndmin=1, usecols=(0, 1, 2) if schema == "jodie" else None)
        rows = parse(dtype=_BYTES_ROW) if fits else None
        if rows is not None:
            record_bytes = rows.view(np.uint8).reshape(len(rows), _BYTES_ROW.itemsize)
            if record_bytes[:, _LAST_BYTES].any():  # a label that may have been cut
                rows = None
        if rows is None:
            rows = parse(dtype=_ROW)
        h = None if rows is None else _remap(rows, kind)
        if h is None:
            h = _remap(_walk_rows(text.lines(), schema, kind), kind)
    return h


# one input row: its source and destination label fields and its timestamp,
# with the labels as Python strings or as fixed-width Latin-1 bytes
_ROW = np.dtype([("u", object), ("v", object), ("t", np.float64)])
_WIDTH = 16  # bytes of a label field in _BYTES_ROW, two uint64 words
_BYTES_ROW = np.dtype([("u", f"S{_WIDTH}"), ("v", f"S{_WIDTH}"), ("t", np.float64)])
# the last byte of each label field of a _BYTES_ROW, not NUL when the label fills it
_LAST_BYTES = [_BYTES_ROW.fields[c][1] + _WIDTH - 1 for c in "uv"]


def _scan_text(lines: Iterable[str]) -> tuple[bool, bool]:
    """Whether the text may take the bytes parse, and whether it holds no
    CR. It may take the bytes parse when it holds no NUL, which loadtxt
    drops from the end of a label, and it decodes. Text that does not
    decode gives neither; its error is left to the row walk, which raises
    it as it reads the line. The text is read in blocks from a file handle,
    or line by line from a list."""
    if hasattr(lines, "read"):
        lines = iter(functools.partial(lines.read, 1 << 20), "")
    nul = cr = False
    try:
        for text in lines:
            nul, cr = nul or "\0" in text, cr or "\r" in text
    except UnicodeDecodeError:
        return False, False
    return not nul, not cr


def _walk_rows(lines: Iterable[str], schema: str, kind: GraphKind) -> np.ndarray:
    """The rows after the header as ``csv`` reads them, checked one by one:
    the first bad row raises its IngestError with its line."""
    exact_arity = 3 if schema == "minimal" else None
    reader = csv.reader(lines)
    next(reader, None)  # header
    rows = []
    for row in reader:
        lineno = reader.line_num
        if not row:
            continue
        if len(row) < 3 or (exact_arity is not None and len(row) != exact_arity):
            raise IngestError(
                f"expected {exact_arity or 'at least 3'} columns, got {len(row)}",
                line=lineno,
            )
        u, v, raw_t = row[0].strip(), row[1].strip(), row[2].strip()
        if not u or not v:
            raise IngestError("empty node label", line=lineno)
        try:
            t = float(raw_t)
        except ValueError:
            raise IngestError(f"invalid timestamp {raw_t!r}", line=lineno) from None
        if math.isnan(t) or math.isinf(t):
            raise IngestError(f"non-finite timestamp {raw_t!r}", line=lineno)
        if t < 0:
            raise IngestError(f"negative timestamp {raw_t!r}", line=lineno)
        if not kind.bipartite and not kind.allow_self_loops and u == v:
            raise IngestError(f"self-loop on {u!r} (self-loops disabled)", line=lineno)
        rows.append((u, v, t))
    return np.array(rows, dtype=_ROW)


def _remap(rows: np.ndarray, kind: GraphKind) -> History | None:
    """The History of ``rows``, or None when a row breaks a rule: a
    non-finite or negative timestamp, an empty label or a disabled self-loop."""
    if len(rows) == 0:
        raise IngestError("empty stream: no event rows")
    t = rows["t"]
    if not np.all(np.isfinite(t)) or np.any(t < 0):
        return None
    order = np.argsort(t, kind="stable")
    if kind.bipartite:
        src, src_labels = _first_appearance_ids(rows["u"][order])
        dst, dst_labels = _first_appearance_ids(rows["v"][order])
        num_sources = len(src_labels)
        dst += num_sources
        labels = src_labels + dst_labels
    else:
        fields = np.empty(2 * len(rows), dtype=rows.dtype["u"])
        fields[0::2] = rows["u"][order]  # each event's source,
        fields[1::2] = rows["v"][order]  # then its destination
        ids, labels = _first_appearance_ids(fields)
        src, dst = ids.reshape(-1, 2).T.copy()
        num_sources = None
        if not kind.allow_self_loops and np.any(src == dst):
            return None
    if "" in labels:
        return None
    return History(src, dst, t[order], kind, len(labels), num_sources, labels)


def _first_appearance_ids(fields: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """The dense id of each raw label field, numbered by first appearance of
    its stripped text, and the stripped labels in id order. Only the
    distinct raw fields are decoded and stripped; those that strip alike
    merge."""
    first = _first_positions(fields)
    firsts = np.flatnonzero(first == np.arange(len(first)))
    texts = fields[firsts].tolist()
    if fields.dtype.kind == "S":
        texts = [text.decode("latin-1") for text in texts]
    stripped = list(map(str.strip, texts))
    labels = dict.fromkeys(stripped)
    ids_at_first = np.empty(len(fields), dtype=np.int64)  # read at first positions only
    ids_at_first[firsts] = np.fromiter(map(dict(zip(labels, itertools.count())).__getitem__,
                                           stripped), dtype=np.int64, count=len(stripped))
    return ids_at_first[first], tuple(labels)


def _first_positions(fields: np.ndarray) -> np.ndarray:
    """The position of the first field equal to each of ``fields``. Bytes
    fields are grouped by sorting the uint64 words they fill, the first
    word alone when no field reaches the second; Python strings by one
    dict pass."""
    if fields.dtype.kind != "S":
        raw: dict[str, int] = {}
        return np.fromiter(map(raw.setdefault, fields.tolist(), itertools.count()),
                           dtype=np.int64, count=len(fields))
    words = fields.view(np.uint64).reshape(len(fields), -1)
    if words[:, 1:].any():
        order = np.lexsort(words.T[::-1])
        ordered = words[order]
    else:  # sorting the words again is faster than gathering them by order
        order = np.argsort(words[:, 0])
        ordered = np.sort(words[:, 0])[:, None]
    new = np.ones(len(fields), dtype=bool)  # where a run of equal fields starts
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    first = np.empty(len(fields), dtype=np.int64)
    first[order] = np.repeat(np.minimum.reduceat(order, starts),
                             np.diff(starts, append=len(fields)))
    return first
