"""Event-stream data model: ingestion, canonicalization and time-indexed access.

An interaction stream is stored columnar (numpy arrays for sources,
destinations and timestamps) so that million-event histories stay cheap to
sort, slice and scan. Node labels from the input file are remapped once at
ingestion to dense integer ids; every downstream structure indexes arrays by
those ids.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

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
    """

    __slots__ = (
        "src",
        "dst",
        "t",
        "kind",
        "num_nodes",
        "num_sources",
        "labels",
        "_event_edge_keys",
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
        self._event_edge_keys: np.ndarray | None = None
        self._occurrences: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

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
        a, b = u, v
        if not self.kind.directed:
            a, b = np.minimum(u, v), np.maximum(u, v)
        return a * np.int64(self.num_nodes) + b

    @staticmethod
    def edge_endpoints(keys: np.ndarray, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """The (a, b) endpoint columns of edge keys packed by ``edge_keys``
        over ``num_nodes`` nodes."""
        return np.divmod(keys, num_nodes)

    def event_edge_keys(self) -> np.ndarray:
        """Per-event canonical edge key, cached."""
        if self._event_edge_keys is None:
            self._event_edge_keys = self.edge_keys(self.src, self.dst)
        return self._event_edge_keys

    def occurs(self, u: np.ndarray, v: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Whether each (u[r], v[r]) is a true event at exactly time t[r]: the
        same canonical edge at that timestamp. Ids outside the stream never
        are."""
        if self._occurrences is None:
            times, edges = _distinct(self.t), _distinct(self.event_edge_keys())
            codes = (np.searchsorted(edges, self.event_edge_keys()) * len(times)
                     + np.searchsorted(times, self.t))
            self._occurrences = (times, edges, _distinct(codes))
        times, edges, codes = self._occurrences
        in_range = (np.minimum(u, v) >= 0) & (np.maximum(u, v) < self.num_nodes)
        if len(codes) == 0:
            return np.zeros(len(in_range), dtype=bool)
        key = self.edge_keys(np.where(in_range, u, 0), np.where(in_range, v, 0))
        # callers query in time order, so times are searched as given; edge
        # keys are random, so they and the codes are searched once sorted
        t_at = np.minimum(np.searchsorted(times, t), len(times) - 1)
        on_time = times[t_at] == t
        order = np.argsort(key)
        key, t_at = key[order], t_at[order]
        e_at = np.minimum(np.searchsorted(edges, key), len(edges) - 1)
        # edge index * distinct timestamps + timestamp index is below
        # len(self) ** 2, so it cannot overflow
        code = e_at * len(times) + t_at
        at = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
        found = np.empty(len(order), dtype=bool)
        found[order] = (edges[e_at] == key) & (codes[at] == code)
        return in_range & on_time & found

    # -- export ----------------------------------------------------------

    def export_csv(self, dest: str | Path | TextIO) -> None:
        """Write the stream as minimal-schema CSV with original labels."""
        labels = self._label_fields()
        with _open_for_write(dest) as fh:
            fh.write(",".join(MINIMAL_HEADER) + "\n")
            _write_rows(fh, "{},{},{!r}\n", [labels[self.src], labels[self.dst], self.t])

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


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, sorted. Sorting first is many times
    faster than the hash table ``np.unique`` builds for large random keys."""
    x = np.sort(x)
    return np.concatenate((x[:1], x[1:][x[1:] != x[:-1]]))


_CHUNK = 8192  # rows per formatted chunk, which bounds the lists .tolist() makes
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with its quotes doubled, when it
    holds a comma, quote or line break, as ``csv`` writes it by default."""
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _write_rows(fh: TextIO, row_format: str, columns) -> None:
    """Write one ``row_format`` line per row of aligned numpy ``columns``,
    formatting ``_CHUNK`` rows at a time with one ``str.format`` map."""
    fill = row_format.format
    for start in range(0, len(columns[0]), _CHUNK):
        fh.write("".join(map(fill, *(c[start:start + _CHUNK].tolist() for c in columns))))


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

    The rows are parsed as columns in one pass. Only when that parse
    refuses a row, or a row breaks a rule, are the rows walked one by one
    as ``csv`` reads them: the walk raises the first bad row's error with
    its line, or, where the columnar parse refused a row that ``csv``
    accepts (a text handle that does not split lines at a bare CR), reads
    the stream itself.
    """
    if schema not in ("minimal", "jodie"):
        raise ValueError(f"unknown schema {schema!r}")
    with _open_for_read(source) as fh:
        lines = fh if fh.seekable() else list(fh)  # a pipe is read once
        start = fh.tell() if lines is fh else None
        rows = _parse_rows(lines, schema)
        h = None if rows is None else _remap(rows, kind)
        if h is None:
            if start is not None:
                fh.seek(start)
            h = _remap(_walk_rows(lines, schema, kind), kind)
    return h


# one input row: its source and destination label fields and its timestamp
_ROW = np.dtype([("u", object), ("v", object), ("t", np.float64)])


def _parse_rows(lines: Iterable[str], schema: str) -> np.ndarray | None:
    """The rows after the header as one ``_ROW`` array, split into fields
    as ``csv`` splits them, or None when the columnar parse refuses one."""
    lines = iter(lines)
    try:
        next(csv.reader(lines))  # header
    except StopIteration:
        raise IngestError("empty stream: no header") from None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a stream of no rows
            return np.loadtxt(lines, dtype=_ROW, delimiter=",", quotechar='"',
                              comments=None, ndmin=1, converters={2: float},
                              usecols=(0, 1, 2) if schema == "jodie" else None)
    except ValueError:
        return None


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
        src, src_labels = _first_appearance_ids(rows["u"][order].tolist())
        dst, dst_labels = _first_appearance_ids(rows["v"][order].tolist())
        num_sources = len(src_labels)
        dst += num_sources
        labels = src_labels + dst_labels
    else:
        fields = [None] * (2 * len(rows))
        fields[0::2] = rows["u"][order].tolist()  # each event's source,
        fields[1::2] = rows["v"][order].tolist()  # then its destination
        ids, labels = _first_appearance_ids(fields)
        src, dst = ids.reshape(-1, 2).T.copy()
        num_sources = None
        if not kind.allow_self_loops and np.any(src == dst):
            return None
    if "" in labels:
        return None
    return History(src, dst, t[order], kind, len(labels), num_sources, labels)


def _first_appearance_ids(fields: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """The dense id of each raw label field, numbered by first appearance of
    its stripped text, and the stripped labels in id order. Only the
    distinct raw fields are stripped; those that strip alike merge."""
    raw: dict[str, int] = {}
    # one dict pass maps each field to the position of the first field with
    # its text; the dict holds each distinct text and that position, in order
    first = np.fromiter(map(raw.setdefault, fields, itertools.count()),
                        dtype=np.int64, count=len(fields))
    stripped = list(map(str.strip, raw))
    labels = dict.fromkeys(stripped)
    ids_at_first = np.empty(len(fields), dtype=np.int64)  # read at first positions only
    ids_at_first[np.fromiter(raw.values(), dtype=np.int64, count=len(raw))] = np.fromiter(
        map(dict(zip(labels, itertools.count())).__getitem__, stripped),
        dtype=np.int64, count=len(stripped))
    return ids_at_first[first], tuple(labels)
