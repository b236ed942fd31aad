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
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from .errors import IngestError

MINIMAL_HEADER = ("source", "destination", "timestamp")

# one event as a sortable record: its timestamp, then its packed edge key
_TIMED_EDGE = np.dtype([("t", np.float64), ("key", np.int64)])


class Event(NamedTuple):
    source: int
    destination: int
    t: float


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
        "_timed_edges",
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
        self._timed_edges: np.ndarray | None = None

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

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self.t)):
            yield self.event(i)

    def event(self, i: int) -> Event:
        return Event(int(self.src[i]), int(self.dst[i]), float(self.t[i]))

    @property
    def t_min(self) -> float:
        return float(self.t[0])

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

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

    def event_edge_keys(self) -> np.ndarray:
        """Per-event canonical edge key, cached."""
        if self._event_edge_keys is None:
            self._event_edge_keys = self.edge_keys(self.src, self.dst)
        return self._event_edge_keys

    def occurs(self, u: np.ndarray, v: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Whether each (u[r], v[r]) is a true event at exactly time t[r]: the
        same canonical edge at that timestamp. Ids outside the stream never
        are."""
        if self._timed_edges is None:
            order = np.lexsort((self.event_edge_keys(), self.t))
            self._timed_edges = np.rec.fromarrays(
                [self.t[order], self.event_edge_keys()[order]], dtype=_TIMED_EDGE)
        events = self._timed_edges
        in_range = (np.minimum(u, v) >= 0) & (np.maximum(u, v) < self.num_nodes)
        if len(events) == 0:
            return np.zeros(len(in_range), dtype=bool)
        query = np.rec.fromarrays(
            [t, self.edge_keys(np.where(in_range, u, 0), np.where(in_range, v, 0))],
            dtype=_TIMED_EDGE)
        at = np.minimum(np.searchsorted(events, query), len(events) - 1)
        return in_range & (events[at] == query)

    def observed_nodes(self) -> np.ndarray:
        """Sorted ids of nodes that appear in at least one event."""
        return np.unique(np.concatenate([self.src, self.dst]))

    # -- export ----------------------------------------------------------

    def label_of(self, node: int) -> str:
        return self.labels[node] if self.labels is not None else str(node)

    def export_csv(self, dest: str | Path | TextIO) -> None:
        """Write the stream as minimal-schema CSV with original labels."""
        with _open_for_write(dest) as fh:
            fh.write(",".join(MINIMAL_HEADER) + "\n")
            for i in range(len(self)):
                fh.write(
                    f"{self.label_of(int(self.src[i]))},"
                    f"{self.label_of(int(self.dst[i]))},"
                    f"{float(self.t[i])!r}\n"
                )

    def export_label_map(self, dest: str | Path | TextIO) -> None:
        """Write the dense-id to original-label map as ``id,label`` CSV."""
        with _open_for_write(dest) as fh:
            fh.write("id,label\n")
            for i in range(self.num_nodes):
                fh.write(f"{i},{self.label_of(i)}\n")


def _open_for_write(dest: str | Path | TextIO):
    if isinstance(dest, (str, Path)):
        return open(dest, "w", encoding="utf-8", newline="")
    return _NonClosing(dest)


def _open_for_read(source: str | Path | TextIO):
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8"))
    return _NonClosing(source)


class _NonClosing:
    """Context wrapper that leaves caller-owned streams open."""

    def __init__(self, stream):
        self._stream = stream

    def __enter__(self):
        return self._stream

    def __exit__(self, *exc):
        return False


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
    """
    if schema not in ("minimal", "jodie"):
        raise ValueError(f"unknown schema {schema!r}")
    exact_arity = 3 if schema == "minimal" else None

    u_labels: list[str] = []
    v_labels: list[str] = []
    times: list[float] = []
    lines: list[int] = []
    with _open_for_read(source) as fh:
        reader = csv.reader(fh)
        try:
            next(reader)  # header
        except StopIteration:
            raise IngestError("empty stream: no header") from None
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
            u_labels.append(u)
            v_labels.append(v)
            times.append(t)
            lines.append(lineno)

    if not times:
        raise IngestError("empty stream: no event rows")

    t_arr = np.asarray(times, dtype=np.float64)
    order = np.argsort(t_arr, kind="stable")

    if kind.bipartite:
        src_map: dict[str, int] = {}
        dst_map: dict[str, int] = {}
        src_ids = np.empty(len(order), dtype=np.int64)
        dst_ids = np.empty(len(order), dtype=np.int64)
        for pos, i in enumerate(order):
            src_ids[pos] = src_map.setdefault(u_labels[i], len(src_map))
            dst_ids[pos] = dst_map.setdefault(v_labels[i], len(dst_map))
        num_sources = len(src_map)
        dst_ids += num_sources
        labels = tuple(src_map) + tuple(dst_map)
        num_nodes = len(labels)
    else:
        node_map: dict[str, int] = {}
        src_ids = np.empty(len(order), dtype=np.int64)
        dst_ids = np.empty(len(order), dtype=np.int64)
        for pos, i in enumerate(order):
            src_ids[pos] = node_map.setdefault(u_labels[i], len(node_map))
            dst_ids[pos] = node_map.setdefault(v_labels[i], len(node_map))
        num_sources = None
        labels = tuple(node_map)
        num_nodes = len(labels)

    return History(
        src_ids, dst_ids, t_arr[order], kind, num_nodes, num_sources, labels
    )
