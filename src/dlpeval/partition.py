"""Time-based splitting, lifetimes, key categorization and surprise indices.

All functions are pure over an immutable History. A key (node or edge) is
categorized against a cutoff by its lifetime over the *full* stream:
historical keys die before the cutoff, inductive keys are born at or after
it, overlap keys straddle it. The surprise index of a key population is the
fraction of test-active keys (death >= cutoff) that are inductive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from .core import History, _open_for_write, _table_columns, _write_rows, first_last
from .errors import DegenerateSplitError


class TemporalCategory(enum.Enum):
    HISTORICAL = "historical"
    OVERLAP = "overlap"
    INDUCTIVE = "inductive"


# the category a strategy or role name stands for by its first letter
CATEGORY_BY_INITIAL = {c.value[0].upper(): c for c in TemporalCategory}


class KeyKind(enum.Enum):
    NODE = "node"
    EDGE = "edge"
    SOURCE_NODE = "source-role-node"
    DESTINATION_NODE = "destination-role-node"


class LifetimeTable:
    """Birth and death per observed key, in columns sorted by key.

    ``ids`` are node ids, or for edge tables (``num_nodes`` set) canonical
    edges packed by ``History.edge_keys`` (``History.edge_endpoints`` unpacks
    them). ``births`` and ``deaths`` align with ``ids``.
    """

    __slots__ = ("ids", "births", "deaths", "num_nodes")

    def __init__(self, ids, births, deaths, num_nodes: int | None = None):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.births = np.asarray(births, dtype=np.float64)
        self.deaths = np.asarray(deaths, dtype=np.float64)
        self.num_nodes = num_nodes
        if not (len(self.ids) == len(self.births) == len(self.deaths)):
            raise ValueError("key, birth and death columns differ in length")
        if np.any(self.ids[1:] <= self.ids[:-1]):
            raise ValueError("keys must be strictly increasing")

    def __len__(self) -> int:
        return len(self.ids)


class SweepPoint(NamedTuple):
    ratio: float
    node_surprise: float | None
    edge_surprise: float | None


def check_ratio(ratio: float, name: str = "test_ratio") -> None:
    """Raise ``ValueError`` unless ``ratio`` lies in (0, 1); NaN does not."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {ratio}")


def compute_cutoff(h: History, test_ratio: float) -> float:
    """Cutoff timestamp placing the last ``test_ratio`` share of events in test.

    The cutoff is the timestamp of the (floor((1 - test_ratio) * N) + 1)-th
    event in chronological order; events with t >= cutoff are test. Ties at
    the cutoff all land in test, so a stream where that pushes every event
    into test (e.g. a single shared timestamp) is rejected.
    """
    n = len(h)
    if n == 0:
        raise DegenerateSplitError("cannot split an empty history")
    check_ratio(test_ratio)
    k = int(math.floor((1.0 - test_ratio) * n + 1e-9))
    k = min(k, n - 1)
    t_split = float(h.t[k])
    if t_split <= float(h.t[0]):
        raise DegenerateSplitError(
            "degenerate split: every event would land in the test set "
            "(timestamp ties at the cutoff)"
        )
    return t_split


def split(h: History, t_split: float) -> tuple[History, History]:
    """Partition events into (train, test): t < t_split versus t >= t_split."""
    return h.slice_until(t_split), h.slice_from(t_split)


def category_codes(births, deaths, t_split: float) -> np.ndarray:
    """Per-key index into TemporalCategory: 0 historical (dies before the
    cutoff), 2 inductive (born at or after it), 1 overlap (straddles it)."""
    return np.where(deaths < t_split, 0, np.where(births >= t_split, 2, 1))


def lifetimes(h: History, kind: KeyKind = KeyKind.NODE) -> LifetimeTable:
    """Birth/death per observed key, the times of its first and last event
    (``core.first_last``): nodes with at least one event, or for
    KeyKind.EDGE every observed canonical edge (``History.edges``).

    Role-restricted kinds only count events where the node appears in that
    role; they are rejected on undirected streams, where roles carry no
    meaning."""
    if len(h) == 0:
        raise ValueError("lifetimes of an empty history")
    if kind is KeyKind.EDGE:
        keys, edge_of_event = h.edges()
        first, last = first_last(edge_of_event, len(keys))
        return LifetimeTable(keys, h.t[first], h.t[last], num_nodes=h.num_nodes)
    if kind in (KeyKind.SOURCE_NODE, KeyKind.DESTINATION_NODE) and not h.kind.directed:
        raise ValueError(f"{kind.value} lifetimes are undefined on undirected streams")
    roles = {KeyKind.NODE: (h.src, h.dst), KeyKind.SOURCE_NODE: (h.src,),
             KeyKind.DESTINATION_NODE: (h.dst,)}[kind]
    first, last = first_last(np.column_stack(roles).ravel(), h.num_nodes, len(roles))
    ids = np.flatnonzero(last >= 0)
    return LifetimeTable(ids, h.t[first[ids]], h.t[last[ids]])


@dataclass(frozen=True)
class CategoryCounts:
    total: int
    historical: int
    overlap: int
    inductive: int

    @property
    def surprise(self) -> float | None:
        """inductive / (inductive + overlap); None when no key is test-active."""
        denom = self.inductive + self.overlap
        if denom == 0:
            return None
        return self.inductive / denom


@dataclass(frozen=True)
class PartitionReport:
    counts: dict[KeyKind, CategoryCounts]


def _count_categories(table: LifetimeTable, t_split: float) -> CategoryCounts:
    counts = np.bincount(category_codes(table.births, table.deaths, t_split), minlength=3)
    return CategoryCounts(len(table), *(int(c) for c in counts))


def partition_report(
    h: History,
    t_split: float,
    kinds: Iterable[KeyKind] = (KeyKind.NODE, KeyKind.EDGE),
) -> PartitionReport:
    """Per-kind category counts and surprise indices at a cutoff."""
    return PartitionReport({kind: _count_categories(lifetimes(h, kind), t_split)
                            for kind in kinds})


def surprise_sweep(h: History, ratios: Iterable[float]) -> list[SweepPoint]:
    """Node and edge surprise at each test ratio, in the given order."""
    nodes, edges = lifetimes(h, KeyKind.NODE), lifetimes(h, KeyKind.EDGE)
    points = []
    for ratio in ratios:
        t_split = compute_cutoff(h, ratio)
        points.append(SweepPoint(ratio, _count_categories(nodes, t_split).surprise,
                                 _count_categories(edges, t_split).surprise))
    return points


def write_partition_csv(report: PartitionReport, dest: str | Path | TextIO) -> None:
    """CSV export: ``kind,total,historical,overlap,inductive,surprise``."""
    rows = [(kind.value, c.total, c.historical, c.overlap, c.inductive, c.surprise)
            for kind, c in report.counts.items()]
    with _open_for_write(dest) as fh:
        fh.write("kind,total,historical,overlap,inductive,surprise\n")
        _write_rows(fh, "{},{},{},{},{},{}\n", _table_columns(rows, 6))


def write_sweep_csv(points: Iterable[SweepPoint], dest: str | Path | TextIO) -> None:
    """CSV export: ``ratio,node_surprise,edge_surprise``."""
    with _open_for_write(dest) as fh:
        fh.write("ratio,node_surprise,edge_surprise\n")
        _write_rows(fh, "{},{},{}\n", _table_columns(points, 3))
