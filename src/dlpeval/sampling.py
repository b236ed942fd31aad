"""Negative sampling for evaluation: category-targeted replacement strategies.

Each strategy corrupts a positive event (u, v, t) into negatives at the same
timestamp t, either by swapping one endpoint for a node of a chosen temporal
category (relative to the split cutoff), by swapping the whole edge for an
observed edge of a chosen category, or uniformly at random over all observed
nodes (RND). Candidates are drawn uniformly with replacement across the k
draws; within a draw, candidates that would collide with a true event at
time t (or form a disallowed self-loop) are rejected and redrawn.
``sample_stream`` runs the strategies over every event of a stream; the
``sample`` command and the evaluation harness both draw through it.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .core import Event, History, canonical_edge, _open_for_write
from .errors import EmptyCandidateSetError
from .partition import (
    KeyKind,
    TemporalCategory,
    category_codes,
    edge_lifetime_arrays,
    node_lifetime_arrays,
)

DEFAULT_MAX_ATTEMPTS = 1000

logger = logging.getLogger(__name__)


class NegativeStrategy(enum.Enum):
    HS = "HS"
    OS = "OS"
    IS = "IS"
    HD = "HD"
    OD = "OD"
    ID = "ID"
    HE = "HE"
    OE = "OE"
    IE = "IE"
    RND = "RND"

    @property
    def category(self) -> TemporalCategory | None:
        """Temporal category this strategy samples from (None for RND)."""
        return _STRATEGY_CATEGORY[self]

    @property
    def replaces(self) -> str:
        """Which part of the positive is swapped: source, destination or edge."""
        return _STRATEGY_TARGET[self]


_STRATEGY_CATEGORY = {
    NegativeStrategy.HS: TemporalCategory.HISTORICAL,
    NegativeStrategy.OS: TemporalCategory.OVERLAP,
    NegativeStrategy.IS: TemporalCategory.INDUCTIVE,
    NegativeStrategy.HD: TemporalCategory.HISTORICAL,
    NegativeStrategy.OD: TemporalCategory.OVERLAP,
    NegativeStrategy.ID: TemporalCategory.INDUCTIVE,
    NegativeStrategy.HE: TemporalCategory.HISTORICAL,
    NegativeStrategy.OE: TemporalCategory.OVERLAP,
    NegativeStrategy.IE: TemporalCategory.INDUCTIVE,
    NegativeStrategy.RND: None,
}

_STRATEGY_TARGET = {
    NegativeStrategy.HS: "source",
    NegativeStrategy.OS: "source",
    NegativeStrategy.IS: "source",
    NegativeStrategy.HD: "destination",
    NegativeStrategy.OD: "destination",
    NegativeStrategy.ID: "destination",
    NegativeStrategy.HE: "edge",
    NegativeStrategy.OE: "edge",
    NegativeStrategy.IE: "edge",
    NegativeStrategy.RND: "destination",
}


@dataclass
class NegativeBatch:
    positive: Event
    strategy: NegativeStrategy
    negatives: list[Event]


@dataclass(frozen=True)
class SampledStream:
    """Negatives drawn for the events of one stream, in columns: the history
    positions of the events kept (their ordinals are 0..n_kept-1), their
    timestamps, (n_kept, len(strategies), k) endpoint arrays, and the count
    of events skipped for lack of a legal negative."""

    events: np.ndarray
    timestamp: np.ndarray
    source: np.ndarray
    destination: np.ndarray
    strategies: tuple[NegativeStrategy, ...]
    skipped: int


@dataclass
class CandidateIndex:
    """Precomputed category pools for sampling against one cutoff.

    Node pools are keyed by (role, category) where role is ``all`` for
    unipartite streams and additionally ``source`` / ``destination`` for
    bipartite ones (whose universes are disjoint). Edge pools hold the
    observed canonical edges of each category. The index is immutable after
    build and safe to share across concurrent sampling calls.
    """

    history: History
    t_split: float
    node_pools: dict[tuple[str, TemporalCategory], np.ndarray]
    edge_pools: dict[TemporalCategory, np.ndarray]
    all_nodes: np.ndarray
    node_category: np.ndarray  # per node id: -1 unseen, else category code
    _edges_at_cache: tuple[float, frozenset] | None = field(default=None, repr=False)

    def nodes_in(self, category: TemporalCategory, role: str = "all") -> np.ndarray:
        if not self.history.kind.bipartite:
            role = "all"
        return self.node_pools[(role, category)]

    def edges_in(self, category: TemporalCategory) -> np.ndarray:
        return self.edge_pools[category]

    def pool_for(self, strategy: NegativeStrategy) -> np.ndarray:
        """The candidate pool a strategy draws from (nodes or edge pairs)."""
        if strategy is NegativeStrategy.RND:
            return self.all_nodes
        if strategy.replaces == "edge":
            return self.edges_in(strategy.category)
        return self.nodes_in(strategy.category, role=strategy.replaces)

    def edges_at(self, t: float) -> frozenset:
        """Canonical keys of the true events at exactly time t (cached)."""
        if self._edges_at_cache is not None and self._edges_at_cache[0] == t:
            return self._edges_at_cache[1]
        h = self.history
        lo = int(np.searchsorted(h.t, t, side="left"))
        hi = int(np.searchsorted(h.t, t, side="right"))
        keys = frozenset(int(k) for k in h.event_edge_keys()[lo:hi])
        self._edges_at_cache = (t, keys)
        return keys


def build_candidate_index(h: History, t_split: float) -> CandidateIndex:
    """Categorize every observed node and edge against ``t_split``."""
    ids, births, deaths = node_lifetime_arrays(h, KeyKind.NODE)
    codes = category_codes(births, deaths, t_split)
    node_category = np.full(h.num_nodes, -1, dtype=np.int8)
    node_category[ids] = codes

    node_pools: dict[tuple[str, TemporalCategory], np.ndarray] = {}
    for code, cat in enumerate(TemporalCategory):
        members = ids[codes == code]
        node_pools[("all", cat)] = members
        if h.kind.bipartite:
            if h.num_sources is None:
                raise ValueError("bipartite history lacks its source/destination id boundary")
            node_pools[("source", cat)] = members[members < h.num_sources]
            node_pools[("destination", cat)] = members[members >= h.num_sources]

    keys, e_births, e_deaths = edge_lifetime_arrays(h)
    e_codes = category_codes(e_births, e_deaths, t_split)
    edge_pools: dict[TemporalCategory, np.ndarray] = {}
    for code, cat in enumerate(TemporalCategory):
        pool_keys = keys[e_codes == code]
        edge_pools[cat] = np.column_stack(
            [pool_keys // h.num_nodes, pool_keys % h.num_nodes]
        ).astype(np.int64)

    return CandidateIndex(h, t_split, node_pools, edge_pools, ids, node_category)


def derive_event_seed(seed: int, ordinal: int) -> int:
    """Stable 64-bit stream seed for one positive event.

    Derived from the run seed and the event's position in the history, so
    per-event sampling can run in parallel yet reproduce sequential output.
    """
    ss = np.random.SeedSequence([seed & 0x7FFFFFFFFFFFFFFF, ordinal])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_negatives(
    pos: Event,
    strategy: NegativeStrategy,
    k: int,
    idx: CandidateIndex,
    rng_seed: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> NegativeBatch:
    """Draw k negatives for one positive event under one strategy.

    Draws are uniform over the strategy's candidate pool, with replacement
    across the k draws. A draw is rejected and retried when it reproduces
    any true event at the positive's timestamp or forms a disallowed
    self-loop; after ``max_attempts`` rejections the strategy is declared
    empty for this event.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    h = idx.history
    kind = h.kind

    pool = idx.pool_for(strategy)
    if len(pool) == 0:
        raise EmptyCandidateSetError(
            f"{strategy.value}: no candidate of the required category exists"
        )

    forbidden = idx.edges_at(pos.t)
    rng = np.random.default_rng(rng_seed)
    negatives: list[Event] = []
    for _ in range(k):
        drawn = None
        for _attempt in range(max_attempts):
            j = int(rng.integers(0, len(pool)))
            if strategy.replaces == "edge":
                u, v = int(pool[j, 0]), int(pool[j, 1])
            elif strategy.replaces == "source":
                u, v = int(pool[j]), pos.destination
            else:
                u, v = pos.source, int(pool[j])
            if u == v and not kind.allow_self_loops:
                continue
            a, b = canonical_edge(u, v, kind)
            if a * h.num_nodes + b in forbidden:
                continue
            drawn = Event(u, v, pos.t)
            break
        if drawn is None:
            raise EmptyCandidateSetError(
                f"{strategy.value}: no legal candidate for positive "
                f"({pos.source}, {pos.destination}, {pos.t}) "
                f"after {max_attempts} attempts"
            )
        negatives.append(drawn)
    return NegativeBatch(pos, strategy, negatives)


def sample_stream(
    h: History,
    idx: CandidateIndex,
    strategies: Sequence[NegativeStrategy],
    k: int,
    seed: int,
    on_empty: str = "skip",
) -> SampledStream:
    """Draw k negatives per strategy for every event of the stream.

    Each event's draws are seeded by its position in the history, so the
    same seed reproduces the same negatives whichever strategies are
    requested. ``on_empty`` decides what happens when a strategy has no
    legal candidate for an event: ``skip`` drops the event and counts it in
    one summary warning, ``abort`` raises.
    """
    strategies = tuple(strategies)
    if not strategies:
        raise ValueError("at least one negative strategy is required")
    if k < 1:
        raise ValueError("k must be >= 1")
    if on_empty not in ("skip", "abort"):
        raise ValueError(f"unknown empty-candidate policy {on_empty!r}")
    barren = ", ".join(s.value for s in strategies if len(idx.pool_for(s)) == 0)
    if barren:
        # no event can succeed, so fail (or empty out) once instead of
        # trying every event
        if on_empty == "abort":
            raise EmptyCandidateSetError(
                f"no candidate of the required category exists for: {barren}"
            )
        logger.warning("strategies with no candidates anywhere (%s): every event "
                       "will be skipped", barren)
    kept, drawn = [], []
    for i in range(0 if barren else len(h)):
        event_seed = derive_event_seed(seed, i)
        try:
            batches = [sample_negatives(h.event(i), s, k, idx, event_seed)
                       for s in strategies]
        except EmptyCandidateSetError as exc:
            if on_empty == "abort":
                raise
            logger.debug("skipping event %d: %s", i, exc)
            continue
        kept.append(i)
        drawn += [(e.source, e.destination) for b in batches for e in b.negatives]
    skipped = len(h) - len(kept)
    if skipped and not barren:
        logger.warning("skipped %d of %d events with no legal negatives", skipped, len(h))
    events = np.asarray(kept, dtype=np.int64)
    pairs = np.asarray(drawn, dtype=np.int64).reshape(len(kept), len(strategies), k, 2)
    return SampledStream(events, h.t[events], pairs[..., 0], pairs[..., 1],
                         strategies, skipped)


def write_negatives_csv(sampled: SampledStream, dest: str | Path | TextIO) -> None:
    """CSV export for replay into external models:
    ``event_ordinal,strategy,source,destination,timestamp``."""
    n_kept, _, k = sampled.source.shape
    names = [s.value for s in sampled.strategies for _ in range(k)]
    rows = zip(sampled.timestamp.tolist(),
               sampled.source.reshape(n_kept, len(names)).tolist(),
               sampled.destination.reshape(n_kept, len(names)).tolist())
    with _open_for_write(dest) as fh:
        fh.write("event_ordinal,strategy,source,destination,timestamp\n")
        for ordinal, (t, us, vs) in enumerate(rows):
            fh.writelines(f"{ordinal},{name},{u},{v},{t!r}\n"
                          for name, u, v in zip(names, us, vs))
