"""Negative sampling for evaluation: category-targeted replacement strategies.

Each strategy corrupts a positive event (u, v, t) into negatives at the same
timestamp t, either by swapping one endpoint for a node of a chosen temporal
category (relative to the split cutoff), by swapping the whole edge for an
observed edge of a chosen category, or by swapping the destination uniformly
over the observed destination-side nodes (RND). Draws are uniform with
replacement; a candidate that collides with a true event at time t (or forms
a disallowed self-loop) is rejected and redrawn.

Each negative is a pure function of (seed, event position, strategy, draw):
a counter-based hash (Salmon et al., SC 2011) of those and the attempt
number, mapped into the pool by multiply-shift (Lemire, TOMACS 2019). So
``sample_negatives`` draws a whole stream at once; ``sample_stream``, through
which the ``sample`` command and the evaluation harness both draw, runs it
once per strategy.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .core import History, _open_for_write, _write_rows
from .errors import EmptyCandidateSetError
from .partition import (
    KeyKind,
    TemporalCategory,
    category_codes,
    edge_lifetime_arrays,
    node_lifetime_arrays,
)

MAX_ATTEMPTS = 1000  # rejected candidates after which a draw gives up

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


@dataclass(frozen=True)
class SampledStream:
    """Negatives drawn for the events of one stream, in columns: the history
    positions of the events kept (their ordinals are 0..n_kept-1), their
    timestamps, (n_kept, len(strategies), k) endpoint arrays, the count of
    events skipped for lack of a legal negative, and per strategy the count
    of events for which it had none."""

    events: np.ndarray
    timestamp: np.ndarray
    source: np.ndarray
    destination: np.ndarray
    strategies: tuple[NegativeStrategy, ...]
    skipped: int
    no_legal: tuple[int, ...]


@dataclass
class CandidateIndex:
    """Precomputed category pools for sampling against one cutoff.

    Node pools are keyed by (role, category) where role is ``all`` for
    unipartite streams and additionally ``source`` / ``destination`` for
    bipartite ones (whose universes are disjoint); category None holds every
    observed node of the role. Edge pools hold the observed canonical edges
    of each category. The index is immutable after build and safe to share
    across concurrent sampling calls.
    """

    history: History
    t_split: float
    node_pools: dict[tuple[str, TemporalCategory | None], np.ndarray]
    edge_pools: dict[TemporalCategory, np.ndarray]

    def pool_for(self, strategy: NegativeStrategy) -> np.ndarray:
        """The candidate pool a strategy draws from (nodes or edge pairs)."""
        if strategy.replaces == "edge":
            return self.edge_pools[strategy.category]
        role = strategy.replaces if self.history.kind.bipartite else "all"
        return self.node_pools[(role, strategy.category)]


def build_candidate_index(h: History, t_split: float) -> CandidateIndex:
    """Categorize every observed node and edge against ``t_split``."""
    ids, births, deaths = node_lifetime_arrays(h, KeyKind.NODE)
    codes = category_codes(births, deaths, t_split)
    groups = [(None, ids)] + [(cat, ids[codes == code])
                              for code, cat in enumerate(TemporalCategory)]
    node_pools: dict[tuple[str, TemporalCategory | None], np.ndarray] = {}
    for cat, members in groups:
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

    return CandidateIndex(h, t_split, node_pools, edge_pools)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer on a uint64 array, a bijection that spreads every
    input bit. Products wrap silently for arrays (0-d arrays would warn)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _extend(key: np.ndarray, word) -> np.ndarray:
    """Hash of a key array extended by one more word per element."""
    return _mix((key ^ np.asarray(word, dtype=np.uint64)) + np.uint64(0x9E3779B97F4A7C15))


def sample_negatives(
    idx: CandidateIndex,
    strategy: NegativeStrategy,
    events: np.ndarray,
    k: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw k negatives under one strategy for each event at the history
    positions ``events``.

    Returns (n, k) source and destination arrays and an (n,) mask of the
    events whose every draw found a legal negative. A candidate is rejected
    when it reproduces a true event at the positive's timestamp or forms a
    disallowed self-loop, and only rejected draws are redrawn; a draw still
    rejected after ``MAX_ATTEMPTS`` candidates clears its event's mask (the
    event's row then holds rejected candidates).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pool = idx.pool_for(strategy)
    if len(pool) == 0:
        raise EmptyCandidateSetError(
            f"{strategy.value}: no candidate of the required category exists"
        )
    h = idx.history
    events = np.asarray(events, dtype=np.int64)
    if len(events) and (events.min() < 0 or events.max() >= len(h)):
        raise ValueError("event positions must lie in the history")
    row = np.repeat(np.arange(len(events)), k)  # one cell per (event, draw)
    at = events[row]
    strategy_word = int.from_bytes(strategy.value.encode("ascii"), "little")
    key = _mix(np.full(len(row), seed % 2**64, dtype=np.uint64))
    key = _extend(_extend(_extend(key, at), strategy_word), np.tile(np.arange(k), len(events)))
    source, destination, t = h.src[at], h.dst[at], h.t[at]
    todo, attempt = np.arange(len(row)), 0
    while len(todo) and attempt < MAX_ATTEMPTS:
        hashed = _extend(key[todo], attempt)
        # multiply-shift: the hash's top 32 bits scaled to the (< 2**32) pool
        j = (((hashed >> np.uint64(32)) * np.uint64(len(pool))) >> np.uint64(32)).astype(np.int64)
        u, v = source[todo], destination[todo]
        if strategy.replaces == "edge":
            u, v = pool[j, 0], pool[j, 1]
        elif strategy.replaces == "source":
            u = pool[j]
        else:
            v = pool[j]
        rejected = h.occurs(u, v, t[todo])
        if not h.kind.allow_self_loops:
            rejected |= u == v
        source[todo], destination[todo] = u, v
        todo, attempt = todo[rejected], attempt + 1
    ok = np.ones(len(events), dtype=bool)
    ok[row[todo]] = False
    return source.reshape(-1, k), destination.reshape(-1, k), ok


def sample_stream(
    h: History,
    idx: CandidateIndex,
    strategies: Sequence[NegativeStrategy],
    k: int,
    seed: int,
    on_empty: str = "skip",
) -> SampledStream:
    """Draw k negatives per strategy for every event of the stream.

    ``on_empty`` decides what happens to an event for which some strategy
    has no legal negative: ``skip`` drops the event and counts it in one
    summary warning, ``abort`` raises.
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
        # no event can succeed, so fail (or empty out) once
        if on_empty == "abort":
            raise EmptyCandidateSetError(
                f"no candidate of the required category exists for: {barren}"
            )
        logger.warning("strategies with no candidates anywhere (%s): every event "
                       "will be skipped", barren)
    n = len(h)
    source = np.zeros((n, len(strategies), k), dtype=np.int64)
    destination = np.zeros_like(source)
    ok = np.zeros((n, len(strategies)), dtype=bool)
    for j, s in enumerate(strategies):
        if len(idx.pool_for(s)):
            source[:, j], destination[:, j], ok[:, j] = sample_negatives(
                idx, s, np.arange(n), k, seed)
    kept = np.flatnonzero(ok.all(axis=1))
    no_legal = n - ok.sum(axis=0)
    if len(kept) < n and on_empty == "abort":
        i = int(np.argmin(ok.all(axis=1)))
        raise EmptyCandidateSetError(
            f"{strategies[int(np.argmin(ok[i]))].value}: no legal candidate for "
            f"positive ({int(h.src[i])}, {int(h.dst[i])}, {float(h.t[i])}) "
            f"after {MAX_ATTEMPTS} attempts"
        )
    for s, count in zip(strategies, no_legal.tolist()):
        if count:
            logger.debug("%s: no legal negative for %d of %d events", s.value, count, n)
    skipped = n - len(kept)
    if skipped and not barren:
        logger.warning("skipped %d of %d events with no legal negatives", skipped, n)
    return SampledStream(kept, h.t[kept], source[kept], destination[kept],
                         strategies, skipped, tuple(no_legal.tolist()))


def write_negatives_csv(sampled: SampledStream, dest: str | Path | TextIO) -> None:
    """CSV export for replay into external models:
    ``event_ordinal,strategy,source,destination,timestamp``, event by event,
    then strategy by strategy."""
    n_kept, n_strategies, k = sampled.source.shape
    per_event = n_strategies * k
    names = np.repeat(np.array([s.value for s in sampled.strategies], dtype=object), k)
    with _open_for_write(dest) as fh:
        fh.write("event_ordinal,strategy,source,destination,timestamp\n")
        _write_rows(fh, "{},{},{},{},{!r}\n", [
            np.repeat(np.arange(n_kept), per_event), np.tile(names, n_kept),
            sampled.source.ravel(), sampled.destination.ravel(),
            np.repeat(sampled.timestamp, per_event)])
