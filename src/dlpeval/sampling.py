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
from .partition import KeyKind, TemporalCategory, category_codes, lifetimes

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
    """Precomputed candidate pools for sampling against one cutoff.

    ``pools[s]`` holds, sorted, the observed nodes of strategy ``s``'s
    category (every observed node for RND), restricted on a bipartite stream
    to the side it replaces, or for edge strategies the (n, 2) endpoints of
    the observed canonical edges of its category. The index is immutable
    after build and safe to share across concurrent sampling calls.
    """

    history: History
    t_split: float
    pools: dict[NegativeStrategy, np.ndarray]


def build_candidate_index(h: History, t_split: float) -> CandidateIndex:
    """Categorize every observed node and edge against ``t_split``."""
    if h.kind.bipartite and h.num_sources is None:
        raise ValueError("bipartite history lacks its source/destination id boundary")
    nodes, edges = lifetimes(h, KeyKind.NODE), lifetimes(h, KeyKind.EDGE)
    node_codes = category_codes(nodes.births, nodes.deaths, t_split)
    edge_codes = category_codes(edges.births, edges.deaths, t_split)
    pools: dict[NegativeStrategy, np.ndarray] = {}
    for s in NegativeStrategy:
        edge = s.replaces == "edge"
        ids, codes = (edges.ids, edge_codes) if edge else (nodes.ids, node_codes)
        keep = (np.ones(len(ids), dtype=bool) if s.category is None
                else codes == list(TemporalCategory).index(s.category))
        if edge:
            pools[s] = np.column_stack(History.edge_endpoints(ids[keep], h.num_nodes))
            continue
        if h.kind.bipartite:
            keep &= (ids < h.num_sources) == (s.replaces == "source")
        pools[s] = ids[keep]
    return CandidateIndex(h, t_split, pools)


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
    pool = idx.pools[strategy]
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
    idx: CandidateIndex,
    strategies: Sequence[NegativeStrategy],
    k: int,
    seed: int,
    on_empty: str = "skip",
) -> SampledStream:
    """Draw k negatives per strategy for every event of ``idx.history``.

    ``on_empty`` decides what happens to an event for which some strategy
    has no legal negative: ``skip`` drops the event and counts it in one
    summary warning, ``abort`` raises.
    """
    strategies = tuple(strategies)
    if not strategies:
        raise ValueError("at least one negative strategy is required")
    if len(set(strategies)) < len(strategies):
        raise ValueError("repeated strategy in "
                         + ",".join(s.value for s in strategies))
    if k < 1:
        raise ValueError("k must be >= 1")
    if on_empty not in ("skip", "abort"):
        raise ValueError(f"unknown empty-candidate policy {on_empty!r}")
    barren = ", ".join(s.value for s in strategies if len(idx.pools[s]) == 0)
    if barren:
        # no event can succeed, so fail (or empty out) once
        if on_empty == "abort":
            raise EmptyCandidateSetError(
                f"no candidate of the required category exists for: {barren}"
            )
        logger.warning("strategies with no candidates anywhere (%s): every event "
                       "will be skipped", barren)
    h = idx.history
    n = len(h)
    source = np.zeros((n, len(strategies), k), dtype=np.int64)
    destination = np.zeros_like(source)
    ok = np.zeros((n, len(strategies)), dtype=bool)
    for j, s in enumerate(strategies):
        if len(idx.pools[s]):
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
    codes = np.tile(np.repeat(np.arange(n_strategies, dtype=np.int8), k), n_kept)
    names = tuple(s.value for s in sampled.strategies)
    with _open_for_write(dest) as fh:
        fh.write("event_ordinal,strategy,source,destination,timestamp\n")
        _write_rows(fh, "{},{},{},{},{!r}\n", [
            np.repeat(np.arange(n_kept), per_event), (codes, names),
            sampled.source.ravel(), sampled.destination.ravel(),
            np.repeat(sampled.timestamp, per_event)])
