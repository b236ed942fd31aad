"""Memory-based heuristic scorers and the batched score-then-ingest harness.

Both heuristics score a queried event against a grow-only memory of what has
been observed so far: preferential attachment fires when both endpoints are
known, edge memory fires when the exact (canonical) edge is known. The
harness consumes the stream in chronological mini-batches; every positive
and all of its per-strategy negatives are scored against the memory as it
stood *before* the batch, and only then are the batch's positives ingested.
The run covers the whole stream, train and test period alike, so
rank-over-time series span the full timeline.
"""

from __future__ import annotations

import enum
import logging
from typing import Callable, Sequence

import numpy as np

from .core import Event, History
from .errors import EmptyCandidateSetError
from .sampling import (
    CandidateIndex,
    NegativeStrategy,
    build_candidate_index,
    derive_event_seed,
    sample_negatives,
)
from .scorelog import POSITIVE_ROLE, ScoredEventLog

logger = logging.getLogger(__name__)


class ScorerKind(enum.Enum):
    PREFERENTIAL_ATTACHMENT = "pa"
    EDGEBANK = "edgebank"
    EXTERNAL = "external"


class ScorerMemory:
    """Grow-only sets of the nodes and (canonical) edges seen so far."""

    __slots__ = ("seen_nodes", "seen_edges", "_history")

    def __init__(self, h: History):
        self.seen_nodes = np.zeros(h.num_nodes, dtype=bool)
        self.seen_edges: set[int] = set()
        self._history = h

    def ingest_range(self, start: int, stop: int) -> None:
        """Mark the history events [start, stop) as observed."""
        h = self._history
        self.seen_nodes[h.src[start:stop]] = True
        self.seen_nodes[h.dst[start:stop]] = True
        self.seen_edges.update(int(k) for k in h.event_edge_keys()[start:stop])

    def has_node(self, u: int) -> bool:
        return bool(self.seen_nodes[u])

    def has_edge(self, u: int, v: int) -> bool:
        return self._history.edge_key(u, v) in self.seen_edges


def pa_score(e: Event, m: ScorerMemory) -> int:
    """1 iff both endpoints were observed in any earlier event."""
    return int(m.has_node(e.source) and m.has_node(e.destination))


def edgebank_score(e: Event, m: ScorerMemory) -> int:
    """1 iff this exact edge was observed in any earlier event."""
    return int(m.has_edge(e.source, e.destination))


_SCORE_FNS: dict[ScorerKind, Callable[[Event, ScorerMemory], int]] = {
    ScorerKind.PREFERENTIAL_ATTACHMENT: pa_score,
    ScorerKind.EDGEBANK: edgebank_score,
}


def run_streaming_eval(
    h: History,
    t_split: float,
    scorer: ScorerKind,
    strategies: Sequence[NegativeStrategy],
    k_per_strategy: int = 1,
    batch_size: int = 200,
    seed: int = 0,
    on_empty: str = "skip",
    candidate_index: CandidateIndex | None = None,
) -> ScoredEventLog:
    """Score every event and its sampled negatives over the whole stream.

    ``on_empty`` controls what happens when a strategy has no legal
    candidate for an event: ``skip`` drops the event (all roles) and counts
    it in one summary warning, ``abort`` raises. Emitted event ordinals are
    contiguous over the events actually scored; per-event RNG streams are
    derived from the event's position in the history, so the same seed
    reproduces the same negatives regardless of which strategies are
    requested.
    """
    if not strategies:
        raise ValueError("at least one negative strategy is required")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if on_empty not in ("skip", "abort"):
        raise ValueError(f"unknown empty-candidate policy {on_empty!r}")
    score_fn = _SCORE_FNS.get(scorer)
    if score_fn is None:
        raise ValueError(
            f"scorer {scorer.value!r} does not run in this harness; "
            "external scores arrive via score-log files"
        )

    idx = candidate_index or build_candidate_index(h, t_split)
    barren = [s for s in strategies if len(idx.pool_for(s)) == 0]
    if barren:
        # no event can succeed, so fail (or empty out) once instead of
        # warning per event
        names = ", ".join(s.value for s in barren)
        if on_empty == "abort":
            raise EmptyCandidateSetError(
                f"no candidate of the required category exists for: {names}"
            )
        logger.warning(
            "strategies with no candidates anywhere (%s): every event "
            "will be skipped", names,
        )
        return ScoredEventLog.from_records([], tuple(s.value for s in strategies))

    memory = ScorerMemory(h)
    records = []
    emitted = 0
    skipped = 0
    n = len(h)
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        batch_no = start // batch_size
        for i in range(start, stop):
            pos = h.event(i)
            event_seed = derive_event_seed(seed, i)
            try:
                batches = [
                    sample_negatives(pos, s, k_per_strategy, idx, event_seed)
                    for s in strategies
                ]
            except EmptyCandidateSetError as exc:
                if on_empty == "abort":
                    raise
                skipped += 1
                logger.debug("skipping event %d: %s", i, exc)
                continue
            records.append(
                (emitted, batch_no, POSITIVE_ROLE,
                 pos.source, pos.destination, pos.t, score_fn(pos, memory))
            )
            for nb in batches:
                role = nb.strategy.value
                for neg in nb.negatives:
                    records.append(
                        (emitted, batch_no, role,
                         neg.source, neg.destination, neg.t, score_fn(neg, memory))
                    )
            emitted += 1
        memory.ingest_range(start, stop)
        if batch_no % 50 == 0:
            logger.debug("scored batch %d (%d/%d events)", batch_no, stop, n)
    if skipped:
        logger.warning("skipped %d of %d events with no legal negatives", skipped, n)
    return ScoredEventLog.from_records(
        records, tuple(s.value for s in strategies)
    )
