"""Heuristic scorers and the batched score-then-ingest harness.

Both heuristics are pure functions of the stream: a record is scored against
the events that come before its batch. Preferential attachment fires when
both endpoints occur in such an event, edge memory (EdgeBank) when the exact
(canonical) edge does; both read first event positions from
``core.first_last``. The harness consumes the stream in chronological
mini-batches, so every positive and all of its per-strategy negatives see
the stream as it stood *before* the batch. The run covers the whole stream,
train and test period alike, so rank-over-time series span the full
timeline."""

from __future__ import annotations

import enum
import numpy as np

from .core import History, first_last
from .sampling import SampledStream
from .scorelog import ScoredEventLog


class ScorerKind(enum.Enum):
    PREFERENTIAL_ATTACHMENT = "pa"
    EDGEBANK = "edgebank"


def heuristic_scores(
    h: History,
    scorer: ScorerKind,
    u: np.ndarray,
    v: np.ndarray,
    before: np.ndarray,
) -> np.ndarray:
    """Score of each record (u[r], v[r]) against the events [0, before[r]),
    ``before`` broadcast against the records.

    EdgeBank scores 1 iff the record's canonical edge is first seen among
    those events, preferential attachment iff both of its endpoints are;
    every other record, one with an id outside the stream included, scores
    0."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    edge = h.find_edges(u, v) if scorer is ScorerKind.EDGEBANK else None
    return _scores(h, scorer, u, v, edge, before)


def _scores(h: History, scorer: ScorerKind, u, v, edge, before) -> np.ndarray:
    """``heuristic_scores`` of records whose indices into ``h.edges()`` (-1
    for none) EdgeBank reads from ``edge``."""
    if len(h) == 0:
        return np.zeros(len(u))
    if scorer is ScorerKind.EDGEBANK:
        first = first_last(h.edges()[1], len(h.edges()[0]))[0]
        seen = (edge >= 0) & (first[edge] < before)
    else:
        first = first_last(np.column_stack([h.src, h.dst]).ravel(), h.num_nodes, 2)[0]
        in_range = (np.minimum(u, v) >= 0) & (np.maximum(u, v) < h.num_nodes)
        seen_at = np.maximum(first[np.where(in_range, u, 0)], first[np.where(in_range, v, 0)])
        seen = in_range & (seen_at < np.minimum(before, len(h)))  # len(h): never seen
    return seen.astype(np.float64)


def run_streaming_eval(
    h: History,
    scorer: ScorerKind,
    sampled: SampledStream,
    batch_size: int = 200,
) -> ScoredEventLog:
    """Score every event kept by ``sampled`` (drawn by ``sample_stream`` for
    ``h``) and its negatives.

    Emitted event ordinals are contiguous over the events actually scored;
    batches are fixed windows of ``batch_size`` history positions. Each
    record's edge index comes from the draw, so EdgeBank searches nothing.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n_kept, n_strategies, k = sampled.source.shape
    # (u, v) pairs per event: the positive, then k negatives per strategy
    positives = np.column_stack([h.src, h.dst])[sampled.events, None]
    negatives = np.stack([sampled.source, sampled.destination], axis=-1)
    pairs = np.concatenate([positives, negatives.reshape(n_kept, n_strategies * k, 2)], 1)
    source, destination = pairs.reshape(-1, 2).T
    edge = np.concatenate([h.edges()[1][sampled.events, None],
                           sampled.edge.reshape(n_kept, n_strategies * k)], 1).ravel()
    # each event's role codes: the positive's (0), then k of each strategy's
    roles = np.repeat(np.arange(1 + n_strategies, dtype=np.int8), [1] + [k] * n_strategies)
    batch = np.repeat(sampled.events // batch_size, len(roles))
    return ScoredEventLog(
        event_ordinal=np.repeat(np.arange(n_kept, dtype=np.int64), len(roles)),
        batch=batch,
        role=np.tile(roles, n_kept),
        source=source,
        destination=destination,
        timestamp=np.repeat(sampled.timestamp, len(roles)),
        score=_scores(h, scorer, source, destination, edge, batch * batch_size),
        strategies=tuple(s.value for s in sampled.strategies),
    )
