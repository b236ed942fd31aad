"""Heuristic scorers and the batched score-then-ingest harness.

Both heuristics are pure functions of the stream: a record is scored against
the events that come before its batch. Preferential attachment fires when
both endpoints occur in such an event, edge memory (EdgeBank) when the exact
(canonical) edge does. The harness consumes the stream in chronological
mini-batches, so every positive and all of its per-strategy negatives see
the stream as it stood *before* the batch. The run covers the whole stream,
train and test period alike, so rank-over-time series span the full
timeline.
"""

from __future__ import annotations

import enum
import numpy as np

from .core import History
from .sampling import SampledStream
from .scorelog import ScoredEventLog


class ScorerKind(enum.Enum):
    PREFERENTIAL_ATTACHMENT = "pa"
    EDGEBANK = "edgebank"


def _first_event(keys: np.ndarray, per_event: int, query: np.ndarray) -> np.ndarray:
    """Index of the first event whose ``per_event`` consecutive entries of
    ``keys`` include each query key; the event count when none does."""
    n = len(keys) // per_event
    uniq, first = np.unique(keys, return_index=True)
    if len(uniq) == 0:
        return np.full(len(query), n, dtype=np.int64)
    at = np.minimum(np.searchsorted(uniq, query), len(uniq) - 1)
    return np.where(uniq[at] == query, first[at] // per_event, n)


def heuristic_scores(
    h: History,
    scorer: ScorerKind,
    u: np.ndarray,
    v: np.ndarray,
    before: np.ndarray,
) -> np.ndarray:
    """Score of each record (u[r], v[r]) against the events [0, before[r]).

    EdgeBank scores 1 iff the record's canonical edge occurs among those
    events, preferential attachment iff both of its endpoints do; every
    other record scores 0.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if scorer is ScorerKind.EDGEBANK:
        seen_at = _first_event(h.event_edge_keys(), 1, h.edge_keys(u, v))
    else:
        endpoints = np.column_stack([h.src, h.dst]).ravel()  # event i: 2i, 2i+1
        seen_at = _first_event(endpoints, 2, np.concatenate([u, v]))
        seen_at = seen_at.reshape(2, -1).max(axis=0)
    return (seen_at < before).astype(np.float64)


def run_streaming_eval(
    h: History,
    scorer: ScorerKind,
    sampled: SampledStream,
    batch_size: int = 200,
) -> ScoredEventLog:
    """Score every event kept by ``sampled`` (drawn by ``sample_stream`` for
    ``h``) and its negatives.

    Emitted event ordinals are contiguous over the events actually scored;
    batches are fixed windows of ``batch_size`` history positions.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n_kept, n_strategies, k = sampled.source.shape
    # (u, v) pairs per event: the positive, then k negatives per strategy
    positives = np.column_stack([h.src, h.dst])[sampled.events, None]
    negatives = np.stack([sampled.source, sampled.destination], axis=-1)
    pairs = np.concatenate([positives, negatives.reshape(n_kept, n_strategies * k, 2)], 1)
    source, destination = pairs.reshape(-1, 2).T
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
        score=heuristic_scores(h, scorer, source, destination, batch * batch_size),
        strategies=tuple(s.value for s in sampled.strategies),
    )
