"""Ranking metrics: tie-aware AUC per batch, fractional ranks and
mean-average-rank time series.

AUC uses the rank-statistic estimator (tied pairs get half credit), which
matches exhaustive pair counting exactly and stays meaningful for binary
scorers where ties are pervasive. Ranks within one event's comparison group
(its positive plus all sampled negatives) are fractional: rank 1 is the
highest score and ties receive the average of the positions they occupy.

One kernel ranks all groups at once, by one stable sort of complex keys
(group, score). A batch's AUC is the rank-sum (Mann-Whitney) statistic of
its positives' ranks (Hanley and McNeil, 1982); MAR sums ranks per (role,
time bin). Ranks are half-integers, so every such sum is exact in float64
whatever its order. A NaN score has no place in that sort among many
groups, so ``mean_auc_over_batches`` and ``mar_time_series`` refuse it;
``fractional_ranks`` and ``batch_auc`` rank one group and rank a NaN above
every score.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .core import _open_for_write, _write_rows
from .scorelog import POSITIVE_CODE, ScoredEventLog


def _descending_ranks(scores: np.ndarray, group: np.ndarray) -> np.ndarray:
    """1-based fractional ranks within each group: rank 1 for the group's
    highest score, ties averaged over the positions they occupy.

    One stable sort of complex keys, the group as the real part and the
    score as the imaginary part, orders by group and then by score. Group
    ids must be below 2**53, where float64 holds them exactly. numpy sorts a
    NaN imaginary part after every other key, so a NaN score is ranked in
    its group only when there is one group."""
    key = np.empty(len(scores), dtype=np.complex128)
    key.real, key.imag = group, scores
    order = np.argsort(key, kind="stable")
    del key
    s, g = scores[order], group[order]
    new_group = np.ones(len(s), dtype=bool)
    new_group[1:] = g[1:] != g[:-1]
    new_run = new_group.copy()
    new_run[1:] |= s[1:] != s[:-1]
    run_start = np.flatnonzero(new_run)
    run_end = np.append(run_start[1:], len(s))
    group_end = np.append(np.flatnonzero(new_group)[1:], len(s))
    run_group_end = group_end[np.cumsum(new_group)[run_start] - 1]
    # a run at 0-based sorted positions [start, end) of a group ending at
    # group_end holds descending ranks group_end - end + 1 .. group_end - start
    run_rank = run_group_end - (run_start + run_end - 1) / 2.0
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(run_rank, run_end - run_start)
    return ranks


def _check_no_nan(scores: np.ndarray) -> None:
    """Raise ValueError on a NaN score, which has no rank among many groups."""
    if np.isnan(scores).any():
        raise ValueError("NaN score present: scores must be ordered to be ranked")


def fractional_ranks(scores: Sequence[float]) -> np.ndarray:
    """Descending fractional ranks: rank 1 for the highest score, ties averaged."""
    scores = np.asarray(scores, dtype=np.float64)
    return _descending_ranks(scores, np.zeros(len(scores), dtype=np.int64))


def _rank_sum_auc(n_pos, n_neg, pos_rank_sum):
    """AUC from the positives' descending ranks among all ``n_pos + n_neg``
    scores: their ascending ranks sum to ``n_pos * (n + 1) - pos_rank_sum``.
    Ranks are half-integers, so every term is exact in float64."""
    u = n_pos * (n_pos + n_neg + 1.0) - pos_rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def batch_auc(positive_scores: Sequence[float], negative_scores: Sequence[float]) -> float:
    """Rank-statistic ROC AUC with half credit for tied pairs.

    Equals (#{(p, n): p > n} + 0.5 * #{p = n}) / (|P| * |N|).
    """
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("AUC is undefined when either class is empty")
    ranks = fractional_ranks(np.concatenate([pos, neg]))
    return float(_rank_sum_auc(len(pos), len(neg), ranks[: len(pos)].sum()))


@dataclass(frozen=True)
class BatchAUCReport:
    """Per-batch AUCs of one strategy in one period, as aligned columns:
    ``batch`` ordinals ascending, their first and last timestamps and AUC."""

    strategy: str
    batch: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray
    auc: np.ndarray
    mean_auc: float
    skipped_batches: int

    @property
    def entries(self) -> np.ndarray:
        """The batch ordinals with an AUC (``benchmark/trace_child.py``
        counts them as ``len(report.entries)``)."""
        return self.batch


def mean_auc_over_batches(
    log: ScoredEventLog,
    strategy: str,
    period: str = "test",
    t_split: float | None = None,
) -> BatchAUCReport:
    """Unweighted mean of per-batch AUCs for one strategy.

    ``period`` restricts records by timestamp: test keeps t >= t_split,
    train keeps t < t_split, all keeps everything. Batches lacking either
    class inside the period are excluded and counted as skipped. A NaN
    score among the records kept raises ValueError.
    """
    is_neg = log.role == (log.names.index(strategy) if strategy in log.strategies else -1)
    if not is_neg.any():
        raise ValueError(f"strategy {strategy!r} not present in log")
    if period not in ("train", "test", "all"):
        raise ValueError(f"unknown period {period!r}")
    keep = (log.role == POSITIVE_CODE) | is_neg
    if period != "all":
        if t_split is None:
            raise ValueError(f"period {period!r} requires t_split")
        in_period = log.timestamp >= t_split if period == "test" else log.timestamp < t_split
        keep &= in_period
    sub = log.mask(keep)
    _check_no_nan(sub.score)

    batches, inverse = np.unique(sub.batch, return_inverse=True)
    n = len(batches)
    is_pos = sub.role == POSITIVE_CODE
    n_pos = np.bincount(inverse, weights=is_pos, minlength=n)
    n_neg = np.bincount(inverse, minlength=n) - n_pos
    ranks = _descending_ranks(sub.score, inverse)
    pos_rank_sum = np.bincount(inverse[is_pos], weights=ranks[is_pos], minlength=n)
    t_start = np.full(n, np.inf)
    t_end = np.full(n, -np.inf)
    np.minimum.at(t_start, inverse, sub.timestamp)
    np.maximum.at(t_end, inverse, sub.timestamp)
    usable = (n_pos > 0) & (n_neg > 0)
    if not usable.any():
        raise ValueError(
            f"no batch in period {period!r} has both positives and "
            f"{strategy} negatives"
        )
    auc = _rank_sum_auc(n_pos[usable], n_neg[usable], pos_rank_sum[usable])
    return BatchAUCReport(strategy, batches[usable], t_start[usable],
                          t_end[usable], auc, float(np.mean(auc)), int(n - usable.sum()))


@dataclass(frozen=True)
class MARSeries:
    """Per-role mean fractional rank over equal-width time bins.

    ``mar`` is (roles x bins) with NaN marking bins that saw no event;
    ``counts`` holds the number of rank contributions per cell.
    """

    bin_edges: np.ndarray
    roles: tuple[str, ...]
    mar: np.ndarray
    counts: np.ndarray

    @property
    def bins(self) -> int:
        return len(self.bin_edges) - 1


def mar_time_series(log: ScoredEventLog, bins: int = 50) -> MARSeries:
    """Mean average rank per role per time bin over the log's time span.

    Bins are equal-width over [first event, last event], closed on the
    left, with the last bin closed on both ends: a record on an edge counts
    in the bin that starts there. Every record of one event
    shares the event's timestamp and therefore its bin. A NaN score raises
    ValueError.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if len(log) == 0:
        raise ValueError("cannot bin an empty log")
    _check_no_nan(log.score)
    roles = log.names

    t0, t1 = float(log.timestamp.min()), float(log.timestamp.max())
    edges = np.linspace(t0, t1, bins + 1)

    ranks = _descending_ranks(log.score, log.event_ordinal)
    # as np.histogram bins: a record on an interior edge counts in the bin
    # that starts there; a single timestamp puts every record in bin 0
    b = np.searchsorted(edges[1:-1] if t1 > t0 else edges[:0], log.timestamp, side="right")
    cell = log.role.astype(np.int64) * bins + b
    size = len(roles) * bins
    sums = np.bincount(cell, weights=ranks, minlength=size).reshape(len(roles), bins)
    counts = np.bincount(cell, minlength=size).reshape(len(roles), bins)

    with np.errstate(invalid="ignore"):
        mar = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return MARSeries(edges, roles, mar, counts)


def write_auc_csv(reports: Iterable[BatchAUCReport], dest: str | Path | TextIO) -> None:
    """CSV export: ``strategy,batch,t_start,t_end,auc``."""
    with _open_for_write(dest) as fh:
        fh.write("strategy,batch,t_start,t_end,auc\n")
        for r in reports:
            _write_rows(fh, "{},{},{!r},{!r},{!r}\n", [
                (np.zeros(len(r.batch), dtype=np.int8), (r.strategy,)),
                r.batch, r.t_start, r.t_end, r.auc])


def write_mar_csv(series: MARSeries, dest: str | Path | TextIO) -> None:
    """CSV export: ``bin,t_start,t_end,role,mar,count``, bin by bin, with an
    empty ``mar`` where a cell has no count."""
    n_roles = len(series.roles)
    mar = series.mar.T.ravel().astype(object)
    count = series.counts.T.ravel()
    mar[count == 0] = ""  # "{}" prints the other cells' floats as their repr
    with _open_for_write(dest) as fh:
        fh.write("bin,t_start,t_end,role,mar,count\n")
        _write_rows(fh, "{},{!r},{!r},{},{},{}\n", [
            np.repeat(np.arange(series.bins), n_roles),
            np.repeat(series.bin_edges[:-1], n_roles), np.repeat(series.bin_edges[1:], n_roles),
            (np.tile(np.arange(n_roles), series.bins), series.roles), mar, count])
