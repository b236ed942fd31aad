"""Evaluation toolkit for dynamic link prediction on continuous-time
interaction streams: time-based splitting, lifetime categorization and
surprise indices, category-targeted negative sampling, heuristic baselines,
batched tie-aware AUC, rank-over-time series and diagram emission."""

__version__ = "0.1.0"

from .core import Event, GraphKind, History, ingest_csv
from .errors import (
    DegenerateSplitError,
    DlpEvalError,
    EmptyCandidateSetError,
    IngestError,
    ScoreLogError,
)
from .metrics import (
    ConfusionMatrix,
    MARSeries,
    batch_auc,
    confusion_at_threshold,
    fractional_ranks,
    mar_time_series,
    mean_auc_over_batches,
    rank_within_group,
)
from .partition import (
    CategoryCounts,
    KeyKind,
    Lifetime,
    LifetimeTable,
    PartitionReport,
    TemporalCategory,
    categorize,
    compute_cutoff,
    lifetimes,
    partition_report,
    split,
    surprise_sweep,
)
from .sampling import (
    CandidateIndex,
    NegativeStrategy,
    build_candidate_index,
    sample_negatives,
    sample_stream,
)
from .scorelog import (
    ScoredEventLog,
    ScoreLogMeta,
    read_score_log,
    write_score_log,
)
from .scorers import (
    ScorerKind,
    heuristic_scores,
    run_streaming_eval,
)

__all__ = [
    "Event", "GraphKind", "History", "ingest_csv",
    "DlpEvalError", "IngestError", "DegenerateSplitError",
    "EmptyCandidateSetError", "ScoreLogError",
    "TemporalCategory", "KeyKind", "Lifetime", "LifetimeTable", "CategoryCounts",
    "PartitionReport", "compute_cutoff", "split", "categorize", "lifetimes",
    "partition_report", "surprise_sweep",
    "NegativeStrategy", "CandidateIndex",
    "build_candidate_index", "sample_negatives", "sample_stream",
    "ScorerKind", "heuristic_scores", "run_streaming_eval",
    "ConfusionMatrix", "MARSeries", "batch_auc", "confusion_at_threshold",
    "fractional_ranks", "rank_within_group", "mar_time_series",
    "mean_auc_over_batches",
    "ScoredEventLog", "ScoreLogMeta", "read_score_log", "write_score_log",
]
