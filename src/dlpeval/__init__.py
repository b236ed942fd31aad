"""Evaluation toolkit for dynamic link prediction on continuous-time
interaction streams: time-based splitting, lifetime categorization and
surprise indices, category-targeted negative sampling, heuristic baselines,
batched tie-aware AUC, rank-over-time series and diagram emission.

``import dlpeval`` loads no submodule: the first use of an exported name
imports the submodule that defines it (PEP 562), so a caller that only
ingests never loads the sampling, scoring or metrics code. ``__all__`` is
the one list of exported names."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("GraphKind", "History", "ingest_csv"),
    "errors": ("DlpEvalError", "IngestError", "DegenerateSplitError",
               "EmptyCandidateSetError", "ScoreLogError"),
    "partition": ("TemporalCategory", "KeyKind", "LifetimeTable", "CategoryCounts",
                  "PartitionReport", "compute_cutoff", "split", "lifetimes",
                  "partition_report", "surprise_sweep"),
    "sampling": ("NegativeStrategy", "CandidateIndex", "build_candidate_index",
                 "sample_negatives", "sample_stream"),
    "scorers": ("ScorerKind", "heuristic_scores", "run_streaming_eval"),
    "metrics": ("MARSeries", "batch_auc", "fractional_ranks", "mar_time_series",
                "mean_auc_over_batches"),
    "scorelog": ("ScoredEventLog", "ScoreLogMeta", "read_score_log", "write_score_log"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
