"""Run one dlpeval CLI command with spans around the public layer functions.

Usage: python trace_child.py SPANS_JSON -- CLI_ARGS...

Each function in ``LAYERS`` is replaced, in every dlpeval module that binds
it, by a wrapper that records a span (name, parent span, start, end) and
the counters of ``COUNTERS``. Spans stay in memory and are summed into
``SPANS_JSON`` when the command ends: per function the inclusive time, the
self time (minus child spans) and the call count, plus the time covered by
top-level spans, which the benchmark subtracts from the command's wall time
to get the CLI's own share. A function that a later version of dlpeval no
longer has is skipped.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "core": ("ingest_csv",),
    "partition": ("compute_cutoff", "lifetimes", "partition_report",
                  "surprise_sweep", "edge_lifetime_arrays"),
    "sampling": ("build_candidate_index", "sample_negatives", "derive_event_seed",
                 "write_negatives_csv"),
    "scorers": ("run_streaming_eval",),
    "scorelog": ("write_score_log", "read_score_log"),
    "metrics": ("mean_auc_over_batches", "mar_time_series", "write_auc_csv",
                "write_mar_csv"),
    "diagrams": ("bd_diagram", "surprise_curve", "mar_plot"),
}


def _size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _lifetime_keys(mapping) -> int:
    if hasattr(mapping, "keys"):
        return len(mapping)
    return sum(len(m) for _, m in mapping)  # faceted panels


# name -> function(args, kwargs, result) -> {counter: increment}
COUNTERS = {
    "core.ingest_csv": lambda a, k, r: {"core.ingest_csv.rows": len(r)},
    "partition.lifetimes": lambda a, k, r: {"partition.lifetimes.keys": len(r)},
    "sampling.write_negatives_csv": lambda a, k, r: {
        "sampling.negatives_csv.bytes": _size(a[1] if len(a) > 1 else k["dest"])},
    "scorers.run_streaming_eval": lambda a, k, r: {
        "scorers.records": len(r),
        "scorers.events_skipped": len(_first(a, k, "h")) - len(np.unique(r.event_ordinal)),
    },
    "scorelog.write_score_log": lambda a, k, r: {
        "scorelog.write.bytes": _size(a[2] if len(a) > 2 else k["dest"]),
        "scorelog.records": len(_first(a, k, "log")),
    },
    "scorelog.read_score_log": lambda a, k, r: {
        "scorelog.read.bytes": _size(_first(a, k, "source")),
        "scorelog.records": len(r[0]),
    },
    "metrics.mean_auc_over_batches": lambda a, k, r: {
        "metrics.auc_batches": len(r.entries)},
    "metrics.mar_time_series": lambda a, k, r: {
        "metrics.mar_groups": len(np.unique(_first(a, k, "log").event_ordinal))},
    "diagrams.bd_diagram": lambda a, k, r: {
        "diagrams.bd_diagram.keys": _lifetime_keys(_first(a, k, "lifetimes")),
        "diagrams.svg.bytes": _size(r[0]), "diagrams.csv.bytes": _size(r[1]),
    },
    "diagrams.surprise_curve": lambda a, k, r: {"diagrams.svg.bytes": _size(r)},
    "diagrams.mar_plot": lambda a, k, r: {"diagrams.svg.bytes": _size(r)},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        self.hook_errors = 0

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] = self.raised.get(name, 0) + 1
                raise
            finally:
                self.end[span] = clock()
                self.stack.pop()
            if hook is not None:
                try:
                    for key, inc in hook(args, kwargs, result).items():
                        self.counts[key] = self.counts.get(key, 0) + int(inc)
                except Exception as exc:  # a counter must not break the command
                    self.hook_errors += 1
                    print(f"trace: counter for {name} failed: {exc!r}", file=sys.stderr)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        spans = {}
        for i, name in enumerate(self.names):
            sel = ids == i
            spans[name] = {"s": float(dur[sel].sum()), "self_s": float(self_time[sel].sum()),
                           "calls": int(sel.sum()), "raised": self.raised.get(name, 0)}
        return {"spans": spans, "counts": self.counts,
                "top_level_s": float(dur[~nested].sum()), "hook_errors": self.hook_errors}


def install(tracer: Tracer) -> None:
    """Wrap each layer function wherever a dlpeval module binds it."""
    importlib.import_module("dlpeval.cli")  # imports every layer
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "dlpeval" or n.startswith("dlpeval."))]
    for layer, names in LAYERS.items():
        mod = sys.modules.get(f"dlpeval.{layer}")
        for fname in names:
            original = getattr(mod, fname, None)
            if original is None:
                continue
            wrapper = tracer.wrap(f"{layer}.{fname}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def main(argv: list[str]) -> int:
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_JSON -- CLI_ARGS...")
    tracer = Tracer()
    install(tracer)
    import dlpeval.cli

    try:
        code = dlpeval.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
