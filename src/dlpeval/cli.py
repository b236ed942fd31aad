"""Command-line pipeline: ingest -> split -> sample -> score -> metrics -> plots.

Every run writes a manifest with the fully resolved configuration so outputs
can be reproduced byte-identically: each subcommand returns the values it
resolved and the outputs it wrote, and ``main`` records them with every
parsed option. Exit codes: 0 success, 1 evaluation
policy failure (e.g. empty candidate sets under the abort policy), 2 input
or configuration error.

The only environment variable honored is ``DLPEVAL_OUT``, which overrides
the default output directory.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import logging
import math
import os
import sys
from dataclasses import asdict
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from ._fork import forked_in_order
from .core import GraphKind, History, _open_for_write, _table_columns, _write_rows, ingest_csv
from .errors import DlpEvalError, EmptyCandidateSetError, ScoreLogError
from .metrics import (
    mar_time_series,
    mean_auc_over_batches,
    write_auc_csv,
    write_mar_csv,
)
from .partition import (
    KeyKind,
    check_ratio,
    compute_cutoff,
    lifetimes,
    partition_report,
    split,
    surprise_sweep,
    write_partition_csv,
    write_sweep_csv,
)
from .sampling import (
    NegativeStrategy,
    SampledStream,
    build_candidate_index,
    sample_stream,
    write_negatives_csv,
)
from .scorelog import (
    ScoredEventLog,
    ScoreLogMeta,
    check_positives,
    read_score_log,
    write_score_log,
)
from .scorers import ScorerKind, run_streaming_eval
# after the layers whose results it draws, so that modules load in dependency order
from .diagrams import bd_diagram, mar_plot, surprise_curve

logger = logging.getLogger("dlpeval")

EXIT_OK = 0
EXIT_EVAL_FAILURE = 1
EXIT_INPUT_ERROR = 2

DEFAULT_TEST_RATIO = 0.15
DEFAULT_BATCH_SIZE = 200
DEFAULT_K = 1
DEFAULT_BINS = 50
DEFAULT_STRATEGIES = "HE,OE,IE"


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", help="interaction CSV (header + data rows)")
    p.add_argument("--schema", choices=("minimal", "jodie"), default="minimal",
                   help="input column layout (default: minimal)")
    p.add_argument("--undirected", action="store_true",
                   help="treat edges as unordered pairs")
    p.add_argument("--bipartite", action="store_true",
                   help="sources and destinations are disjoint universes")
    p.add_argument("--allow-self-loops", action="store_true",
                   help="accept events whose endpoints coincide")


def _add_cutoff_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--test-ratio", type=float, default=DEFAULT_TEST_RATIO,
                   help=f"share of events in the test set (default {DEFAULT_TEST_RATIO})")
    p.add_argument("--t-split", type=float, default=None,
                   help="explicit cutoff timestamp (overrides --test-ratio)")


def _add_out_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None,
                   help="output directory (default dlpeval-out; "
                        "DLPEVAL_OUT environment variable overrides the default)")


def _add_sampling_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategies", default=DEFAULT_STRATEGIES,
                   help=f"comma-separated strategy names (default {DEFAULT_STRATEGIES})")
    p.add_argument("--k", type=int, default=DEFAULT_K,
                   help=f"negatives per strategy per event (default {DEFAULT_K})")
    p.add_argument("--seed", type=int, default=0,
                   help="run seed; all randomness derives from it (default 0)")
    p.add_argument("--on-empty", choices=("skip", "abort"), default="skip",
                   help="policy when a strategy has no legal candidate (default skip)")


def _graph_kind(args) -> GraphKind:
    return GraphKind(
        directed=not args.undirected or args.bipartite,
        bipartite=args.bipartite,
        allow_self_loops=args.allow_self_loops,
    )


def _load_history(args) -> History:
    return ingest_csv(args.dataset, schema=args.schema, kind=_graph_kind(args))


def _resolve_cutoff(args, h: History) -> float:
    if args.t_split is not None:
        return args.t_split
    return compute_cutoff(h, args.test_ratio)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("DLPEVAL_OUT") or "dlpeval-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_strategies(text: str, kind: GraphKind) -> list[NegativeStrategy]:
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise ValueError("no strategies given")
    out = []
    for name in names:
        try:
            out.append(NegativeStrategy(name.upper()))
        except ValueError:
            valid = ",".join(s.value for s in NegativeStrategy)
            raise ValueError(f"unknown strategy {name!r} (valid: {valid})") from None
    if kind.bipartite and any(s.replaces == "source" for s in out):
        logger.warning(
            "source-replacement strategies on a bipartite stream swap the "
            "user side; make sure that is intended"
        )
    return out


def _check_numbers(args) -> None:
    """Reject a non-finite ``--t-split``, a count option below 1, fewer
    than two ``--ratios`` and a ratio outside (0, 1) before the command
    reads its input."""
    t_split = getattr(args, "t_split", None)
    if t_split is not None and not math.isfinite(t_split):
        raise ValueError(f"--t-split must be finite, got {t_split}")
    for name in ("bins", "k", "batch_size"):
        if getattr(args, name, 1) < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 1, "
                             f"got {getattr(args, name)}")
    if getattr(args, "ratios", None) is not None:
        if len(_ratios(args.ratios)) < 2:
            raise ValueError(f"--ratios needs at least 2 ratios, got {args.ratios!r}")
        for ratio in _ratios(args.ratios):
            check_ratio(ratio, "--ratios")
    for name in ("test_ratio", "mark_ratio"):
        if hasattr(args, name):
            check_ratio(getattr(args, name), f"--{name.replace('_', '-')}")


def _ratios(text: str) -> list[float]:
    """The test ratios of a comma-separated ``--ratios`` option."""
    return [float(r) for r in text.split(",") if r.strip()]


def _write_manifest(args, resolved: dict, outputs: list[str],
                    run: dict | None = None) -> None:
    """``manifest.json``: every parsed option, the stream's ``GraphKind`` in
    place of ``--undirected``, overlaid by what the command ``resolved``."""
    config = {name: value for name, value in vars(args).items()
              if name not in ("command", "func", "verbose", "out")}
    if "undirected" in config:
        del config["undirected"]
        config |= asdict(_graph_kind(args))
    manifest = {
        "tool": "dlpeval",
        "version": __version__,
        "command": args.command,
        "config": config | resolved,
        "outputs": sorted(outputs),
    }
    if run is not None:
        manifest["run"] = run
    with open(_out_dir(args) / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sample(args, h: History, t_split: float, strategies) -> tuple[SampledStream, dict]:
    """Negatives for every event, and the ``run`` section that explains
    them: every event of the stream is either scored or skipped for lack of
    a legal negative, and per strategy its candidate pool size and the
    events for which it had no legal negative."""
    idx = build_candidate_index(h, t_split)
    sampled = sample_stream(idx, strategies, args.k, args.seed, args.on_empty)
    run = {
        "events": len(h), "events_scored": len(sampled.events),
        "events_skipped": sampled.skipped,
        "strategies": {
            s.value: {"pool_size": len(idx.pools[s]), "events_no_legal_negative": n}
            for s, n in zip(sampled.strategies, sampled.no_legal)
        },
    }
    return sampled, run


def _surprise_text(s: float | None) -> str:
    return "undefined" if s is None else f"{s:.3f}"


# -- subcommands: each returns (resolved, outputs) or (resolved, outputs, run)


def cmd_stats(args):
    h = _load_history(args)
    t_split = _resolve_cutoff(args, h)
    kinds = [KeyKind.NODE, KeyKind.EDGE]
    if args.roles:
        kinds += [KeyKind.SOURCE_NODE, KeyKind.DESTINATION_NODE]
    report = partition_report(h, t_split, kinds)
    out = _out_dir(args)
    write_partition_csv(report, out / "partition.csv")
    name = Path(args.dataset).stem
    print(f"dataset={name} events={len(h)} t_split={t_split!r}")
    print(f"{'kind':24s} {'total':>8s} {'historical':>11s} {'overlap':>8s} "
          f"{'inductive':>10s} {'surprise':>9s}")
    for kind, c in report.counts.items():
        print(f"{kind.value:24s} {c.total:>8d} {c.historical:>11d} {c.overlap:>8d} "
              f"{c.inductive:>10d} {_surprise_text(c.surprise):>9s}")
    return {"t_split": t_split}, ["partition.csv"]


def cmd_split(args):
    h = _load_history(args)
    t_split = _resolve_cutoff(args, h)
    train, test = split(h, t_split)
    out = _out_dir(args)
    train.export_csv(out / "train.csv")
    test.export_csv(out / "test.csv")
    h.export_label_map(out / "labels.csv")
    print(f"t_split={t_split!r} train={len(train)} test={len(test)}")
    return {"t_split": t_split}, ["train.csv", "test.csv", "labels.csv"]


def cmd_bd(args):
    keys = [k.strip() for k in args.keys.split(",") if k.strip()]
    if not keys and not args.facet_roles:
        raise ValueError("no key kinds given")
    for key in keys:  # every key kind checked before the dataset is read
        if key not in ("node", "edge"):
            raise ValueError(f"unknown key kind {key!r} (use node,edge)")
        if keys.count(key) > 1:
            raise ValueError(f"repeated key kind {key!r}")
    h = _load_history(args)
    t_split = _resolve_cutoff(args, h)
    name = Path(args.dataset).stem
    # (file stem, panels)
    diagrams = [(f"bd_{key}", [(f"{name} {key}s", KeyKind(key))]) for key in keys]
    if args.facet_roles:
        diagrams.append(("bd_node_roles", [("source", KeyKind.SOURCE_NODE),
                                           ("destination", KeyKind.DESTINATION_NODE)]))
    # every panel's table is built before the first diagram is drawn, so a
    # key kind the stream cannot have writes nothing
    diagrams = [(stem, [(title, lifetimes(h, kind)) for title, kind in panels])
                for stem, panels in diagrams]
    out = _out_dir(args)
    outputs = []
    for stem, panels in diagrams:
        svg, csv_ = bd_diagram(
            panels, t_split, out / f"{stem}.svg", out / f"{stem}.csv", seed=args.seed,
        )
        outputs += [svg.name, csv_.name]
        print(f"wrote {svg} and {csv_}")
    return {"t_split": t_split, "keys": keys}, outputs


def cmd_sweep(args):
    ratios = _ratios(args.ratios)
    if all(abs(r - args.mark_ratio) > 1e-9 for r in ratios):
        logger.warning("--mark-ratio %g is none of the --ratios; the curve "
                       "marks no point", args.mark_ratio)
    h = _load_history(args)
    points = surprise_sweep(h, ratios)
    out = _out_dir(args)
    name = Path(args.dataset).stem
    write_sweep_csv(points, out / "sweep.csv")
    svg = surprise_curve({name: points}, out / "surprise_curve.svg",
                         mark_ratio=args.mark_ratio)
    for p in points:
        print(f"ratio={p.ratio:g} node_surprise={_surprise_text(p.node_surprise)} "
              f"edge_surprise={_surprise_text(p.edge_surprise)}")
    print(f"wrote {svg}")
    return {"ratios": ratios}, ["sweep.csv", "surprise_curve.svg"]


def cmd_sample(args):
    strategies = _parse_strategies(args.strategies, _graph_kind(args))
    h = _load_history(args)
    t_split = _resolve_cutoff(args, h)
    sampled, run = _sample(args, h, t_split, strategies)
    out = _out_dir(args)
    write_negatives_csv(sampled, out / "negatives.csv")
    print(f"sampled {len(sampled.events)} events ({sampled.skipped} skipped) "
          f"-> {out / 'negatives.csv'}")
    resolved = {"t_split": t_split, "strategies": [s.value for s in strategies]}
    return resolved, ["negatives.csv"], run


def _metrics(log: ScoredEventLog, t_split: float, period: str, bins: int | None,
             name: str | None = None) -> tuple:
    """The AUC report of each of the log's strategies and, with ``bins``,
    its MAR series; or, when either raises a ValueError, that error and
    None. The error is prefixed by the log's file ``name`` when it has one,
    and kept without its traceback, whose frames hold the log."""
    try:
        reports = [mean_auc_over_batches(log, s, period, t_split) for s in log.strategies]
        return reports, None if bins is None else mar_time_series(log, bins=bins)
    except ValueError as exc:
        return (ValueError(f"{name}: {exc}") if name else exc.with_traceback(None)), None


def _read_log(path: str) -> tuple[ScoredEventLog, ScoreLogMeta]:
    """The score log at ``path`` and its header; a read error names the file."""
    try:
        return read_score_log(path)
    except ScoreLogError as exc:
        raise ScoreLogError(f"{path}: {exc}") from None


def _reduce_log(path: str, h: History, period: str, bins: int | None = None) -> tuple:
    """One external score log reduced: its header, then the error that
    checking its positives against ``h`` raised, or else its ``_metrics``.
    A read error is raised. Errors name the file."""
    log, meta = _read_log(path)
    try:
        check_positives(log, h)
    except ScoreLogError as exc:
        return meta, ScoreLogError(f"{path}: {exc}")
    return meta, _metrics(log, meta.t_split, period, bins, name=path)


def _external_logs(paths: list[str], h: History, period: str, bins: int) -> tuple:
    """(headers, per-log AUC reports, first log's MAR series) of the score
    logs at ``paths``, each reduced by ``_reduce_log``: the first in this
    process, the others at the same time in forked workers where the
    platform allows. The results are merged in file order, so that errors
    and their precedence are those of reading one log at a time: for each
    log, its read error, then a ``t_split`` or ``strategies`` that differs
    from the first log's, then a positive that is not an event of ``h``,
    each raised at once. A failed reduction's ValueError is kept in place
    of its AUC reports."""
    metas, reduced = [], []
    later = partial(_reduce_log, h=h, period=period)
    with forked_in_order(later, paths[1:]) as results:
        # the workers are forked before this process reads its own log
        outcomes = chain([_reduce_log(paths[0], h, period, bins)], results)
        for path, (meta, outcome) in zip(paths, outcomes):
            first = metas[0] if metas else meta
            for key in ("t_split", "strategies"):
                if getattr(meta, key) != getattr(first, key):
                    raise ScoreLogError(
                        f"{path}: {key}={getattr(meta, key)!r} differs from "
                        f"{key}={getattr(first, key)!r} in {paths[0]}"
                    )
            if isinstance(outcome, ScoreLogError):
                raise outcome
            metas.append(meta)
            reduced.append(outcome)
    return metas, [reports for reports, _ in reduced], reduced[0][1]


def cmd_eval(args):
    if args.scorer == "external" and not args.logs:
        raise ValueError("--scorer external requires --logs")
    if args.logs and args.scorer != "external":
        raise ValueError(f"--logs needs --scorer external, got {args.scorer}")
    if args.scorer != "external":  # checked before the dataset is read
        strategies = _parse_strategies(args.strategies, _graph_kind(args))
    h = _load_history(args)
    # external logs carry their own cutoff: none is computed for them
    t_split = None if args.scorer == "external" else _resolve_cutoff(args, h)
    out = _out_dir(args)
    name = Path(args.dataset).stem
    outputs = []
    run = None

    if args.scorer == "external":
        # the logs, not the command line, say how they were sampled and
        # scored: their headers replace the sampling options in the config
        for option in ("k", "seed", "batch_size", "on_empty"):
            delattr(args, option)
        metas, per_log_reports, series = _external_logs(args.logs, h, args.period, args.bins)
    else:
        sampled, run = _sample(args, h, t_split, strategies)
        log = run_streaming_eval(h, ScorerKind(args.scorer), sampled, args.batch_size)
        meta = ScoreLogMeta(
            dataset=name, t_split=t_split, batch_size=args.batch_size,
            strategies=tuple(s.value for s in strategies),
            k=args.k, seed=args.seed, scorer=args.scorer,
        )
        if len(log) == 0:
            raise EmptyCandidateSetError(
                "every event was skipped (no legal negatives); nothing to score"
            )
        write_score_log(log, meta, out / "scores.csv")
        outputs.append("scores.csv")
        reports, series = _metrics(log, t_split, args.period, args.bins)
        metas, per_log_reports = [meta], [reports]
        del log
    t_split, strategy_names = metas[0].t_split, list(metas[0].strategies)

    # a reduction's ValueError is raised once every log is read, so that a
    # later log's read or check error wins
    for j, reports in enumerate(per_log_reports):
        if isinstance(reports, ValueError):
            raise reports
        suffix = f"_seed{j}" if len(per_log_reports) > 1 else ""
        write_auc_csv(reports, out / f"auc{suffix}.csv")
        outputs.append(f"auc{suffix}.csv")

    print(f"{'strategy':10s} {'mean_auc':>9s} {'std':>7s} ({args.period} period)")
    summary_rows = []
    for s_idx, strategy in enumerate(strategy_names):
        aucs = [reports[s_idx].mean_auc for reports in per_log_reports]
        mean, std = float(np.mean(aucs)), float(np.std(aucs))
        summary_rows.append((strategy, mean, std, len(aucs)))
        print(f"{strategy:10s} {mean:>9.4f} {std:>7.4f}")
    with _open_for_write(out / "auc_summary.csv") as fh:
        fh.write("strategy,mean_auc,std_auc,n_logs\n")
        _write_rows(fh, "{},{!r},{!r},{}\n", _table_columns(summary_rows, 4))
    outputs.append("auc_summary.csv")

    write_mar_csv(series, out / "mar.csv")
    svg = mar_plot(series, t_split, out / "mar.svg")
    outputs += ["mar.csv", "mar.svg"]
    print(f"wrote {out / 'mar.csv'} and {svg}")
    resolved = {"log_headers": [
        {"scorer": m.scorer, "k": m.k, "seed": m.seed, "batch_size": m.batch_size}
        for m in metas
    ]} if args.scorer == "external" else {}
    resolved |= {"t_split": t_split, "strategies": strategy_names, "logs": args.logs or []}
    return resolved, outputs, run


def cmd_metrics(args):
    log, meta = _read_log(args.log)
    t_split = meta.t_split if args.t_split is None else args.t_split
    out = _out_dir(args)
    reports, series = _metrics(log, t_split, args.period, args.bins, name=args.log)
    if isinstance(reports, ValueError):
        raise reports
    write_auc_csv(reports, out / "auc.csv")
    write_mar_csv(series, out / "mar.csv")
    print(f"{'strategy':10s} {'mean_auc':>9s} {'batches':>8s} {'skipped':>8s}")
    for r in reports:
        print(f"{r.strategy:10s} {r.mean_auc:>9.4f} {len(r.auc):>8d} "
              f"{r.skipped_batches:>8d}")
    return {"t_split": t_split}, ["auc.csv", "mar.csv"]


def cmd_plot(args):
    log, meta = _read_log(args.log)
    t_split = meta.t_split if args.t_split is None else args.t_split
    out = _out_dir(args)
    series = mar_time_series(log, bins=args.bins)
    svg = mar_plot(series, t_split, out / "mar.svg")
    print(f"wrote {svg}")
    return {"t_split": t_split}, ["mar.svg"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlpeval",
        description="Evaluation toolkit for dynamic link prediction on "
                    "continuous-time interaction streams",
    )
    parser.add_argument("--version", action="version", version=f"dlpeval {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging on stderr")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("stats", help="category counts and surprise indices")
    _add_dataset_args(p); _add_cutoff_args(p); _add_out_arg(p)
    p.add_argument("--roles", action="store_true",
                   help="also report source/destination role-split node rows")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", help="materialize train/test CSVs at the cutoff")
    _add_dataset_args(p); _add_cutoff_args(p); _add_out_arg(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("bd", help="birth-death diagrams (SVG + data CSV)")
    _add_dataset_args(p); _add_cutoff_args(p); _add_out_arg(p)
    p.add_argument("--keys", default="node,edge",
                   help="which key kinds to plot (default node,edge)")
    p.add_argument("--facet-roles", action="store_true",
                   help="extra per-role node panels (directed streams)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for deterministic scatter downsampling")
    p.set_defaults(func=cmd_bd)

    p = sub.add_parser("sweep", help="surprise indices across split ratios")
    _add_dataset_args(p); _add_out_arg(p)
    p.add_argument("--ratios", default=f"0.1,{DEFAULT_TEST_RATIO},0.2,0.3,0.4,0.5",
                   help="comma-separated test ratios (default 0.1,0.15,0.2,...,0.5)")
    p.add_argument("--mark-ratio", type=float, default=DEFAULT_TEST_RATIO,
                   help="ratio marked with a star on the curve")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sample", help="export negatives for external models")
    _add_dataset_args(p); _add_cutoff_args(p); _add_out_arg(p)
    _add_sampling_args(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="run a heuristic scorer (or ingest external "
                                    "score logs) and compute metrics")
    _add_dataset_args(p); _add_cutoff_args(p); _add_out_arg(p)
    _add_sampling_args(p)
    p.add_argument("--scorer", choices=("pa", "edgebank", "external"),
                   default="edgebank", help="scoring method (default edgebank)")
    p.add_argument("--logs", nargs="+", default=None,
                   help="score-log files (required for --scorer external; "
                        "several files aggregate as independent seeds)")
    p.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
                   help=f"events per scoring batch (default {DEFAULT_BATCH_SIZE})")
    p.add_argument("--bins", type=int, default=DEFAULT_BINS,
                   help=f"time bins for the rank series (default {DEFAULT_BINS})")
    p.add_argument("--period", choices=("train", "test", "all"), default="test",
                   help="which period the AUC report covers (default test)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("metrics", help="AUC and rank series from a score log")
    _add_out_arg(p)
    p.add_argument("--log", required=True, help="score-log file")
    p.add_argument("--period", choices=("train", "test", "all"), default="test")
    p.add_argument("--t-split", type=float, default=None,
                   help="override the cutoff recorded in the log header")
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("plot", help="rank-over-time plot from a score log")
    _add_out_arg(p)
    p.add_argument("--log", required=True, help="score-log file")
    p.add_argument("--t-split", type=float, default=None)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        _check_numbers(args)
        _write_manifest(args, *args.func(args))
    except EmptyCandidateSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL_FAILURE
    except (DlpEvalError, OSError, ValueError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK


def run() -> int:
    """The process entry of ``dlpeval`` and ``python -m dlpeval.cli``:
    ``main`` on the process's arguments, with the objects made by importing
    the CLI's modules frozen first (``gc.freeze``). No collection traverses
    them after that, the ones at exit among them, so the process ends
    without collecting and tearing down the objects that numpy and dlpeval
    make at import (about 22,500 with numpy 2.4 on Python 3.11). Whatever
    ``main`` makes is left to the collector. A process that calls ``main``
    itself, as tests and library callers do, keeps its collector as it
    was."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
