"""Command-line pipeline: ingest -> split -> sample -> score -> metrics -> plots.

Every run writes a manifest with the fully resolved configuration so outputs
can be reproduced byte-identically. Exit codes: 0 success, 1 evaluation
policy failure (e.g. empty candidate sets under the abort policy), 2 input
or configuration error.

The only environment variable honored is ``DLPEVAL_OUT``, which overrides
the default output directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import GraphKind, History, ingest_csv
from .diagrams import bd_diagram, mar_plot, surprise_curve
from .errors import DlpEvalError, EmptyCandidateSetError, ScoreLogError
from .metrics import (
    mar_time_series,
    mean_auc_over_batches,
    write_auc_csv,
    write_mar_csv,
)
from .partition import (
    KeyKind,
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
    ScoreLogMeta,
    check_positives,
    read_score_log,
    write_score_log,
)
from .scorers import ScorerKind, run_streaming_eval

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
    if getattr(args, "t_split", None) is not None:
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
    if kind.bipartite and any(s.replaces == "source" for s in out
                              if s is not NegativeStrategy.RND):
        logger.warning(
            "source-replacement strategies on a bipartite stream swap the "
            "user side; make sure that is intended"
        )
    return out


def _write_manifest(out: Path, command: str, config: dict, outputs: list[str],
                    run: dict | None = None) -> None:
    manifest = {
        "tool": "dlpeval",
        "version": __version__,
        "command": command,
        "config": config,
        "outputs": sorted(outputs),
    }
    if run is not None:
        manifest["run"] = run
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dataset_config(args) -> dict:
    return {
        "dataset": str(args.dataset),
        "schema": args.schema,
        "directed": not args.undirected or args.bipartite,
        "bipartite": args.bipartite,
        "allow_self_loops": args.allow_self_loops,
    }


def _sample(args, h: History, t_split: float, strategies) -> tuple[SampledStream, dict]:
    """Negatives for every event, and the ``run`` section that explains
    them: every event of the stream is either scored or skipped for lack of
    a legal negative, and per strategy its candidate pool size and the
    events for which it had no legal negative."""
    idx = build_candidate_index(h, t_split)
    sampled = sample_stream(h, idx, strategies, args.k, args.seed, args.on_empty)
    run = {
        "events": len(h), "events_scored": len(sampled.events),
        "events_skipped": sampled.skipped,
        "strategies": {
            s.value: {"pool_size": len(idx.pool_for(s)), "events_no_legal_negative": n}
            for s, n in zip(sampled.strategies, sampled.no_legal)
        },
    }
    return sampled, run


def _surprise_text(s: float | None) -> str:
    return "undefined" if s is None else f"{s:.3f}"


# -- subcommands ---------------------------------------------------------


def cmd_stats(args) -> int:
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
    config = _dataset_config(args) | {
        "test_ratio": args.test_ratio, "t_split": t_split, "roles": args.roles,
    }
    _write_manifest(out, "stats", config, ["partition.csv"])
    return EXIT_OK


def cmd_split(args) -> int:
    h = _load_history(args)
    t_split = _resolve_cutoff(args, h)
    train, test = split(h, t_split)
    out = _out_dir(args)
    train.export_csv(out / "train.csv")
    test.export_csv(out / "test.csv")
    h.export_label_map(out / "labels.csv")
    print(f"t_split={t_split!r} train={len(train)} test={len(test)}")
    config = _dataset_config(args) | {"test_ratio": args.test_ratio, "t_split": t_split}
    _write_manifest(out, "split", config, ["train.csv", "test.csv", "labels.csv"])
    return EXIT_OK


def cmd_bd(args) -> int:
    h = _load_history(args)
    t_split = _resolve_cutoff(args, h)
    out = _out_dir(args)
    name = Path(args.dataset).stem
    outputs = []
    keys = [k.strip() for k in args.keys.split(",") if k.strip()]
    for key in keys:
        if key == "node":
            life = lifetimes(h, KeyKind.NODE)
        elif key == "edge":
            life = lifetimes(h, KeyKind.EDGE)
        else:
            raise ValueError(f"unknown key kind {key!r} (use node,edge)")
        svg, csv_ = bd_diagram(
            life, t_split,
            out / f"bd_{key}.svg", out / f"bd_{key}.csv",
            title=f"{name} {key}s", seed=args.seed,
        )
        outputs += [svg.name, csv_.name]
        print(f"wrote {svg} and {csv_}")
    if args.facet_roles:
        panels = [
            ("source", lifetimes(h, KeyKind.SOURCE_NODE)),
            ("destination", lifetimes(h, KeyKind.DESTINATION_NODE)),
        ]
        svg, csv_ = bd_diagram(
            panels, t_split,
            out / "bd_node_roles.svg", out / "bd_node_roles.csv",
            seed=args.seed,
        )
        outputs += [svg.name, csv_.name]
        print(f"wrote {svg} and {csv_}")
    config = _dataset_config(args) | {
        "test_ratio": args.test_ratio, "t_split": t_split,
        "keys": keys, "facet_roles": args.facet_roles, "seed": args.seed,
    }
    _write_manifest(out, "bd", config, outputs)
    return EXIT_OK


def cmd_sweep(args) -> int:
    h = _load_history(args)
    ratios = [float(r) for r in args.ratios.split(",") if r.strip()]
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
    config = _dataset_config(args) | {"ratios": ratios, "mark_ratio": args.mark_ratio}
    _write_manifest(out, "sweep", config, ["sweep.csv", "surprise_curve.svg"])
    return EXIT_OK


def cmd_sample(args) -> int:
    h = _load_history(args)
    t_split = _resolve_cutoff(args, h)
    strategies = _parse_strategies(args.strategies, h.kind)
    sampled, run = _sample(args, h, t_split, strategies)
    out = _out_dir(args)
    write_negatives_csv(sampled, out / "negatives.csv")
    print(f"sampled {len(sampled.events)} events ({sampled.skipped} skipped) "
          f"-> {out / 'negatives.csv'}")
    config = _dataset_config(args) | {
        "test_ratio": args.test_ratio, "t_split": t_split, "seed": args.seed,
        "strategies": [s.value for s in strategies], "k": args.k,
        "on_empty": args.on_empty,
    }
    _write_manifest(out, "sample", config, ["negatives.csv"], run=run)
    return EXIT_OK


def _auc_summary(log, strategies, period, t_split):
    reports = []
    for strategy in strategies:
        reports.append(mean_auc_over_batches(log, strategy, period, t_split))
    return reports


def _read_external_logs(paths: list[str], h: History):
    """Read every score log, checking that each agrees with the first on
    ``t_split`` and ``strategies`` and that its positives are events of
    ``h``. Errors name the offending file. Returns the logs and their
    headers."""
    logs, metas = [], []
    for path in paths:
        try:
            log, meta = read_score_log(path)
            for key in ("t_split", "strategies"):
                if metas and getattr(meta, key) != getattr(metas[0], key):
                    raise ScoreLogError(
                        f"{key}={getattr(meta, key)!r} differs from "
                        f"{key}={getattr(metas[0], key)!r} in {paths[0]}"
                    )
            check_positives(log, h)
        except ScoreLogError as exc:
            raise ScoreLogError(f"{path}: {exc}") from None
        logs.append(log)
        metas.append(meta)
    return logs, metas


def cmd_eval(args) -> int:
    h = _load_history(args)
    t_split = _resolve_cutoff(args, h)
    out = _out_dir(args)
    name = Path(args.dataset).stem
    outputs = []
    run = None

    if args.scorer in ("pa", "edgebank"):
        strategies = _parse_strategies(args.strategies, h.kind)
        kind = (ScorerKind.PREFERENTIAL_ATTACHMENT if args.scorer == "pa"
                else ScorerKind.EDGEBANK)
        if args.batch_size < 1:
            raise ValueError("batch_size must be >= 1")  # before drawing the stream
        sampled, run = _sample(args, h, t_split, strategies)
        log = run_streaming_eval(h, kind, sampled, args.batch_size)
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
        logs = [log]
        drawn = {"k": args.k, "seed": args.seed, "batch_size": args.batch_size,
                 "on_empty": args.on_empty}
    else:
        if not args.logs:
            raise ValueError("--scorer external requires --logs")
        logs, metas = _read_external_logs(args.logs, h)
        t_split = metas[0].t_split
        # the logs, not the command line, say how they were sampled and scored
        drawn = {"log_headers": [
            {"scorer": m.scorer, "k": m.k, "seed": m.seed, "batch_size": m.batch_size}
            for m in metas
        ]}

    strategy_names = list(logs[0].strategies)
    per_log_reports = []
    for j, log in enumerate(logs):
        reports = _auc_summary(log, strategy_names, args.period, t_split)
        per_log_reports.append(reports)
        suffix = f"_seed{j}" if len(logs) > 1 else ""
        write_auc_csv(reports, out / f"auc{suffix}.csv")
        outputs.append(f"auc{suffix}.csv")

    print(f"{'strategy':10s} {'mean_auc':>9s} {'std':>7s} ({args.period} period)")
    summary_rows = []
    for s_idx, strategy in enumerate(strategy_names):
        aucs = [reports[s_idx].mean_auc for reports in per_log_reports]
        mean, std = float(np.mean(aucs)), float(np.std(aucs))
        summary_rows.append((strategy, mean, std, len(aucs)))
        print(f"{strategy:10s} {mean:>9.4f} {std:>7.4f}")
    with open(out / "auc_summary.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("strategy,mean_auc,std_auc,n_logs\n")
        for strategy, mean, std, n in summary_rows:
            fh.write(f"{strategy},{mean!r},{std!r},{n}\n")
    outputs.append("auc_summary.csv")

    series = mar_time_series(logs[0], bins=args.bins)
    write_mar_csv(series, out / "mar.csv")
    svg = mar_plot(series, t_split, out / "mar.svg")
    outputs += ["mar.csv", "mar.svg"]
    print(f"wrote {out / 'mar.csv'} and {svg}")

    config = _dataset_config(args) | drawn | {
        "test_ratio": args.test_ratio, "t_split": t_split, "scorer": args.scorer,
        "strategies": strategy_names, "bins": args.bins, "period": args.period,
        "logs": [str(p) for p in (args.logs or [])],
    }
    _write_manifest(out, "eval", config, outputs, run=run)
    return EXIT_OK


def cmd_metrics(args) -> int:
    log, meta = read_score_log(args.log)
    t_split = meta.t_split if args.t_split is None else args.t_split
    out = _out_dir(args)
    reports = _auc_summary(log, list(log.strategies), args.period, t_split)
    write_auc_csv(reports, out / "auc.csv")
    series = mar_time_series(log, bins=args.bins)
    write_mar_csv(series, out / "mar.csv")
    print(f"{'strategy':10s} {'mean_auc':>9s} {'batches':>8s} {'skipped':>8s}")
    for r in reports:
        print(f"{r.strategy:10s} {r.mean_auc:>9.4f} {len(r.entries):>8d} "
              f"{r.skipped_batches:>8d}")
    config = {"log": str(args.log), "period": args.period,
              "t_split": t_split, "bins": args.bins}
    _write_manifest(out, "metrics", config, ["auc.csv", "mar.csv"])
    return EXIT_OK


def cmd_plot(args) -> int:
    log, meta = read_score_log(args.log)
    t_split = meta.t_split if args.t_split is None else args.t_split
    out = _out_dir(args)
    series = mar_time_series(log, bins=args.bins)
    svg = mar_plot(series, t_split, out / "mar.svg")
    print(f"wrote {svg}")
    config = {"log": str(args.log), "t_split": t_split, "bins": args.bins}
    _write_manifest(out, "plot", config, ["mar.svg"])
    return EXIT_OK


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
    p.add_argument("--ratios", default="0.1,0.2,0.3,0.4,0.5",
                   help="comma-separated test ratios (default 0.1..0.5)")
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
        return args.func(args)
    except EmptyCandidateSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL_FAILURE
    except (DlpEvalError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
