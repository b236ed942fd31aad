"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmark/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                [--save FILE]

Runs ``BENCHMARK.json``'s command once per (workload, seed), one run at a
time, and prints per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread: the distance between
the quartiles as a share of the median, which must stay within the metric's
bound. ``--save`` writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path, default=None)
    args = ap.parse_args()

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            took = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode})")
            result = json.loads(lines[-1])
            result.update(seed=seed, run_s=took)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} run {took:.0f} s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in {m['name'] for m in spec['end_to_end']}),
                  flush=True)
        summary = {}
        for m in section:
            summary[m["name"]] = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            s = summary[m["name"]]
            bound = m.get("bound")
            verdict = "" if bound is None else (
                f" bound {bound} {'ok' if s['spread'] <= bound / 3 else 'WIDE'}")
            print(f"  {workload} {m['name']}: median {s['median']:.6g} {m['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}{verdict}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.save:
        args.save.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
