"""dlpeval benchmark: drives the real CLI on seeded synthetic workloads.

    python3 benchmark/run.py --workload eval-uniform --seed 1 --seconds 42 --trace 0

Run from the root of a checkout; the program under test is ``src/dlpeval``
of that checkout, imported by every child process through PYTHONPATH.
Steps of one run:

1. Generate the workload's inputs from ``--seed`` (cached under
   ``benchmark/.work/cache``).
2. Iterations. Each starts with a set-up probe (a fresh process that
   imports dlpeval and ingests the workload's stream) and a run of
   ``calibrate.py``, a fixed job that times the host. Then the workload's
   commands run, each a fresh ``python -m dlpeval.cli`` process, one at a
   time. Iterations repeat while the next one would still end within
   ``--seconds`` (at least once). One more probe and calibration follow
   the last iteration, and probes are topped up to five. The host's speed
   drifts by up to 2x for minutes at a time, so the two timed metrics are
   host-normalized: ``wall_s`` is the median over untraced iterations of
   the commands' summed wall time divided by the mean of the calibrations
   just before and just after them, times ``CAL_REF_S``; ``setup_s`` is
   the median of each probe's time divided by the calibration right after
   it, times ``CAL_REF_S``. The raw medians are printed too.
   ``peak_rss_mb`` is the median of each iteration's largest
   ``ru_maxrss`` (from ``os.wait4`` on the child). With ``--trace 1``
   every second iteration runs the commands under ``trace_child.py``
   instead, and the per-layer metrics, not normalized, come from those
   traced iterations.
3. Checks (``checks.py``) on the first iteration's outputs, a byte-identity
   check of every later iteration against the first, and a self-test that
   feeds each check family a corrupted output it must reject.

The last line printed is the JSON result; the lines before it repeat each
metric with its unit, the error rate and every check outcome.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import CHECKS, Context, corruptions
from workloads import WORKLOADS, Workload, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
MIN_PROBES = 5
# Sets the unit of the normalized times: the wall time a command takes
# while the host runs calibrate.py in CAL_REF_S seconds. On the reference
# machine (README.md) calibrate.py takes 0.42-0.68 s, with the host's load.
CAL_REF_S = 0.4
COMMAND_TIMEOUT_S = 150  # a hung command is killed so the run ends in time

PROBE_CODE = (
    "import sys, dlpeval\n"
    "from dlpeval import GraphKind, ingest_csv\n"
    "ingest_csv(sys.argv[1], kind=GraphKind(directed=sys.argv[2] == '1'))\n"
    "print(dlpeval.__file__)\n"
)


@dataclass
class Spawned:
    wall_s: float
    rss_mb: float
    code: int
    log: Path


@dataclass
class Iteration:
    traced: bool
    wall_s: float = 0.0
    cal_s: float = 0.0  # mean calibrate.py wall time just before and after the commands
    rss_mb: float = 0.0
    failed: int = 0
    commands: int = 0
    top_level_s: float = 0.0
    spans: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def spawn(argv: list[str], env: dict, cwd: Path, log: Path) -> Spawned:
    """Run one child to completion; wall time from spawn to exit, peak RSS
    from the child's own rusage."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: end the child first
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(wall, usage.ru_maxrss / 1024.0, proc.returncode, log)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("DLPEVAL_OUT", None)
    return env


def report_failure(what: str, s: Spawned) -> None:
    tail = s.log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
    print(f"FAILED {what} (exit {s.code}): " + " | ".join(tail))


def run_iteration(w: Workload, inputs: Path, seed: int, out: Path, traced: bool,
                  env: dict, run_dir: Path) -> Iteration:
    it = Iteration(traced)
    for c, cmd in enumerate(w.commands(inputs, out, seed)):
        spans_path = run_dir / f"spans-{c}.json"
        if traced:
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans_path), "--"] + cmd
        else:
            argv = [sys.executable, "-m", "dlpeval.cli"] + cmd
        s = spawn(argv, env, run_dir, run_dir / f"cmd-{c}.log")
        it.commands += 1
        it.wall_s += s.wall_s
        it.rss_mb = max(it.rss_mb, s.rss_mb)
        if s.code != 0:
            it.failed += 1
            report_failure(cmd[0], s)
        if traced and spans_path.exists():
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            it.top_level_s += trace["top_level_s"]
            for name, span in trace["spans"].items():
                acc = it.spans.setdefault(name, dict.fromkeys(span, 0))
                for k, v in span.items():
                    acc[k] += v
            for k, v in trace["counts"].items():
                it.counts[k] = it.counts.get(k, 0) + v
            spans_path.unlink()
    return it


def digest(out: Path, files) -> dict:
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            if (out / f).exists() else None for f in files}


def run_check(fn, ctx: Context) -> tuple[bool, str]:
    try:
        fn(ctx)
        return True, ""
    except Exception as exc:  # a crashing check is a failed check
        return False, f"{type(exc).__name__}: {exc}"


def normalized(pairs) -> float:
    """Median of (time / calibration time) over (time, calibration time)
    pairs taken back to back, in seconds at the reference host speed."""
    return CAL_REF_S * statistics.median(t / c for t, c in pairs)


def layer_metrics(traced: list[Iteration], untraced: list[Iteration]) -> dict:
    """Per-layer values, each the median over the traced iterations."""
    def one(it: Iteration) -> dict:
        def span(name, key="s"):
            return it.spans.get(name, {}).get(key, 0)

        m = {f"{name}.s": span(name) for name in it.spans}
        m.update({
            "scorers.run_streaming_eval.self_s": span("scorers.run_streaming_eval", "self_s"),
            "partition.edge_lifetime_arrays.calls":
                span("partition.edge_lifetime_arrays", "calls"),
            "sampling.sample_negatives.calls": span("sampling.sample_negatives", "calls"),
            "sampling.sample_negatives.raised": span("sampling.sample_negatives", "raised"),
            "sampling.derive_event_seed.calls": span("sampling.derive_event_seed", "calls"),
            "metrics.write_csv.s":
                span("metrics.write_auc_csv") + span("metrics.write_mar_csv"),
            "cli.self_s": it.wall_s - it.top_level_s,
            "cli.commands": it.commands,
            "trace.wall_s": it.wall_s,
        })
        m.update(it.counts)
        return m

    per_it = [one(it) for it in traced]
    names = set().union(*per_it)
    out = {n: statistics.median(m.get(n, 0) for m in per_it) for n in names}
    out["cli.failed"] = sum(it.failed for it in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        it.wall_s for it in untraced)
    return out


@dataclass
class Tally:
    """Operations attempted and failed; an operation is a probe, a
    calibration, a command, one output check or one byte-identity
    comparison."""

    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def probe(inputs: Path, directed: bool, env: dict, run_dir: Path, src: Path,
          tally: Tally, n: int) -> float:
    """One set-up probe; fails when dlpeval came from outside ``src``."""
    s = spawn([sys.executable, "-c", PROBE_CODE, str(inputs / "stream.csv"),
               "1" if directed else "0"], env, run_dir, run_dir / f"probe-{n}.log")
    lines = s.log.read_text(encoding="utf-8", errors="replace").splitlines()
    ok = s.code == 0 and bool(lines) and Path(lines[-1]).resolve().is_relative_to(src)
    tally.add(ok)
    if not ok:
        report_failure("set-up probe (or it imported dlpeval from elsewhere)", s)
    return s.wall_s


def calibrate(env: dict, run_dir: Path, tally: Tally, n: int) -> float:
    """One run of calibrate.py: how fast the host is at this moment."""
    s = spawn([sys.executable, str(HERE / "calibrate.py")], env, run_dir,
              run_dir / f"calibrate-{n}.log")
    tally.add(s.code == 0)
    if s.code != 0:
        report_failure("calibrate.py", s)
    return s.wall_s


def measure(w: Workload, args, inputs: Path, stream, env: dict, run_dir: Path,
            src: Path, tally: Tally) -> tuple[list[Iteration], list[tuple[float, float]]]:
    """Iterations until the next one would end after ``args.seconds``, and
    (probe, calibration) wall-time pairs."""
    iterations: list[Iteration] = []
    probes: list[tuple[float, float]] = []

    def probe_pair() -> tuple[float, float]:
        n = len(probes)
        return (probe(inputs, stream.directed, env, run_dir, src, tally, n),
                calibrate(env, run_dir, tally, n))

    first_digest = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        # calibrations before and after the commands bracket them, and the
        # first one directly follows the probe
        probes.append(probe_pair())
        traced = args.trace == 1 and len(iterations) % 2 == 1
        out = run_dir / f"out-{len(iterations)}"
        it = run_iteration(w, inputs, args.seed, out, traced, env, run_dir)
        iterations.append(it)
        tally.attempted += it.commands
        tally.failed += it.failed
        print(f"iteration {len(iterations) - 1}{' (traced)' if traced else ''}: "
              f"{it.wall_s:.3f} s, calibration before {probes[-1][1]:.3f} s, "
              f"peak {it.rss_mb:.1f} MB")
        d = digest(out, w.outputs)
        if first_digest is None:
            first_digest = d
        else:
            tally.add(d == first_digest)
            if d != first_digest:
                print(f"FAILED repeat: iteration {len(iterations) - 1} outputs differ "
                      "from the first iteration's")
            shutil.rmtree(out)
        enough = len(iterations) >= (2 if args.trace else 1)
        now = time.perf_counter()
        if enough and (now - start) + (now - began) > args.seconds:
            break
    probes.append(probe_pair())  # its calibration closes the last bracket
    while len(probes) < MIN_PROBES:
        probes.append(probe_pair())
    for it, (_, before), (_, after) in zip(iterations, probes, probes[1:]):
        it.cal_s = (before + after) / 2
    return iterations, probes


def check_outputs(w: Workload, ctx: Context, tally: Tally) -> dict[str, bool]:
    passed = {}
    for name, fn in CHECKS[w.name].items():
        passed[name], msg = run_check(fn, ctx)
        tally.add(passed[name])
        print(f"check {name}: {'ok' if passed[name] else 'FAILED ' + msg}")
    return passed


def self_test(w: Workload, ctx: Context, passed: dict[str, bool], run_dir: Path) -> bool:
    """Each corruption must make its check reject an output it accepted."""
    all_caught = True
    for c in corruptions(w.name, ctx.stream):
        lines = ctx.path(c.file).read_text(encoding="utf-8").split("\n")
        c.corrupt(lines)
        bad = run_dir / f"corrupt-{c.name}"
        bad.write_text("\n".join(lines), encoding="utf-8")
        still_ok, msg = run_check(CHECKS[w.name][c.must_fail],
                                  Context(ctx.stream, ctx.inputs, ctx.out, {c.file: bad}))
        caught = passed[c.must_fail] and not still_ok
        all_caught &= caught
        print(f"self-test {c.name}: " + (
            f"caught by {c.must_fail} ({msg})" if caught else "NOT CAUGHT"))
        bad.unlink()
    return all_caught


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so children are killed and awaited
    # and the run directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    src = (ROOT / "src").resolve()
    if not (src / "dlpeval" / "cli.py").is_file():
        print(f"error: no dlpeval sources at {src}; run from the root of a "
              "dlpeval checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = WORKLOADS[args.workload]
    env = child_env(src)

    t0 = time.perf_counter()
    inputs, stream = prepare(w, args.seed, WORK / "cache")
    print(f"{w.name}: inputs for seed {args.seed} ready in "
          f"{time.perf_counter() - t0:.1f} s ({inputs.name})")

    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        tally = Tally()
        iterations, probes = measure(w, args, inputs, stream, env, run_dir, src, tally)
        ctx = Context(stream, inputs, run_dir / "out-0")
        selftest_ok = self_test(w, ctx, check_outputs(w, ctx, tally), run_dir)

        untraced = [it for it in iterations if not it.traced]
        if args.trace:
            values = layer_metrics([it for it in iterations if it.traced], untraced)
            section = spec["per_layer"]
        else:
            values = {
                "wall_s": normalized((it.wall_s, it.cal_s) for it in untraced),
                "setup_s": normalized(probes),
                "peak_rss_mb": statistics.median(it.rss_mb for it in untraced),
            }
            section = spec["end_to_end"]
        metrics = {}
        for m in section:
            metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
            print(f"{w.name} {m['name']} {metrics[m['name']]['value']:.6g} {m['unit']}")
        if not args.trace:
            print(f"{w.name} raw medians: wall {statistics.median(it.wall_s for it in untraced):.4g} s, "
                  f"set-up {statistics.median(p for p, _ in probes):.4g} s, "
                  f"calibrate.py {statistics.median(c for _, c in probes):.4g} s "
                  f"(reference {CAL_REF_S} s)")
        print(f"{w.name} error_rate {tally.failed / tally.attempted:.6g} ratio "
              f"({tally.failed} of {tally.attempted} operations failed)")
        print(f"{w.name}: {len(iterations)} iteration(s), {len(probes)} set-up probes, "
              f"self-test {'passed' if selftest_ok else 'FAILED'}")
        result = {"correct": tally.failed == 0 and selftest_ok,
                  "attempted": tally.attempted, "failed": tally.failed,
                  "metrics": metrics}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
