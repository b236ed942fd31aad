"""Seeded synthetic inputs and the dlpeval commands each workload runs.

Every stream is written with node labels equal to the dense ids dlpeval
assigns at ingestion (ids in order of first appearance in the time-sorted
stream, source before destination), so the oracles in ``checks.py`` can read
dlpeval's id-based outputs without a label map. The generators use only
numpy; dlpeval sees nothing but the files written here.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TEST_RATIO = 0.15  # the CLI default, which every workload command uses
CACHE_KEEP = 4  # generated seeds kept per workload


@dataclass
class Stream:
    """Event columns in chronological order; labels equal dense ids."""

    src: np.ndarray
    dst: np.ndarray
    t: np.ndarray
    directed: bool

    @property
    def num_nodes(self) -> int:
        return int(max(self.src.max(), self.dst.max())) + 1

    def edge_keys(self) -> np.ndarray:
        a, b = self.src, self.dst
        if not self.directed:
            a, b = np.minimum(a, b), np.maximum(a, b)
        return a * np.int64(self.num_nodes) + b


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, Path], Stream]  # (seed, input dir) -> stream
    commands: Callable[[Path, Path, int], list[list[str]]]  # (inputs, out, seed)
    outputs: tuple[str, ...]  # compared across iterations, relative to out


# -- helpers ----------------------------------------------------------------


def relabel_by_first_appearance(src: np.ndarray, dst: np.ndarray):
    """Rename nodes to the dense ids dlpeval gives them at ingestion."""
    inter = np.empty(2 * len(src), dtype=np.int64)
    inter[0::2], inter[1::2] = src, dst
    uniq, first = np.unique(inter, return_index=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(uniq))
    new = rank[np.searchsorted(uniq, inter)]
    return new[0::2].copy(), new[1::2].copy()


def write_stream_csv(path: Path, src, dst, t_text: list[str]) -> None:
    lines = ["source,destination,timestamp"]
    lines += [f"{u},{v},{tt}" for u, v, tt in zip(src.tolist(), dst.tolist(), t_text)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_stream(d: Path, s: Stream) -> None:
    np.savez(d / "stream.npz", src=s.src, dst=s.dst, t=s.t, directed=s.directed)


def load_stream(d: Path) -> Stream:
    with np.load(d / "stream.npz") as z:
        return Stream(z["src"], z["dst"], z["t"], bool(z["directed"]))


def cutoff(t: np.ndarray, ratio: float) -> float:
    """The documented split rule: the timestamp of the
    (floor((1 - ratio) * N) + 1)-th event."""
    n = len(t)
    k = min(int(math.floor((1.0 - ratio) * n + 1e-9)), n - 1)
    return float(t[k])


def node_categories(s: Stream, t_split: float) -> tuple[np.ndarray, np.ndarray]:
    """(observed node ids, category code per id): 0 historical, 1 overlap,
    2 inductive, by first/last appearance found through a sort."""
    nodes = np.concatenate([s.src, s.dst])
    times = np.concatenate([s.t, s.t])
    order = np.lexsort((times, nodes))
    nodes, times = nodes[order], times[order]
    starts = np.flatnonzero(np.r_[True, nodes[1:] != nodes[:-1]])
    ends = np.r_[starts[1:], len(nodes)] - 1
    birth, death = times[starts], times[ends]
    codes = np.where(death < t_split, 0, np.where(birth >= t_split, 2, 1))
    return nodes[starts], codes


# -- eval-uniform -----------------------------------------------------------

EVAL_UNIFORM = {"events": 20_000, "nodes": 1_000, "batch_size": 200}


def gen_eval_uniform(seed: int, d: Path) -> Stream:
    n, nodes = EVAL_UNIFORM["events"], EVAL_UNIFORM["nodes"]
    rng = np.random.default_rng([seed, 1])
    src = rng.integers(0, nodes, n)
    dst = rng.integers(0, nodes - 1, n)
    dst[dst >= src] += 1  # uniform over the other nodes: no self-loops
    t = np.sort(rng.choice(10**9, size=n, replace=False)).astype(np.int64)
    src, dst = relabel_by_first_appearance(src, dst)
    write_stream_csv(d / "stream.csv", src, dst, [str(x) for x in t.tolist()])
    return Stream(src, dst, t.astype(np.float64), directed=True)


def cmd_eval_uniform(d: Path, out: Path, seed: int) -> list[list[str]]:
    return [[
        "eval", str(d / "stream.csv"), "--scorer", "edgebank",
        "--strategies", "HE,OE,IE", "--k", "1",
        "--batch-size", str(EVAL_UNIFORM["batch_size"]), "--seed", str(seed),
        "--out", str(out / "eval"),
    ]]


# -- external-dense ---------------------------------------------------------

EXTERNAL_DENSE = {
    "events": 6_000, "events_per_timestamp": 50, "new_node_rate": 0.05,
    "k": 5, "strategies": ("HD", "OD", "ID", "RND"), "batch_size": 200,
    "models": 2,
}


def gen_external_dense(seed: int, d: Path) -> Stream:
    p = EXTERNAL_DENSE
    n = p["events"]
    rng = np.random.default_rng([seed, 2])
    # endpoint slots in ingestion order: src0, dst0, src1, dst1, ...
    is_new = rng.random(2 * n) < p["new_node_rate"]
    is_new[:2] = True
    known_before = np.cumsum(is_new) - is_new  # nodes introduced before the slot
    # old endpoints are skewed toward old nodes: P(id < x) = sqrt(x / known)
    old_pick = np.floor(known_before * rng.random(2 * n) ** 2).astype(np.int64)
    ids = np.where(is_new, known_before, old_pick)
    src, dst = ids[0::2].copy(), ids[1::2].copy()
    loop = src == dst  # dst is old here, and every dst slot knows >= 2 nodes
    dst[loop] = (dst[loop] + 1) % known_before[1::2][loop]
    src, dst = relabel_by_first_appearance(src, dst)
    t = (np.arange(n) // p["events_per_timestamp"]).astype(np.int64)
    write_stream_csv(d / "stream.csv", src, dst, [str(x) for x in t.tolist()])
    s = Stream(src, dst, t.astype(np.float64), directed=False)
    write_model_logs(s, seed, d)
    return s


def true_event_codes(s: Stream) -> tuple[np.ndarray, np.ndarray]:
    """(distinct timestamps, sorted timestamp-rank * N^2 + edge key codes)."""
    uniq_t = np.unique(s.t)
    rank = np.searchsorted(uniq_t, s.t)
    nn = np.int64(s.num_nodes) ** 2
    return uniq_t, np.unique(rank * nn + s.edge_keys())


def is_true_event(s: Stream, uniq_t, codes, u, v, t) -> np.ndarray:
    """Per query: does (u, v) occur as a true event at exactly time t?"""
    u, v, t = np.asarray(u), np.asarray(v), np.asarray(t, dtype=np.float64)
    if not s.directed:
        u, v = np.minimum(u, v), np.maximum(u, v)
    n = np.int64(s.num_nodes)
    rank = np.searchsorted(uniq_t, t)
    rank_ok = (rank < len(uniq_t)) & (uniq_t[np.minimum(rank, len(uniq_t) - 1)] == t)
    in_range = (u >= 0) & (v >= 0) & (u < n) & (v < n)
    q = rank * n * n + u * n + v
    pos = np.searchsorted(codes, q)
    hit = (pos < len(codes)) & (codes[np.minimum(pos, len(codes) - 1)] == q)
    return rank_ok & in_range & hit


def write_model_logs(s: Stream, seed: int, d: Path) -> None:
    """Two "external model" score logs in the README format: every event's
    positive, then k destination replacements per strategy, drawn from the
    named node category without colliding with a true event."""
    p = EXTERNAL_DENSE
    n, k = len(s.t), p["k"]
    t_split = cutoff(s.t, TEST_RATIO)
    ids, codes = node_categories(s, t_split)
    pools = {"HD": ids[codes == 0], "OD": ids[codes == 1], "ID": ids[codes == 2],
             "RND": ids}
    uniq_t, ev_codes = true_event_codes(s)
    rng = np.random.default_rng([seed, 3])
    roles = ["positive"]
    neg_dst = []
    for strategy in p["strategies"]:
        pool = pools[strategy]
        draw = pool[rng.integers(0, len(pool), (n, k))]
        while True:
            bad = (draw == s.src[:, None]) | is_true_event(
                s, uniq_t, ev_codes, np.repeat(s.src, k).reshape(n, k), draw,
                np.repeat(s.t, k).reshape(n, k))
            if not bad.any():
                break
            draw[bad] = pool[rng.integers(0, len(pool), int(bad.sum()))]
        neg_dst.append(draw)
        roles += [strategy] * k
    dst = np.concatenate([s.dst[:, None]] + neg_dst, axis=1).ravel()
    scores = {}
    for m in range(p["models"]):
        mrng = np.random.default_rng([seed, 4, m])
        score = mrng.standard_normal(len(dst)).reshape(n, len(roles))
        score[:, 0] += 1.0  # positives score higher on average
        scores[f"score{m}"] = score.ravel()
    np.savez(d / "model_logs.npz", dst=dst, roles=np.array(roles), **scores)
    for m in range(p["models"]):
        cols = model_log_columns(s, d, m)
        header = [
            "# dataset=stream", f"# t_split={t_split!r}",
            f"# batch_size={p['batch_size']}",
            f"# strategies={','.join(p['strategies'])}", f"# k={k}",
            f"# seed={seed}", f"# scorer=model{m}",
            "event_ordinal,batch,role,source,destination,timestamp,score",
        ]
        t_text = [repr(x) for x in cols["t"].tolist()]
        body = [
            f"{o},{b},{r},{u},{v},{tt},{sc!r}"
            for o, b, r, u, v, tt, sc in zip(
                cols["ordinal"].tolist(), cols["batch"].tolist(), cols["role"].tolist(),
                cols["src"].tolist(), cols["dst"].tolist(), t_text,
                cols["score"].tolist())
        ]
        (d / f"m{m}.csv").write_text("\n".join(header + body) + "\n", encoding="utf-8")


def model_log_columns(s: Stream, d: Path, m: int) -> dict:
    """The records of model log ``m`` as columns, straight from the
    generator's arrays: per event the positive, then k replacements per
    strategy."""
    with np.load(d / "model_logs.npz") as z:
        dst, roles, score = z["dst"], z["roles"], z[f"score{m}"]
    n, per_event = len(s.t), len(roles)
    ordinal = np.repeat(np.arange(n), per_event)
    return {"ordinal": ordinal, "batch": ordinal // EXTERNAL_DENSE["batch_size"],
            "role": np.tile(roles, n), "src": np.repeat(s.src, per_event), "dst": dst,
            "t": np.repeat(s.t, per_event), "score": score}


def cmd_external_dense(d: Path, out: Path, seed: int) -> list[list[str]]:
    p = EXTERNAL_DENSE
    return [
        ["sample", str(d / "stream.csv"), "--undirected",
         "--strategies", ",".join(p["strategies"]), "--k", str(p["k"]),
         "--seed", str(seed), "--out", str(out / "sample")],
        ["eval", str(d / "stream.csv"), "--undirected", "--scorer", "external",
         "--logs"] + [str(d / f"m{m}.csv") for m in range(p["models"])]
        + ["--out", str(out / "eval")],
    ]


# -- partition-100k ---------------------------------------------------------

PARTITION = {"events": 100_000, "nodes": 13_000, "t_max": 10**6,
             "ratios": (0.1, 0.15, 0.2, 0.3, 0.4, 0.5)}


def gen_partition(seed: int, d: Path) -> Stream:
    p = PARTITION
    n, nodes = p["events"], p["nodes"]
    rng = np.random.default_rng([seed, 5])
    src = rng.integers(0, nodes, n)
    dst = rng.integers(0, nodes, n)
    clash = src == dst
    dst[clash] = (dst[clash] + 1) % nodes
    # uniform in [0, t_max) with microsecond resolution, written exactly
    micros = np.sort(rng.integers(0, p["t_max"] * 10**6, n))
    src, dst = relabel_by_first_appearance(src, dst)
    secs, frac = np.divmod(micros, 10**6)
    t_text = [f"{a}.{b:06d}" for a, b in zip(secs.tolist(), frac.tolist())]
    write_stream_csv(d / "stream.csv", src, dst, t_text)
    return Stream(src, dst, micros / 1e6, directed=True)


def cmd_partition(d: Path, out: Path, seed: int) -> list[list[str]]:
    ratios = ",".join(str(r) for r in PARTITION["ratios"])
    return [
        ["sweep", str(d / "stream.csv"), "--ratios", ratios,
         "--out", str(out / "sweep")],
        ["bd", str(d / "stream.csv"), "--keys", "node,edge",
         "--out", str(out / "bd")],
    ]


# Why each workload exists is in BENCHMARK.json and README.md: eval-uniform
# is the write side, external-dense the read side and export path,
# partition-100k the partition and diagram layers.
WORKLOADS = {
    w.name: w for w in (
        Workload("eval-uniform", gen_eval_uniform, cmd_eval_uniform,
                 ("eval/scores.csv", "eval/auc.csv", "eval/auc_summary.csv",
                  "eval/mar.csv", "eval/mar.svg")),
        Workload("external-dense", gen_external_dense, cmd_external_dense,
                 ("sample/negatives.csv", "eval/auc_seed0.csv", "eval/auc_seed1.csv",
                  "eval/auc_summary.csv", "eval/mar.csv", "eval/mar.svg")),
        Workload("partition-100k", gen_partition, cmd_partition,
                 ("sweep/sweep.csv", "sweep/surprise_curve.svg", "bd/bd_node.csv",
                  "bd/bd_node.svg", "bd/bd_edge.csv", "bd/bd_edge.svg")),
    )
}


def prepare(workload: Workload, seed: int, cache: Path) -> tuple[Path, Stream]:
    """Generate the workload's inputs for ``seed`` once; reuse them after."""
    d = cache / f"{workload.name}-{seed}"
    if (d / "stream.npz").exists():
        return d, load_stream(d)
    tmp = cache / f".{workload.name}-{seed}.partial"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    s = workload.generate(seed, tmp)
    save_stream(tmp, s)
    tmp.rename(d)
    old = sorted(cache.glob(f"{workload.name}-*"), key=lambda p: p.stat().st_mtime)
    for stale in old[:-CACHE_KEEP]:
        shutil.rmtree(stale, ignore_errors=True)
    return d, s
