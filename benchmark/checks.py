"""Output checks for each workload, backed by numpy oracles of our own.

The checks read only the files dlpeval writes and the generator's arrays;
none imports dlpeval. No check pins which negatives are drawn: a negative is
right when it sits at its positive's timestamp, is not a true event there,
and belongs to the category its strategy names.

``corruptions`` lists, per workload, a deliberate damage to one output file
and the check that must catch it; ``run.py`` feeds each to its check so that
a pass of the checks is known not to be vacuous.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from workloads import (
    EXTERNAL_DENSE,
    PARTITION,
    TEST_RATIO,
    Stream,
    cutoff,
    is_true_event,
    model_log_columns,
    node_categories,
    true_event_codes,
)


class CheckFailed(Exception):
    pass


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Context:
    stream: Stream
    inputs: Path  # generated input files
    out: Path  # dlpeval's outputs
    overrides: dict[str, Path] = field(default_factory=dict)  # output -> substitute
    _tables: dict = field(default_factory=dict)

    def path(self, rel: str) -> Path:
        return self.overrides.get(rel, self.out / rel)

    def table(self, rel: str, separators: str = "") -> tuple[list[str], np.ndarray]:
        """(header lines, rows x fields array of str) of an unquoted CSV;
        lines starting with ``#`` and the column row form the header. Each
        character of ``separators`` also splits fields."""
        key = (rel, separators)
        if key not in self._tables:
            text = self.path(rel).read_text(encoding="utf-8")
            lines = text.split("\n")
            head = 0
            while head < len(lines) and lines[head].startswith("#"):
                head += 1
            expect(head < len(lines), f"{rel}: no column row")
            body = "\n".join(line for line in lines[head + 1:] if line)
            for sep in separators:
                body = body.replace(sep, ",")
            width = body.split("\n", 1)[0].count(",") + 1
            flat = body.replace("\n", ",").split(",") if body else []
            rows = body.count("\n") + 1 if body else 0
            expect(len(flat) == rows * width, f"{rel}: rows do not all have {width} fields")
            self._tables[key] = (lines[:head + 1], np.array(flat).reshape(rows, width))
        return self._tables[key]


# -- oracles ------------------------------------------------------------------


def key_lifetimes(keys: np.ndarray, times: np.ndarray):
    """(distinct keys, births, deaths) by sorting, not by scatter-min/max."""
    order = np.lexsort((times, keys))
    keys, times = keys[order], times[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    ends = np.r_[starts[1:], len(keys)] - 1
    return keys[starts], times[starts], times[ends]


def node_lifetimes(s: Stream):
    return key_lifetimes(np.concatenate([s.src, s.dst]), np.concatenate([s.t, s.t]))


def categories(births, deaths, t_split) -> np.ndarray:
    return np.where(deaths < t_split, "historical",
                    np.where(births >= t_split, "inductive", "overlap"))


def surprise(births, deaths, t_split, extra_inductive: int = 0) -> float | None:
    inductive = int(np.count_nonzero(births >= t_split)) + extra_inductive
    overlap = int(np.count_nonzero((births < t_split) & (deaths >= t_split)))
    return None if inductive + overlap == 0 else inductive / (inductive + overlap)


def pair_counting_auc(pos: np.ndarray, neg: np.ndarray) -> float:
    """(#{p > n} + #{p = n} / 2) / (|P| |N|) over every pair."""
    greater = np.count_nonzero(pos[:, None] > neg[None, :])
    ties = np.count_nonzero(pos[:, None] == neg[None, :])
    return (greater + 0.5 * ties) / (len(pos) * len(neg))


def batch_aucs(cols: dict, strategy: str, t_split: float) -> list[tuple]:
    """[(batch, t_start, t_end, auc)] over the test period, batches lacking
    either class left out."""
    keep = (cols["t"] >= t_split) & ((cols["role"] == "positive")
                                     | (cols["role"] == strategy))
    out = []
    for b in np.unique(cols["batch"][keep]):
        sel = keep & (cols["batch"] == b)
        pos = cols["score"][sel & (cols["role"] == "positive")]
        neg = cols["score"][sel & (cols["role"] == strategy)]
        if len(pos) and len(neg):
            times = cols["t"][sel]
            out.append((int(b), float(times.min()), float(times.max()),
                        pair_counting_auc(pos, neg)))
    return out


# -- shared checks -------------------------------------------------------------


def score_log_columns(ctx: Context, rel: str) -> tuple[list[str], dict]:
    head, a = ctx.table(rel)
    expect(a.shape[1] == 7, f"{rel}: expected 7 fields per record")
    expect(len(a), f"{rel}: no records")
    header = dict(line[1:].strip().split("=", 1) for line in head if line.startswith("#"))
    return header, {
        "ordinal": a[:, 0].astype(np.int64), "batch": a[:, 1].astype(np.int64),
        "role": a[:, 2], "src": a[:, 3].astype(np.int64),
        "dst": a[:, 4].astype(np.int64), "t": a[:, 5].astype(np.float64),
        "score": a[:, 6].astype(np.float64),
    }


def check_auc_csv(ctx: Context, rel: str, cols: dict, strategies, t_split) -> list[float]:
    """Every row of an auc.csv equals pair counting over the same batch;
    returns each strategy's mean AUC."""
    _, a = ctx.table(rel)
    means = []
    for strategy in strategies:
        want = batch_aucs(cols, strategy, t_split)
        rows = a[a[:, 0] == strategy]
        got = list(zip(rows[:, 1].astype(int).tolist(),
                       rows[:, 2].astype(float).tolist(),
                       rows[:, 3].astype(float).tolist(),
                       rows[:, 4].astype(float).tolist()))
        expect(got == want, f"{rel}: {strategy} batch AUCs differ from pair counting")
        means.append(float(np.mean([w[3] for w in want])))
    return means


def check_auc_summary(ctx: Context, rel: str, per_log_means, strategies) -> None:
    _, a = ctx.table(rel)
    expect(a[:, 0].tolist() == list(strategies), f"{rel}: strategy rows")
    for s_idx, row in enumerate(a.tolist()):
        aucs = [means[s_idx] for means in per_log_means]
        want = (float(np.mean(aucs)), float(np.std(aucs)), len(aucs))
        got = (float(row[1]), float(row[2]), int(row[3]))
        expect(got == want, f"{rel}: {row[0]} is {got}, pair counting gives {want}")


def check_mar_counts(ctx: Context, rel: str, records: int) -> None:
    _, a = ctx.table(rel)
    total = int(a[:, 5].astype(np.int64).sum())
    expect(total == records, f"{rel}: counts sum to {total}, the log has {records}")


def check_svgs(ctx: Context, names) -> None:
    for name in names:
        try:
            root = ET.parse(ctx.path(name)).getroot()
        except ET.ParseError as exc:
            raise CheckFailed(f"{name} does not parse as XML: {exc}") from None
        expect(root.tag.endswith("svg"), f"{name}: root element is {root.tag}")


def check_negatives(s: Stream, ordinal, role, u, v, t, per_event: dict) -> None:
    """Negatives sit at their positive's timestamp, form no self-loop, are
    not a true event there, and each event has ``per_event[role]`` of them."""
    n = len(s.t)
    expect(len(ordinal) and ordinal.min() >= 0 and ordinal.max() < n,
           "negative ordinals out of range")
    expect(np.array_equal(t, s.t[ordinal]),
           "a negative's timestamp differs from its positive's")
    expect(not np.any(u == v), "a negative is a self-loop")
    uniq_t, codes = true_event_codes(s)
    hits = is_true_event(s, uniq_t, codes, u, v, t)
    expect(not hits.any(), f"{int(hits.sum())} negative(s) collide with a true "
                           "event at their timestamp")
    for r, k in per_event.items():
        counts = np.bincount(ordinal[role == r], minlength=n)
        expect(np.all(counts == k), f"{r}: not exactly {k} negatives per event")


# -- eval-uniform ---------------------------------------------------------------

EVAL_STRATEGIES = ("HE", "OE", "IE")
SCORES = "eval/scores.csv"


def eu_records(ctx: Context) -> None:
    s = ctx.stream
    header, cols = score_log_columns(ctx, SCORES)
    t_split = cutoff(s.t, TEST_RATIO)
    expect(float(header.get("t_split", "nan")) == t_split,
           f"header t_split {header.get('t_split')} is not the cutoff {t_split!r}")
    pos = cols["role"] == "positive"
    expect(np.array_equal(cols["ordinal"][pos], np.arange(len(s.t))),
           "positives are not one per event in stream order")
    expect(np.array_equal(cols["src"][pos], s.src)
           and np.array_equal(cols["dst"][pos], s.dst)
           and np.array_equal(cols["t"][pos], s.t),
           "positive records differ from the stream's events")
    scored = int(pos.sum())
    want = scored * (1 + len(EVAL_STRATEGIES))
    expect(len(pos) == want, f"{len(pos)} records for {scored} scored events, "
                             f"expected {want}")


def eu_negatives(ctx: Context) -> None:
    _, cols = score_log_columns(ctx, SCORES)
    neg = cols["role"] != "positive"
    check_negatives(ctx.stream, cols["ordinal"][neg], cols["role"][neg],
                    cols["src"][neg], cols["dst"][neg], cols["t"][neg],
                    {r: 1 for r in EVAL_STRATEGIES})


def eu_edge_categories(ctx: Context) -> None:
    s = ctx.stream
    _, cols = score_log_columns(ctx, SCORES)
    keys, births, deaths = key_lifetimes(s.edge_keys(), s.t)
    cats = categories(births, deaths, cutoff(s.t, TEST_RATIO))
    n = np.int64(s.num_nodes)
    for role, cat in {"HE": "historical", "OE": "overlap", "IE": "inductive"}.items():
        sel = cols["role"] == role
        q = cols["src"][sel] * n + cols["dst"][sel]
        at = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
        expect(np.all(keys[at] == q), f"{role}: a negative is not an observed edge")
        expect(np.all(cats[at] == cat), f"{role}: a negative edge is not {cat}")


def eu_auc(ctx: Context) -> None:
    _, cols = score_log_columns(ctx, SCORES)
    t_split = cutoff(ctx.stream.t, TEST_RATIO)
    means = check_auc_csv(ctx, "eval/auc.csv", cols, EVAL_STRATEGIES, t_split)
    check_auc_summary(ctx, "eval/auc_summary.csv", [means], EVAL_STRATEGIES)


def eu_mar(ctx: Context) -> None:
    _, cols = score_log_columns(ctx, SCORES)
    check_mar_counts(ctx, "eval/mar.csv", len(cols["role"]))


# -- external-dense -------------------------------------------------------------


def sampled_negatives(ctx: Context) -> dict:
    _, a = ctx.table("sample/negatives.csv")
    expect(a.shape[1] == 5 and len(a), "negatives.csv: expected rows of 5 fields")
    return {"ordinal": a[:, 0].astype(np.int64), "role": a[:, 1],
            "src": a[:, 2].astype(np.int64), "dst": a[:, 3].astype(np.int64),
            "t": a[:, 4].astype(np.float64)}


def ed_negatives(ctx: Context) -> None:
    s = ctx.stream
    neg = sampled_negatives(ctx)
    check_negatives(s, neg["ordinal"], neg["role"], neg["src"], neg["dst"], neg["t"],
                    {r: EXTERNAL_DENSE["k"] for r in EXTERNAL_DENSE["strategies"]})
    expect(np.array_equal(neg["src"], s.src[neg["ordinal"]]),
           "a destination replacement changed the source")


def ed_node_categories(ctx: Context) -> None:
    s = ctx.stream
    neg = sampled_negatives(ctx)
    ids, codes = node_categories(s, cutoff(s.t, TEST_RATIO))
    code_of = np.full(s.num_nodes, -1)
    code_of[ids] = codes
    dst = neg["dst"]
    expect(np.all((dst >= 0) & (dst < s.num_nodes)), "a replacement is not a node")
    for role, code in {"HD": 0, "OD": 1, "ID": 2}.items():
        expect(np.all(code_of[dst[neg["role"] == role]] == code),
               f"{role}: a replacement node is outside its category")
    expect(np.all(code_of[dst[neg["role"] == "RND"]] >= 0),
           "RND: a replacement is not an observed node")


def ed_auc(ctx: Context) -> None:
    strategies = EXTERNAL_DENSE["strategies"]
    t_split = cutoff(ctx.stream.t, TEST_RATIO)
    per_log = [
        check_auc_csv(ctx, f"eval/auc_seed{m}.csv",
                      model_log_columns(ctx.stream, ctx.inputs, m), strategies, t_split)
        for m in range(EXTERNAL_DENSE["models"])
    ]
    check_auc_summary(ctx, "eval/auc_summary.csv", per_log, strategies)


def ed_mar(ctx: Context) -> None:
    records = len(model_log_columns(ctx.stream, ctx.inputs, 0)["role"])
    check_mar_counts(ctx, "eval/mar.csv", records)


# -- partition-100k -------------------------------------------------------------


def pt_sweep(ctx: Context) -> None:
    s = ctx.stream
    _, a = ctx.table("sweep/sweep.csv")
    ratios = PARTITION["ratios"]
    expect(a[:, 0].astype(float).tolist() == list(ratios), "sweep.csv: ratios")
    lives = {1: node_lifetimes(s), 2: key_lifetimes(s.edge_keys(), s.t)}
    for ratio, row in zip(ratios, a.tolist()):
        t_split = cutoff(s.t, ratio)
        for col, (_, births, deaths) in lives.items():
            want = surprise(births, deaths, t_split)
            got = None if row[col] == "" else float(row[col])
            expect(got == want, f"sweep.csv ratio {ratio}, column {col}: {got}, "
                                f"counting gives {want}")


def check_bd_csv(ctx: Context, rel: str, keys, births, deaths, key_of) -> None:
    """One row per distinct key, with its birth, death and category."""
    _, a = ctx.table(rel, separators="|")
    expect(len(a) == len(keys), f"{rel}: {len(a)} rows for {len(keys)} distinct keys")
    got = key_of(a)
    order = np.argsort(got)
    expect(np.array_equal(got[order], keys), f"{rel}: keys differ from the stream's")
    a = a[order]
    expect(np.array_equal(a[:, -3].astype(np.float64), births)
           and np.array_equal(a[:, -2].astype(np.float64), deaths),
           f"{rel}: a birth or death time is wrong")
    wrong = np.count_nonzero(
        a[:, -1] != categories(births, deaths, cutoff(ctx.stream.t, TEST_RATIO)))
    expect(wrong == 0, f"{rel}: {wrong} key(s) in the wrong category")


def pt_bd_edge(ctx: Context) -> None:
    s = ctx.stream
    n = np.int64(s.num_nodes)
    check_bd_csv(ctx, "bd/bd_edge.csv", *key_lifetimes(s.edge_keys(), s.t),
                 lambda a: a[:, 0].astype(np.int64) * n + a[:, 1].astype(np.int64))


def pt_bd_node(ctx: Context) -> None:
    check_bd_csv(ctx, "bd/bd_node.csv", *node_lifetimes(ctx.stream),
                 lambda a: a[:, 0].astype(np.int64))


CHECKS: dict[str, dict[str, Callable[[Context], None]]] = {
    "eval-uniform": {
        "records": eu_records, "negatives": eu_negatives,
        "edge_categories": eu_edge_categories, "auc": eu_auc, "mar_counts": eu_mar,
        "svg": lambda ctx: check_svgs(ctx, ["eval/mar.svg"]),
    },
    "external-dense": {
        "negatives": ed_negatives, "node_categories": ed_node_categories,
        "auc": ed_auc, "mar_counts": ed_mar,
        "svg": lambda ctx: check_svgs(ctx, ["eval/mar.svg"]),
    },
    "partition-100k": {
        "sweep": pt_sweep, "bd_edge": pt_bd_edge, "bd_node": pt_bd_node,
        "svg": lambda ctx: check_svgs(
            ctx, ["sweep/surprise_curve.svg", "bd/bd_node.svg", "bd/bd_edge.svg"]),
    },
}


# -- deliberate corruptions for the self-test ----------------------------------


@dataclass(frozen=True)
class Corruption:
    name: str
    file: str  # relative to the out dir
    corrupt: Callable[[list[str]], None]  # edits the file's lines in place
    must_fail: str  # the check that has to catch it


def _first_row(lines: list[str], col: int, role: str) -> int:
    """Index of the first data line whose field ``col`` is ``role``."""
    for i, line in enumerate(lines):
        if line[:1].isdigit() and line.split(",")[col] == role:
            return i
    raise ValueError("no data line to corrupt")


def _set_field(lines: list[str], i: int, col: int, value: str) -> None:
    row = lines[i].split(",")
    row[col] = value
    lines[i] = ",".join(row)


def _field(lines: list[str], i: int, col: int) -> str:
    return lines[i].split(",")[col]


def corruptions(workload: str, s: Stream) -> list[Corruption]:
    def score_negative_onto_positive(lines):
        i = _first_row(lines, 2, "positive")  # its first negative follows it
        _set_field(lines, i + 1, 3, _field(lines, i, 3))
        _set_field(lines, i + 1, 4, _field(lines, i, 4))

    def mar_count_off_by_one(lines):
        _set_field(lines, 1, 5, str(int(_field(lines, 1, 5)) + 1))

    def auc_last_digit(col):
        def corrupt(lines):
            value = float(_field(lines, 1, col))
            _set_field(lines, 1, col, repr(math.nextafter(value, math.inf)))
        return corrupt

    def sampled_negative_onto_positive(lines):
        _set_field(lines, 1, 3, str(int(s.dst[int(_field(lines, 1, 0))])))

    def replacement_outside_category(lines):
        i = _first_row(lines, 1, "HD")
        ids, codes = node_categories(s, cutoff(s.t, TEST_RATIO))
        _set_field(lines, i, 3, str(int(ids[codes == 2][0])))  # an inductive node

    def sweep_inductive_off_by_one(lines):
        _, births, deaths = key_lifetimes(s.edge_keys(), s.t)
        t_split = cutoff(s.t, float(_field(lines, 1, 0)))
        _set_field(lines, 1, 2, repr(surprise(births, deaths, t_split, extra_inductive=1)))

    def drop_first_row(lines):
        del lines[1]

    def truncate(lines):
        del lines[len(lines) // 2:]

    return {
        "eval-uniform": [
            Corruption("negative_on_true_edge", SCORES,
                       score_negative_onto_positive, "negatives"),
            Corruption("mar_count_off_by_one", "eval/mar.csv",
                       mar_count_off_by_one, "mar_counts"),
            Corruption("auc_last_digit", "eval/auc.csv", auc_last_digit(4), "auc"),
        ],
        "external-dense": [
            Corruption("negative_on_true_edge", "sample/negatives.csv",
                       sampled_negative_onto_positive, "negatives"),
            Corruption("hd_replacement_inductive", "sample/negatives.csv",
                       replacement_outside_category, "node_categories"),
            Corruption("auc_summary_last_digit", "eval/auc_summary.csv",
                       auc_last_digit(1), "auc"),
        ],
        "partition-100k": [
            Corruption("bd_edge_row_dropped", "bd/bd_edge.csv", drop_first_row, "bd_edge"),
            Corruption("inductive_count_off_by_one", "sweep/sweep.csv",
                       sweep_inductive_off_by_one, "sweep"),
            Corruption("svg_truncated", "bd/bd_edge.svg", truncate, "svg"),
        ],
    }[workload]
