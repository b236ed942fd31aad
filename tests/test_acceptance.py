"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1 and 7 need the public uci and enron interaction datasets, which
cannot be bundled here. Point DLPEVAL_DATA_DIR (or create ./data) at a
directory containing uci.csv and enron.csv; the standard distributed form
(header, optional leading index column, then source, destination, timestamp,
extras) is accepted. Without the files those two tests skip explicitly.
"""

import csv
import io
import json
import os
import resource
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    SCENARIO_T_SPLIT,
    build_history,
    category_of,
    lifetime_rows,
    pair_counting_auc,
    random_history,
    sample_and_score,
    scenario_history,
    worked_example_log,
    written_log,
)
from dlpeval import (
    History,
    KeyKind,
    NegativeStrategy,
    ScoreLogError,
    ScoreLogMeta,
    ScorerKind,
    batch_auc,
    build_candidate_index,
    compute_cutoff,
    lifetimes,
    mar_time_series,
    mean_auc_over_batches,
    partition_report,
    read_score_log,
    sample_negatives,
    write_score_log,
)
from dlpeval.cli import main
from dlpeval.diagrams import bd_diagram, mar_plot, surprise_curve
from dlpeval.partition import SweepPoint


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException as exc:
        verdict = "SKIP" if exc.__class__.__name__ == "Skipped" else "FAIL"
        print(f"[criterion {num:02d}] {verdict} {name}: {exc}")
        raise
    print(f"[criterion {num:02d}] PASS {name}")


# -- real-data plumbing ------------------------------------------------------

TABLE1 = {
    "uci": {
        KeyKind.NODE: (1899, 1052, 681, 166, 0.196),
        KeyKind.EDGE: (20296, 17069, 657, 2570, 0.796),
    },
    "enron": {
        KeyKind.NODE: (184, 43, 138, 3, 0.021),
        KeyKind.EDGE: (3125, 1914, 724, 487, 0.402),
    },
}


def _data_dir() -> Path | None:
    for candidate in (os.environ.get("DLPEVAL_DATA_DIR"), "data"):
        if candidate and Path(candidate).is_dir():
            return Path(candidate)
    return None


def _real_dataset(name: str, tmp_path: Path) -> Path:
    root = _data_dir()
    if root is None or not (root / f"{name}.csv").exists():
        pytest.skip(
            f"{name}.csv not found; set DLPEVAL_DATA_DIR to a directory "
            "holding the public dataset CSVs"
        )
    raw = root / f"{name}.csv"
    with open(raw, newline="") as fh:
        header = next(csv.reader(fh))
    if header and header[0].strip():
        return raw
    # distributed files often carry a leading unnamed index column: strip it
    normalized = tmp_path / f"{name}_normalized.csv"
    with open(raw, newline="") as src, open(normalized, "w", newline="") as dst:
        writer = csv.writer(dst)
        for row in csv.reader(src):
            writer.writerow(row[1:])
    return normalized


def _parse_partition_csv(path: Path) -> dict:
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows[row["kind"]] = (
                int(row["total"]), int(row["historical"]), int(row["overlap"]),
                int(row["inductive"]),
                float(row["surprise"]) if row["surprise"] else None,
            )
    return rows


def test_real_dataset_normalization_strips_index_column(tmp_path, monkeypatch):
    # not a criterion: guards the loading path the gated tests rely on
    data = tmp_path / "datadir"
    data.mkdir()
    (data / "fake.csv").write_text(
        ",u,i,ts,label,idx\n0,7,9,1.0,0,0\n1,8,9,2.0,0,1\n"
    )
    monkeypatch.setenv("DLPEVAL_DATA_DIR", str(data))
    normalized = _real_dataset("fake", tmp_path)
    assert normalized.read_text().splitlines()[0] == "u,i,ts,label,idx"
    from dlpeval import ingest_csv

    h = ingest_csv(normalized, schema="jodie")
    assert len(h) == 2 and h.t.tolist() == [1.0, 2.0]


# -- criteria ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["uci", "enron"])
def test_criterion_1_dataset_statistics(name, tmp_path, capsys):
    with criterion(1, f"statistics reproduction ({name})"):
        dataset = _real_dataset(name, tmp_path)
        out = tmp_path / "out"
        start = time.perf_counter()
        with capsys.disabled():
            code = main(["stats", str(dataset), "--schema", "jodie",
                         "--test-ratio", "0.15", "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        got = _parse_partition_csv(out / "partition.csv")
        for kind, expected in TABLE1[name].items():
            total, hist, over, ind, surprise = got[kind.value]
            for actual, target in zip((total, hist, over, ind), expected[:4]):
                assert abs(actual - target) <= max(1, round(0.005 * target)), (
                    f"{name} {kind.value}: {actual} vs expected {target}"
                )
            assert abs(surprise - expected[4]) <= 0.002, (
                f"{name} {kind.value} surprise {surprise} vs {expected[4]}"
            )


def test_criterion_2_surprise_worked_examples():
    with criterion(2, "synthetic surprise scenarios exact"):
        expected = {1: (1 / 5, 1 / 7), 2: (1 / 5, 4 / 10), 3: (2 / 6, 2 / 8)}
        for scenario, (node_s, edge_s) in expected.items():
            report = partition_report(scenario_history(scenario), SCENARIO_T_SPLIT)
            assert report.counts[KeyKind.NODE].surprise == node_s
            assert report.counts[KeyKind.EDGE].surprise == edge_s


def test_criterion_3_mar_worked_example():
    with criterion(3, "rank worked example exact"):
        series = mar_time_series(worked_example_log(), bins=1)
        assert series.mar[:, 0].tolist() == [7 / 4, 2.0, 9 / 4]


def _repeat_fraction_stream(p: float, n_test: int = 40):
    """Stream where exactly a fraction p of the test positives repeat train
    edges. Historical negatives come from train-only filler edges; overlap
    negatives come from the repeating edges themselves (present for p > 0).
    The train side is padded so one batch boundary falls exactly on the
    cutoff and the whole test side fits a single batch."""
    events = [(100 + i, 200 + i, float(1 + i)) for i in range(50)]
    n_repeat = round(p * n_test)
    for j in range(n_repeat):  # train occurrences of the repeating edges
        events.append((500 + j, 600 + j, float(100 + j)))
    train_count = len(events)
    t = 1000.0
    for j in range(n_test):
        if j < n_repeat:
            events.append((500 + j, 600 + j, t))
        else:
            events.append((700 + j, 800 + j, t))
        t += 1.0
    return build_history(events), 1000.0, train_count


def test_criterion_4_edgebank_below_half():
    with criterion(4, "edge-memory AUC equals p/2 against the pair oracle"):
        for p in (0.0, 0.25, 0.5, 1.0):
            h, t_split, train_count = _repeat_fraction_stream(p)
            strategies = [NegativeStrategy.HE]
            if p > 0:  # overlap edges exist only when something repeats
                strategies.append(NegativeStrategy.OE)
            log = sample_and_score(
                h, t_split, ScorerKind.EDGEBANK, strategies,
                k_per_strategy=1, batch_size=train_count, seed=3,
            )
            for strategy in strategies:
                report = mean_auc_over_batches(log, strategy.value, "test", t_split)
                test_mask = log.timestamp >= t_split
                pos = log.score[test_mask & (log.role == log.names.index("positive"))]
                neg = log.score[test_mask & (log.role == log.names.index(strategy.value))]
                assert np.all(neg == 1), "every sampled negative must score 1"
                oracle = pair_counting_auc(pos, neg)
                assert report.mean_auc == oracle == p / 2
                if p < 1.0:
                    assert report.mean_auc < 0.5


def test_criterion_5_auc_oracle_equivalence():
    with criterion(5, "AUC equals exhaustive pair counting on 1000 cases"):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            n_pos = int(rng.integers(1, 101))
            n_neg = int(rng.integers(1, 101))
            pos = rng.integers(0, 6, n_pos) / 5.0
            neg = rng.integers(0, 6, n_neg) / 5.0
            auc = batch_auc(pos, neg)
            assert auc == pair_counting_auc(pos, neg)
            assert batch_auc(neg, pos) + auc == pytest.approx(1.0)
            transformed = batch_auc(3.0 * pos + 1.0, 3.0 * neg + 1.0)
            assert transformed == auc


def _three_phase_history(rng) -> tuple[History, float]:
    """Random stream guaranteed to populate every temporal category: ten
    early nodes die before the cutoff, ten spanning nodes stay active
    throughout, ten late nodes are born after it."""
    early, span, late = np.arange(0, 10), np.arange(10, 20), np.arange(20, 30)
    events = []

    def burst(pool, lo, hi, n):
        for _ in range(n):
            u, v = rng.choice(pool, size=2, replace=False)
            events.append((int(u), int(v), float(rng.uniform(lo, hi))))

    burst(np.concatenate([early, span]), 0.0, 40.0, 250)
    burst(span, 40.0, 60.0, 100)
    burst(np.concatenate([span, late]), 60.0, 100.0, 250)
    src, dst, t = zip(*events)
    return History.from_arrays(src, dst, t, num_nodes=30), 50.0


def test_criterion_6_sampler_category_correctness():
    with criterion(6, "sampler category / timestamp / determinism"):
        rng = np.random.default_rng(77)
        per_strategy_target = 10_000
        k = 20
        checked = {s: 0 for s in NegativeStrategy if s is not NegativeStrategy.RND}

        for round_no in range(40):
            if min(checked.values()) >= per_strategy_target:
                break
            h, t_split = _three_phase_history(rng)
            idx = build_candidate_index(h, t_split)
            node_life = lifetime_rows(lifetimes(h, KeyKind.NODE))
            edge_life = lifetime_rows(lifetimes(h, KeyKind.EDGE))
            events = rng.integers(0, len(h), 30)
            for strategy in checked:
                if len(idx.pools[strategy]) == 0:
                    continue
                u, v, ok = sample_negatives(idx, strategy, events, k, round_no)
                u, v = u[ok], v[ok]
                # negatives keep the endpoint they do not replace (and are
                # drawn at their positive's timestamp by construction)
                if strategy.replaces == "source":
                    assert (v == h.dst[events[ok], None]).all()
                elif strategy.replaces == "destination":
                    assert (u == h.src[events[ok], None]).all()
                for a, b in zip(u.ravel().tolist(), v.ravel().tolist()):
                    if strategy.replaces == "edge":
                        life = edge_life[(a, b)]
                    elif strategy.replaces == "source":
                        life = node_life[a]
                    else:
                        life = node_life[b]
                    assert category_of(life, t_split) is strategy.category
                checked[strategy] += u.size
        assert min(checked.values()) >= per_strategy_target, checked
        # determinism: byte-identical serialized logs for equal seeds
        h = random_history(np.random.default_rng(5), n_events=400, n_nodes=25)
        meta = ScoreLogMeta("synthetic", 50.0, 64, ("HE", "OE", "IE"), 2, 11, "edgebank")

        def one_run():
            log = sample_and_score(
                h, 50.0, ScorerKind.EDGEBANK,
                [NegativeStrategy.HE, NegativeStrategy.OE, NegativeStrategy.IE],
                k_per_strategy=2, batch_size=64, seed=11,
            )
            return written_log(log, meta).encode()

        assert one_run() == one_run()


@pytest.mark.parametrize("name", ["uci", "enron"])
def test_criterion_7_heuristic_ordering(name, tmp_path):
    with criterion(7, f"heuristic AUC ordering pattern ({name})"):
        dataset = _real_dataset(name, tmp_path)
        from dlpeval import GraphKind, ingest_csv

        h = ingest_csv(dataset, schema="jodie", kind=GraphKind(directed=True))
        t_split = compute_cutoff(h, 0.15)
        strategies = [NegativeStrategy[s] for s in ("HE", "OE", "IE", "HD", "OD", "ID")]
        means = {}
        for scorer in (ScorerKind.EDGEBANK, ScorerKind.PREFERENTIAL_ATTACHMENT):
            log = sample_and_score(h, t_split, scorer, strategies,
                                   k_per_strategy=1, batch_size=200, seed=0)
            for s in strategies:
                report = mean_auc_over_batches(log, s.value, "test", t_split)
                means[(scorer, s.value)] = report.mean_auc
        for scorer in (ScorerKind.EDGEBANK, ScorerKind.PREFERENTIAL_ATTACHMENT):
            assert means[(scorer, "OE")] <= min(means[(scorer, "HE")],
                                                means[(scorer, "IE")])
            assert means[(scorer, "OD")] <= min(means[(scorer, "HD")],
                                                means[(scorer, "ID")])
        assert means[(ScorerKind.EDGEBANK, "HE")] < 0.5
        assert means[(ScorerKind.EDGEBANK, "OE")] < 0.5


def test_criterion_8_score_exchange_round_trip(tmp_path):
    with criterion(8, "score-log round trip and violation rejection"):
        h = random_history(np.random.default_rng(13), n_events=300, n_nodes=20)
        log = sample_and_score(
            h, 50.0, ScorerKind.EDGEBANK,
            [NegativeStrategy.OE, NegativeStrategy.OD],
            k_per_strategy=2, batch_size=50, seed=4,
        )
        meta = ScoreLogMeta("synthetic", 50.0, 50, ("OE", "OD"), 2, 4, "edgebank")
        path = tmp_path / "scores.csv"
        write_score_log(log, meta, path)
        log2, meta2 = read_score_log(path)
        assert log2 == log and meta2 == meta

        # each constructed violation is rejected
        good = written_log(log, meta).splitlines()

        def corrupt(transform):
            lines = transform(list(good))
            with pytest.raises(ScoreLogError):
                read_score_log(io.StringIO("\n".join(lines) + "\n"))

        def mismatch_timestamp(lines):
            i = next(j for j, l in enumerate(lines)
                     if not l.startswith("#") and ",OE," in l)
            parts = lines[i].split(",")
            parts[5] = repr(float(parts[5]) + 1.0)
            lines[i] = ",".join(parts)
            return lines

        def undeclared_strategy(lines):
            return [l.replace("strategies=OE,OD", "strategies=OD")
                    if l.startswith("#") else l for l in lines]

        def non_numeric_score(lines):
            i = next(j for j, l in enumerate(lines) if not l.startswith("#")
                     and not l.startswith("event_ordinal"))
            parts = lines[i].split(",")
            parts[6] = "not-a-number"
            lines[i] = ",".join(parts)
            return lines

        corrupt(mismatch_timestamp)
        corrupt(undeclared_strategy)
        corrupt(non_numeric_score)


def test_criterion_9_two_million_event_performance():
    with criterion(9, "2M-event lifetimes + partition under 10 s / 2 GB"):
        rng = np.random.default_rng(123)
        n_events, n_nodes = 2_000_000, 13_000
        src = rng.integers(0, n_nodes, n_events)
        dst = rng.integers(0, n_nodes, n_events)
        clash = src == dst
        dst[clash] = (dst[clash] + 1) % n_nodes
        t = np.sort(rng.uniform(0.0, 1e6, n_events))

        start = time.perf_counter()
        h = History.from_arrays(src, dst, t, num_nodes=n_nodes)
        t_split = compute_cutoff(h, 0.15)
        node_life = lifetimes(h, KeyKind.NODE)
        edge_life = lifetimes(h, KeyKind.EDGE)
        report = partition_report(h, t_split)
        elapsed = time.perf_counter() - start

        peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        assert peak_gb < 2.0, f"peak RSS {peak_gb:.2f} GB"
        assert len(node_life) == report.counts[KeyKind.NODE].total
        assert len(edge_life) == report.counts[KeyKind.EDGE].total
        assert report.counts[KeyKind.NODE].surprise is not None


def test_criterion_10_diagram_golden_stability(tmp_path):
    with criterion(10, "diagrams byte-identical and parseable"):
        h = scenario_history(2)
        life = lifetimes(h, KeyKind.EDGE)
        sweep = [SweepPoint(r, r / 3, r / 2) for r in (0.1, 0.15, 0.3, 0.5)]
        series = mar_time_series(worked_example_log(), bins=1)

        renders = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            out.mkdir()
            bd_svg, bd_csv = bd_diagram([("", life)], SCENARIO_T_SPLIT,
                                        out / "bd.svg", out / "bd.csv", seed=7)
            curve = surprise_curve({"synthetic": sweep}, out / "curve.svg")
            mar = mar_plot(series, t_split=1.5, svg_path=out / "mar.svg")
            for svg in (bd_svg, curve, mar):
                ET.parse(svg)  # strict XML parse
            renders.append(b"".join(
                p.read_bytes() for p in (bd_svg, bd_csv, curve, mar)
            ))
        assert renders[0] == renders[1]
