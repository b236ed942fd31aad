from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SCENARIO_T_SPLIT,
    brute_force_lifetimes,
    build_history,
    category_of,
    lifetime_rows,
    random_history,
    scenario_history,
)
from dlpeval import (
    DegenerateSplitError,
    GraphKind,
    History,
    KeyKind,
    LifetimeTable,
    TemporalCategory,
    compute_cutoff,
    lifetimes,
    partition_report,
    split,
    surprise_sweep,
)
from dlpeval.partition import write_partition_csv, write_sweep_csv

_RATIOS = (0.1, 0.15, 0.2, 0.25, 0.3, 0.5, 0.7, 0.9)


def _ladder(n=10):
    """n events at t = 1..n between rotating node pairs."""
    return build_history([(i % 3, 3 + (i % 4), float(i + 1)) for i in range(n)])


class TestComputeCutoff:
    def test_exact_quantile(self):
        h = _ladder(10)
        assert compute_cutoff(h, 0.2) == 9.0
        train, test = split(h, 9.0)
        assert (len(train), len(test)) == (8, 2)

    def test_all_equal_timestamps_degenerate(self):
        h = build_history([(0, 1, 5.0)] * 10)
        with pytest.raises(DegenerateSplitError):
            compute_cutoff(h, 0.15)
        with pytest.raises(DegenerateSplitError, match="cannot split an empty history"):
            compute_cutoff(History.from_arrays([], [], []), 0.15)

    def test_ties_at_cutoff_go_to_test(self):
        h = build_history([(0, 1, t) for t in (1.0, 2.0, 3.0, 9.0, 9.0, 9.0)])
        t_split = compute_cutoff(h, 0.3)
        assert t_split == 9.0
        train, test = split(h, t_split)
        assert (len(train), len(test)) == (3, 3)

    def test_tie_run_that_empties_train_is_degenerate(self):
        h = build_history([(0, 1, 1.0), (0, 1, 1.0), (0, 1, 2.0)])
        with pytest.raises(DegenerateSplitError):
            compute_cutoff(h, 0.5)

    def test_ratio_bounds(self):
        h = _ladder(10)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                compute_cutoff(h, bad)


class TestSplit:
    def test_boundaries(self):
        h = _ladder(10)
        train, test = split(h, h.t[0])
        assert (len(train), len(test)) == (0, 10)
        train, test = split(h, h.t[-1] + 1)
        assert (len(train), len(test)) == (10, 0)

    def test_partition_is_exact(self):
        rng = np.random.default_rng(0)
        h = random_history(rng, n_events=200)
        for cutoff in (0.0, 33.3, h.t[-1]):
            train, test = split(h, cutoff)
            assert len(train) + len(test) == len(h)
            assert all(train.t < cutoff)
            assert all(test.t >= cutoff)


class TestLifetimes:
    def test_single_event(self):
        h = build_history([(0, 1, 7.0)])
        assert lifetime_rows(lifetimes(h, KeyKind.NODE))[0] == (7.0, 7.0)
        assert lifetime_rows(lifetimes(h, KeyKind.EDGE))[(0, 1)] == (7.0, 7.0)

    def test_min_max_over_events(self):
        h = build_history([(0, 1, 1.0), (0, 2, 5.0)])
        life = lifetime_rows(lifetimes(h, KeyKind.NODE))
        assert life[0] == (1.0, 5.0)
        assert life[1] == (1.0, 1.0)
        assert life[2] == (5.0, 5.0)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(42)
        for kind in (GraphKind(directed=True), GraphKind(directed=False)):
            h = random_history(rng, n_events=10_000, n_nodes=60, kind=kind)
            nodes = lifetimes(h, KeyKind.NODE)
            assert lifetime_rows(nodes) == brute_force_lifetimes(h)
            edges = lifetimes(h, KeyKind.EDGE)
            assert lifetime_rows(edges) == brute_force_lifetimes(h, edges=True)

    def test_role_split_restricts_to_role(self):
        h = build_history([(0, 1, 1.0), (1, 0, 9.0)])
        assert lifetime_rows(lifetimes(h, KeyKind.SOURCE_NODE))[0] == (1.0, 1.0)
        assert lifetime_rows(lifetimes(h, KeyKind.DESTINATION_NODE))[0] == (9.0, 9.0)

    def test_role_split_rejected_on_undirected(self):
        h = build_history([(0, 1, 1.0)], kind=GraphKind(directed=False))
        with pytest.raises(ValueError):
            lifetimes(h, KeyKind.SOURCE_NODE)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            lifetimes(build_history([]), KeyKind.NODE)

    def test_table_rejects_unsorted_or_misaligned_columns(self):
        with pytest.raises(ValueError):
            LifetimeTable([1, 0], [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            LifetimeTable([0], [0.0, 1.0], [1.0])


class TestCategorize:
    def test_three_cases(self):
        assert category_of((1, 3), 5.0) is TemporalCategory.HISTORICAL
        assert category_of((6, 9), 5.0) is TemporalCategory.INDUCTIVE
        assert category_of((1, 9), 5.0) is TemporalCategory.OVERLAP

    def test_boundary_is_test_side(self):
        # birth exactly at the cutoff means never seen in train
        assert category_of((5, 9), 5.0) is TemporalCategory.INDUCTIVE
        assert category_of((1, 5), 5.0) is TemporalCategory.OVERLAP


class TestPartitionReport:
    @pytest.mark.parametrize("scenario,node_s,edge_s", [
        (1, 1 / 5, 1 / 7),
        (2, 1 / 5, 4 / 10),
        (3, 2 / 6, 2 / 8),
    ])
    def test_worked_examples_exact(self, scenario, node_s, edge_s):
        h = scenario_history(scenario)
        report = partition_report(h, SCENARIO_T_SPLIT)
        assert report.counts[KeyKind.NODE].surprise == node_s
        assert report.counts[KeyKind.EDGE].surprise == edge_s

    def test_empty_test_side_surprise_undefined(self):
        h = _ladder(10)
        report = partition_report(h, h.t[-1] + 1)
        c = report.counts[KeyKind.NODE]
        assert c.historical == c.total
        assert c.surprise is None

    def test_totals_equal_distinct_keys(self):
        rng = np.random.default_rng(5)
        h = random_history(rng, n_events=500, n_nodes=25)
        report = partition_report(h, 50.0)
        assert report.counts[KeyKind.NODE].total == \
               len(np.unique(np.concatenate([h.src, h.dst])))
        assert report.counts[KeyKind.EDGE].total == \
               len(np.unique(h.edge_keys(h.src, h.dst)))

    def test_category_exhaustiveness_and_edge_dominance(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            kind = GraphKind(directed=bool(trial % 2))
            h = random_history(rng, n_events=300, n_nodes=20, kind=kind)
            for cutoff in rng.uniform(0.0, 110.0, 5):
                report = partition_report(h, float(cutoff))
                for c in report.counts.values():
                    assert c.historical + c.overlap + c.inductive == c.total
                # a never-seen node implies never-seen edges
                assert (report.counts[KeyKind.EDGE].inductive
                        >= report.counts[KeyKind.NODE].inductive)

    def test_affine_time_rescale_invariance(self):
        rng = np.random.default_rng(13)
        h = random_history(rng, n_events=400, n_nodes=20)
        cutoff = 40.0
        base = partition_report(h, cutoff)
        a, b = 3.5, 7.0
        h2 = History.from_arrays(h.src, h.dst, a * h.t + b, h.kind,
                                 num_nodes=h.num_nodes)
        rescaled = partition_report(h2, a * cutoff + b)
        assert rescaled.counts == base.counts


class TestSweep:
    def test_point_per_ratio_in_order(self):
        h = _ladder(40)
        ratios = [0.1, 0.2, 0.3, 0.4, 0.5]
        points = surprise_sweep(h, ratios)
        assert [p.ratio for p in points] == ratios

    def test_full_span_keys_have_zero_surprise(self):
        # every key alive across the whole range: no inductive keys anywhere
        events = []
        for t in range(1, 21):
            events += [(0, 1, float(t)), (2, 3, float(t))]
        h = build_history(events)
        for p in surprise_sweep(h, [0.1, 0.25, 0.5]):
            assert p.node_surprise == 0.0
            assert p.edge_surprise == 0.0

    def test_degenerate_ratio_propagates(self):
        h = build_history([(0, 1, 5.0)] * 6)
        with pytest.raises(DegenerateSplitError):
            surprise_sweep(h, [0.3])


class TestCsvExports:
    def test_partition_csv_shape(self, tmp_path):
        h = scenario_history(1)
        report = partition_report(h, SCENARIO_T_SPLIT)
        path = tmp_path / "partition.csv"
        write_partition_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "kind,total,historical,overlap,inductive,surprise"
        assert lines[1] == "node,5,0,4,1,0.2"
        assert lines[2].startswith("edge,7,0,6,1,")

    def test_sweep_csv_shape(self, tmp_path):
        h = _ladder(40)
        points = surprise_sweep(h, [0.1, 0.5])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(points, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "ratio,node_surprise,edge_surprise"
        assert len(lines) == 3


@st.composite
def _streams(draw):
    """A small directed, undirected or bipartite stream on few timestamps,
    so that ties at every cutoff are common."""
    kind = draw(st.sampled_from([GraphKind(), GraphKind(directed=False),
                                 GraphKind(bipartite=True)]))
    n = draw(st.integers(1, 40))
    times = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    if kind.bipartite:
        src = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        dst = draw(st.lists(st.integers(3, 6), min_size=n, max_size=n))
        return build_history(list(zip(src, dst, map(float, times))), kind=kind,
                             num_nodes=7, num_sources=3)
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6)),
                          min_size=n, max_size=n))
    # the offset in 1..6 keeps every destination off its source
    return build_history([(u, (u + d) % 7, float(t)) for (u, d), t in zip(pairs, times)],
                         kind=kind, num_nodes=7)


def _oracle_cutoff(h, ratio):
    """The documented rule: the timestamp of the
    (floor((1 - ratio) * N) + 1)-th event, None when it is the first one's."""
    k = int((1 - Fraction(str(ratio))) * len(h))
    t_split = sorted(h.t.tolist())[k]
    return None if t_split <= h.t.min() else t_split


def _oracle_counts(h, t_split, edges):
    """(total, historical, overlap, inductive) of the brute-force lifetimes:
    a key dies before the cutoff, is born at or after it, or straddles it."""
    life = brute_force_lifetimes(h, edges=edges).values()
    historical = sum(death < t_split for _, death in life)
    inductive = sum(birth >= t_split for birth, _ in life)
    return len(life), historical, len(life) - historical - inductive, inductive


class TestPartitionProperties:
    """Lifetimes, partition reports, sweeps and cutoffs against the
    brute-force scans of the raw event list."""

    @settings(max_examples=200, deadline=None)
    @given(h=_streams())
    def test_lifetime_columns_match_scan(self, h):
        assert lifetime_rows(lifetimes(h, KeyKind.NODE)) == brute_force_lifetimes(h)
        assert lifetime_rows(lifetimes(h, KeyKind.EDGE)) == \
            brute_force_lifetimes(h, edges=True)

    @settings(max_examples=200, deadline=None)
    @given(h=_streams(), ratio=st.sampled_from(_RATIOS))
    def test_cutoff_follows_documented_rule(self, h, ratio):
        want = _oracle_cutoff(h, ratio)
        if want is None:
            with pytest.raises(DegenerateSplitError):
                compute_cutoff(h, ratio)
        else:
            assert compute_cutoff(h, ratio) == want

    @settings(max_examples=200, deadline=None)
    @given(h=_streams(), at=st.integers(0, 7))
    def test_report_counts_match_scan(self, h, at):
        # cutoffs on event timestamps put ties exactly at the cutoff
        t_split = float(at)
        report = partition_report(h, t_split)
        for kind, edges in ((KeyKind.NODE, False), (KeyKind.EDGE, True)):
            c = report.counts[kind]
            assert (c.total, c.historical, c.overlap, c.inductive) == \
                _oracle_counts(h, t_split, edges)

    @settings(max_examples=200, deadline=None)
    @given(h=_streams(), ratios=st.lists(st.sampled_from(_RATIOS), min_size=1, max_size=4))
    def test_sweep_matches_scan(self, h, ratios):
        cutoffs = [_oracle_cutoff(h, r) for r in ratios]
        if None in cutoffs:
            with pytest.raises(DegenerateSplitError):
                surprise_sweep(h, ratios)
            return

        def surprise(t_split, edges):
            _, _, overlap, inductive = _oracle_counts(h, t_split, edges)
            return inductive / (inductive + overlap) if inductive + overlap else None

        assert surprise_sweep(h, ratios) == [
            (r, surprise(t, False), surprise(t, True)) for r, t in zip(ratios, cutoffs)]
