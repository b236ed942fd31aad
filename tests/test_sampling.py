import io

import numpy as np
import pytest

from conftest import (
    SCENARIO_PAIRS,
    SCENARIO_T_SPLIT,
    build_history,
    random_history,
    scenario_history,
)
from dlpeval import (
    EmptyCandidateSetError,
    Event,
    GraphKind,
    KeyKind,
    Lifetime,
    NegativeStrategy,
    TemporalCategory,
    build_candidate_index,
    categorize,
    derive_event_seed,
    lifetimes,
    sample_negatives,
    sample_stream,
)
from dlpeval.sampling import write_negatives_csv

# chi-square 99th percentile, 9 degrees of freedom
CHI2_99_DF9 = 21.666


class TestCandidateIndex:
    def test_scenario_category_sets(self):
        idx = build_candidate_index(scenario_history(1), SCENARIO_T_SPLIT)
        assert set(idx.nodes_in(TemporalCategory.OVERLAP)) == {0, 1, 2, 3}
        assert set(idx.nodes_in(TemporalCategory.INDUCTIVE)) == {4}
        assert len(idx.nodes_in(TemporalCategory.HISTORICAL)) == 0
        overlap_edges = {tuple(e) for e in idx.edges_in(TemporalCategory.OVERLAP)}
        assert overlap_edges == set(SCENARIO_PAIRS)
        assert {tuple(e) for e in idx.edges_in(TemporalCategory.INDUCTIVE)} == {(4, 0)}

    def test_empty_test_side_means_all_historical(self):
        h = scenario_history(1)
        idx = build_candidate_index(h, h.t_max + 1)
        assert len(idx.nodes_in(TemporalCategory.OVERLAP)) == 0
        assert len(idx.nodes_in(TemporalCategory.INDUCTIVE)) == 0
        assert len(idx.nodes_in(TemporalCategory.HISTORICAL)) == 5
        assert len(idx.edges_in(TemporalCategory.HISTORICAL)) == 7

    def test_index_agrees_with_categorize(self):
        rng = np.random.default_rng(21)
        h = random_history(rng, n_events=600, n_nodes=25)
        t_split = 60.0
        idx = build_candidate_index(h, t_split)
        node_life = lifetimes(h, KeyKind.NODE)
        for cat in TemporalCategory:
            for u in idx.nodes_in(cat):
                assert categorize(node_life[int(u)], t_split) is cat
        edge_life = lifetimes(h, KeyKind.EDGE)
        for cat in TemporalCategory:
            for a, b in idx.edges_in(cat):
                assert categorize(edge_life[(int(a), int(b))], t_split) is cat

    def test_bipartite_role_pools_are_disjoint_universes(self):
        rng = np.random.default_rng(4)
        h = random_history(rng, n_events=300, n_nodes=20,
                           kind=GraphKind(bipartite=True))
        idx = build_candidate_index(h, 50.0)
        for cat in TemporalCategory:
            assert all(u < h.num_sources for u in idx.nodes_in(cat, role="source"))
            assert all(v >= h.num_sources for v in idx.nodes_in(cat, role="destination"))


class TestSampleNegatives:
    def test_oe_draws_only_overlap_edges(self):
        h = scenario_history(1)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        pos = Event(4, 0, 20.0)
        seen = set()
        for seed in range(200):
            batch = sample_negatives(pos, NegativeStrategy.OE, 1, idx, seed)
            neg = batch.negatives[0]
            assert neg.t == pos.t
            seen.add((neg.source, neg.destination))
        assert seen == set(SCENARIO_PAIRS)

    def test_single_candidate_returned_k_times(self):
        h = scenario_history(1)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        pos = Event(0, 1, 10.0)
        batch = sample_negatives(pos, NegativeStrategy.IE, 5, idx, 123)
        assert [(n.source, n.destination) for n in batch.negatives] == [(4, 0)] * 5

    def test_uniformity_chi_square(self):
        # ten historical edges, 1e5 draws: frequencies within the 99% bound
        events = [(i, 10 + i, float(i + 1)) for i in range(10)]  # die before split
        events += [(20, 21, 100.0), (20, 21, 200.0)]             # keep test side alive
        h = build_history(events)
        idx = build_candidate_index(h, 50.0)
        pos = Event(20, 21, 100.0)
        draws = 100_000
        batch = sample_negatives(pos, NegativeStrategy.HE, draws, idx, 987)
        counts = np.zeros(10)
        for neg in batch.negatives:
            counts[neg.source] += 1
        expected = draws / 10
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_99_DF9

    def test_timestamp_and_endpoint_preservation(self):
        rng = np.random.default_rng(2)
        h = random_history(rng, n_events=500, n_nodes=25)
        t_split = 60.0
        idx = build_candidate_index(h, t_split)
        pos = h.event(450)
        for strategy in NegativeStrategy:
            try:
                batch = sample_negatives(pos, strategy, 4, idx, 55)
            except EmptyCandidateSetError:
                continue
            for neg in batch.negatives:
                assert neg.t == pos.t
                if strategy.replaces == "source":
                    assert neg.destination == pos.destination
                elif strategy.replaces == "destination":
                    assert neg.source == pos.source

    def test_replaced_key_has_strategy_category(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            h = random_history(rng, n_events=400, n_nodes=20)
            t_split = float(rng.uniform(20.0, 80.0))
            idx = build_candidate_index(h, t_split)
            node_life = lifetimes(h, KeyKind.NODE)
            edge_life = lifetimes(h, KeyKind.EDGE)
            for i in rng.integers(0, len(h), 10):
                pos = h.event(int(i))
                for strategy in NegativeStrategy:
                    if strategy is NegativeStrategy.RND:
                        continue
                    try:
                        batch = sample_negatives(
                            pos, strategy, 2, idx, derive_event_seed(trial, int(i)))
                    except EmptyCandidateSetError:
                        continue
                    for neg in batch.negatives:
                        if strategy.replaces == "edge":
                            life = edge_life[(neg.source, neg.destination)]
                        elif strategy.replaces == "source":
                            life = node_life[neg.source]
                        else:
                            life = node_life[neg.destination]
                        assert categorize(life, t_split) is strategy.category

    def test_same_time_positives_excluded(self):
        # overlap edges (0,1), (2,3), (4,5); two positives share t=60, so the
        # only legal overlap-edge negative for either is (4,5)
        events = []
        for pair in ((0, 1), (2, 3), (4, 5)):
            events += [(pair[0], pair[1], 1.0), (pair[0], pair[1], 90.0)]
        events += [(0, 1, 60.0), (2, 3, 60.0)]
        h = build_history(events)
        idx = build_candidate_index(h, 50.0)
        pos = Event(0, 1, 60.0)
        for seed in range(50):
            batch = sample_negatives(pos, NegativeStrategy.OE, 3, idx, seed)
            assert {(n.source, n.destination) for n in batch.negatives} == {(4, 5)}

    def test_own_edge_excluded_even_with_k_one_pool(self):
        # the only overlap edge is the positive's own edge -> no candidate
        events = [(0, 1, 1.0), (0, 1, 90.0), (2, 3, 2.0)]
        h = build_history(events)
        idx = build_candidate_index(h, 50.0)
        with pytest.raises(EmptyCandidateSetError):
            sample_negatives(Event(0, 1, 90.0), NegativeStrategy.OE, 1, idx, 0)

    def test_empty_pool_raises(self):
        h = scenario_history(1)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        with pytest.raises(EmptyCandidateSetError):
            sample_negatives(Event(0, 1, 10.0), NegativeStrategy.HS, 1, idx, 0)

    def test_k_must_be_positive(self):
        h = scenario_history(1)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        with pytest.raises(ValueError):
            sample_negatives(Event(0, 1, 10.0), NegativeStrategy.OE, 0, idx, 0)

    def test_bipartite_destination_strategies_stay_in_item_universe(self):
        rng = np.random.default_rng(8)
        h = random_history(rng, n_events=400, n_nodes=20,
                           kind=GraphKind(bipartite=True))
        idx = build_candidate_index(h, 50.0)
        pos = h.event(len(h) - 1)
        for strategy in (NegativeStrategy.HD, NegativeStrategy.OD, NegativeStrategy.ID):
            try:
                batch = sample_negatives(pos, strategy, 5, idx, 77)
            except EmptyCandidateSetError:
                continue
            for neg in batch.negatives:
                assert neg.destination >= h.num_sources

    def test_rnd_covers_all_observed_nodes(self):
        h = scenario_history(3)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        pos = Event(0, 1, 10.0)
        seen = set()
        for seed in range(300):
            batch = sample_negatives(pos, NegativeStrategy.RND, 1, idx, seed)
            seen.add(batch.negatives[0].destination)
        # destination swaps over every observed node; (0, 0) would be a
        # self-loop and the true edge (0, 1) occurs at exactly this time
        assert seen == {2, 3, 4, 5}

    def test_undirected_source_and_destination_sampling_equivalent(self):
        # an undirected event has no real roles: replacing the source of
        # (u, v) reaches exactly the edges that replacing the destination of
        # (v, u) does, from the same single node universe
        events = [(0, 1, 1.0), (2, 3, 2.0), (0, 1, 90.0), (2, 3, 91.0),
                  (4, 5, 3.0), (4, 5, 92.0)]
        h = build_history(events, kind=GraphKind(directed=False))
        idx = build_candidate_index(h, 50.0)

        def reachable(pos, strategy):
            edges = set()
            for seed in range(300):
                batch = sample_negatives(pos, strategy, 1, idx, seed)
                n = batch.negatives[0]
                edges.add(tuple(sorted((n.source, n.destination))))
            return edges

        assert reachable(Event(0, 1, 90.0), NegativeStrategy.OS) == \
               reachable(Event(1, 0, 90.0), NegativeStrategy.OD)

    def test_self_loop_negatives_rejected(self):
        h = scenario_history(1)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        pos = Event(0, 1, 10.0)
        for seed in range(100):
            batch = sample_negatives(pos, NegativeStrategy.OD, 1, idx, seed)
            assert batch.negatives[0].destination != pos.source


class TestSampleStream:
    def test_columns_hold_each_kept_events_draws(self):
        # one historical node: events that touch it cannot draw HD and skip
        h = random_history(np.random.default_rng(8), n_events=120, n_nodes=40)
        idx = build_candidate_index(h, 50.0)
        strategies = (NegativeStrategy.OE, NegativeStrategy.HD)
        sampled = sample_stream(h, idx, strategies, 2, 4)
        assert sampled.source.shape == (len(sampled.events), 2, 2)
        assert sampled.skipped > 0 and len(sampled.events) > 0
        assert len(sampled.events) + sampled.skipped == len(h)
        assert np.array_equal(sampled.timestamp, h.t[sampled.events])
        for row, i in enumerate(sampled.events.tolist()):
            for j, strategy in enumerate(strategies):
                batch = sample_negatives(h.event(i), strategy, 2, idx,
                                         derive_event_seed(4, i))
                assert [(n.source, n.destination) for n in batch.negatives] == list(
                    zip(sampled.source[row, j].tolist(),
                        sampled.destination[row, j].tolist()))

    def test_globally_empty_pool_skips_every_event(self, caplog):
        h = build_history([(0, 1, float(t)) for t in range(1, 11)])
        idx = build_candidate_index(h, 5.0)
        with caplog.at_level("WARNING"):
            sampled = sample_stream(h, idx, [NegativeStrategy.IS], 3, 0)
        assert sampled.source.shape == (0, 1, 3)
        assert sampled.skipped == len(h)
        assert len(caplog.records) == 1 and "no candidates anywhere" in caplog.text
        with pytest.raises(EmptyCandidateSetError):
            sample_stream(h, idx, [NegativeStrategy.IS], 3, 0, on_empty="abort")
        buf = io.StringIO()
        write_negatives_csv(sampled, buf)
        assert buf.getvalue() == "event_ordinal,strategy,source,destination,timestamp\n"

    @pytest.mark.parametrize("strategies,k,on_empty", [
        ((), 1, "skip"), ((NegativeStrategy.HS,), 0, "skip"),
        ((NegativeStrategy.OE,), 1, "retry")])
    def test_rejects_bad_arguments(self, strategies, k, on_empty):
        # HS has no candidate in the scenario: k is checked before the pools
        h = scenario_history(1)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        with pytest.raises(ValueError):
            sample_stream(h, idx, strategies, k, 0, on_empty)


class TestDeterminism:
    def _draw_log(self, seed):
        rng = np.random.default_rng(99)
        h = random_history(rng, n_events=300, n_nodes=20)
        idx = build_candidate_index(h, 50.0)
        sampled = sample_stream(h, idx, (NegativeStrategy.OE, NegativeStrategy.OD),
                                3, seed)
        buf = io.StringIO()
        write_negatives_csv(sampled, buf)
        return buf.getvalue()

    def test_equal_seeds_byte_identical(self):
        assert self._draw_log(5) == self._draw_log(5)

    def test_different_seeds_differ(self):
        assert self._draw_log(5) != self._draw_log(6)

    def test_event_seed_derivation_is_stable(self):
        assert derive_event_seed(42, 7) == derive_event_seed(42, 7)
        assert derive_event_seed(42, 7) != derive_event_seed(42, 8)
        assert derive_event_seed(41, 7) != derive_event_seed(42, 7)
