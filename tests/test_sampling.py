import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SCENARIO_PAIRS,
    SCENARIO_T_SPLIT,
    build_history,
    category_of,
    events_of,
    legal_negatives,
    lifetime_rows,
    random_history,
    scenario_history,
)
from dlpeval import (
    EmptyCandidateSetError,
    GraphKind,
    History,
    KeyKind,
    NegativeStrategy,
    TemporalCategory,
    build_candidate_index,
    lifetimes,
    sample_negatives,
    sample_stream,
)
from dlpeval.sampling import write_negatives_csv

# chi-square 99th percentile, 9 degrees of freedom
CHI2_99_DF9 = 21.666


def draws(idx, strategy, i, k, seed):
    """The k negatives of the event at history position i, or None when it
    has no legal one."""
    u, v, ok = sample_negatives(idx, strategy, [i], k, seed)
    return list(zip(u[0].tolist(), v[0].tolist())) if ok[0] else None


@pytest.mark.parametrize("name, category, replaces", [
    ("HS", TemporalCategory.HISTORICAL, "source"),
    ("OS", TemporalCategory.OVERLAP, "source"),
    ("IS", TemporalCategory.INDUCTIVE, "source"),
    ("HD", TemporalCategory.HISTORICAL, "destination"),
    ("OD", TemporalCategory.OVERLAP, "destination"),
    ("ID", TemporalCategory.INDUCTIVE, "destination"),
    ("HE", TemporalCategory.HISTORICAL, "edge"),
    ("OE", TemporalCategory.OVERLAP, "edge"),
    ("IE", TemporalCategory.INDUCTIVE, "edge"),
    ("RND", None, "destination"),
])
def test_strategy_taxonomy(name, category, replaces):
    # the sampling tests take s.category and s.replaces as their oracle
    strategy = NegativeStrategy(name)
    assert (strategy.category, strategy.replaces) == (category, replaces)


class TestCandidateIndex:
    def test_scenario_category_sets(self):
        idx = build_candidate_index(scenario_history(1), SCENARIO_T_SPLIT)
        assert set(idx.pools[NegativeStrategy.OD]) == {0, 1, 2, 3}
        assert set(idx.pools[NegativeStrategy.ID]) == {4}
        assert len(idx.pools[NegativeStrategy.HD]) == 0
        overlap_edges = {tuple(e) for e in idx.pools[NegativeStrategy.OE]}
        assert overlap_edges == set(SCENARIO_PAIRS)
        assert {tuple(e) for e in idx.pools[NegativeStrategy.IE]} == {(4, 0)}

    def test_empty_test_side_means_all_historical(self):
        h = scenario_history(1)
        idx = build_candidate_index(h, h.t[-1] + 1)
        assert len(idx.pools[NegativeStrategy.OD]) == 0
        assert len(idx.pools[NegativeStrategy.ID]) == 0
        assert len(idx.pools[NegativeStrategy.HD]) == 5
        assert len(idx.pools[NegativeStrategy.HE]) == 7

    def test_index_agrees_with_categorize(self):
        rng = np.random.default_rng(21)
        h = random_history(rng, n_events=600, n_nodes=25)
        t_split = 60.0
        idx = build_candidate_index(h, t_split)
        node_life = lifetime_rows(lifetimes(h, KeyKind.NODE))
        for s in (NegativeStrategy.HD, NegativeStrategy.OD, NegativeStrategy.ID):
            for u in idx.pools[s]:
                assert category_of(node_life[int(u)], t_split) is s.category
        edge_life = lifetime_rows(lifetimes(h, KeyKind.EDGE))
        for s in (NegativeStrategy.HE, NegativeStrategy.OE, NegativeStrategy.IE):
            for a, b in idx.pools[s]:
                assert category_of(edge_life[(int(a), int(b))], t_split) is s.category

    def test_bipartite_role_pools_are_disjoint_universes(self):
        rng = np.random.default_rng(4)
        h = random_history(rng, n_events=300, n_nodes=20,
                           kind=GraphKind(bipartite=True))
        idx = build_candidate_index(h, 50.0)
        for cat in "HOI":
            source_pool = idx.pools[NegativeStrategy[f"{cat}S"]]
            destination_pool = idx.pools[NegativeStrategy[f"{cat}D"]]
            assert all(u < h.num_sources for u in source_pool)
            assert all(v >= h.num_sources for v in destination_pool)
        # the pools need the boundary between the two id ranges
        bare = History(h.src, h.dst, h.t, h.kind, h.num_nodes)
        with pytest.raises(ValueError, match="bipartite history lacks its source/destination id"):
            build_candidate_index(bare, 50.0)


class TestSampleNegatives:
    def test_oe_draws_only_overlap_edges(self):
        h = scenario_history(1)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        i = len(h) - 1  # (4, 0) at t=20
        seen = set()
        for seed in range(200):
            seen.update(draws(idx, NegativeStrategy.OE, i, 1, seed))
        assert seen == set(SCENARIO_PAIRS)

    def test_single_candidate_returned_k_times(self):
        h = scenario_history(1)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        assert events_of(h)[6] == (0, 1, 10.0)
        assert draws(idx, NegativeStrategy.IE, 6, 5, 123) == [(4, 0)] * 5

    def test_uniformity_chi_square(self):
        # ten historical edges, 1e5 draws: frequencies within the 99% bound
        events = [(i, 10 + i, float(i + 1)) for i in range(10)]  # die before split
        events += [(20, 21, 100.0), (20, 21, 200.0)]             # keep test side alive
        h = build_history(events)
        idx = build_candidate_index(h, 50.0)
        draws_ = 100_000
        u, _, ok = sample_negatives(idx, NegativeStrategy.HE, [10], draws_, 987)
        assert ok[0]
        counts = np.bincount(u[0], minlength=10)
        expected = draws_ / 10
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_99_DF9

    def test_timestamp_and_endpoint_preservation(self):
        rng = np.random.default_rng(2)
        h = random_history(rng, n_events=500, n_nodes=25)
        idx = build_candidate_index(h, 60.0)
        for strategy in NegativeStrategy:
            sampled = sample_stream(idx, [strategy], 4, 55)
            kept = sampled.events
            assert np.array_equal(sampled.timestamp, h.t[kept])
            if strategy.replaces == "source":
                assert (sampled.destination[:, 0] == h.dst[kept, None]).all()
            elif strategy.replaces == "destination":
                assert (sampled.source[:, 0] == h.src[kept, None]).all()

    def test_replaced_key_has_strategy_category(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            h = random_history(rng, n_events=400, n_nodes=20)
            t_split = float(rng.uniform(20.0, 80.0))
            idx = build_candidate_index(h, t_split)
            node_life = lifetime_rows(lifetimes(h, KeyKind.NODE))
            edge_life = lifetime_rows(lifetimes(h, KeyKind.EDGE))
            events = rng.integers(0, len(h), 10)
            for strategy in NegativeStrategy:
                if strategy is NegativeStrategy.RND or len(idx.pools[strategy]) == 0:
                    continue
                u, v, ok = sample_negatives(idx, strategy, events, 2, trial)
                for a, b in zip(u[ok].ravel().tolist(), v[ok].ravel().tolist()):
                    if strategy.replaces == "edge":
                        life = edge_life[(a, b)]
                    elif strategy.replaces == "source":
                        life = node_life[a]
                    else:
                        life = node_life[b]
                    assert category_of(life, t_split) is strategy.category

    def test_same_time_positives_excluded(self):
        # overlap edges (0,1), (2,3), (4,5); two positives share t=60, so the
        # only legal overlap-edge negative for either is (4,5)
        events = []
        for pair in ((0, 1), (2, 3), (4, 5)):
            events += [(pair[0], pair[1], 1.0), (pair[0], pair[1], 90.0)]
        events += [(0, 1, 60.0), (2, 3, 60.0)]
        h = build_history(events)
        idx = build_candidate_index(h, 50.0)
        assert events_of(h)[3] == (0, 1, 60.0)
        for seed in range(50):
            assert set(draws(idx, NegativeStrategy.OE, 3, 3, seed)) == {(4, 5)}

    def test_own_edge_excluded_even_with_k_one_pool(self):
        # the only overlap edge is the positive's own edge -> no candidate
        events = [(0, 1, 1.0), (0, 1, 90.0), (2, 3, 2.0)]
        h = build_history(events)
        idx = build_candidate_index(h, 50.0)
        assert events_of(h)[2] == (0, 1, 90.0)
        assert draws(idx, NegativeStrategy.OE, 2, 1, 0) is None

    def test_empty_pool_raises(self):
        h = scenario_history(1)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        with pytest.raises(EmptyCandidateSetError):
            sample_negatives(idx, NegativeStrategy.HS, [6], 1, 0)

    def test_k_must_be_positive(self):
        h = scenario_history(1)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        with pytest.raises(ValueError):
            sample_negatives(idx, NegativeStrategy.OE, [6], 0, 0)

    def test_positions_must_lie_in_history(self):
        h = scenario_history(1)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        for events in ([-1], [len(h)]):
            with pytest.raises(ValueError):
                sample_negatives(idx, NegativeStrategy.OE, events, 1, 0)

    def test_bipartite_destination_strategies_stay_in_item_universe(self):
        rng = np.random.default_rng(8)
        h = random_history(rng, n_events=400, n_nodes=20,
                           kind=GraphKind(bipartite=True))
        idx = build_candidate_index(h, 50.0)
        for strategy in (NegativeStrategy.HD, NegativeStrategy.OD, NegativeStrategy.ID,
                         NegativeStrategy.RND):
            if len(idx.pools[strategy]) == 0:
                continue
            _, v, ok = sample_negatives(idx, strategy, [len(h) - 1], 5, 77)
            assert (v[ok] >= h.num_sources).all()

    def test_bipartite_rnd_never_draws_a_source_as_destination(self):
        # RND swaps the destination for an observed destination-side node;
        # a source there would make an impossible source->source edge
        h = random_history(np.random.default_rng(3), n_events=300, n_nodes=20,
                           kind=GraphKind(bipartite=True))
        idx = build_candidate_index(h, 50.0)
        sampled = sample_stream(idx, [NegativeStrategy.RND], 3, 0)
        assert len(sampled.events) == len(h)
        assert (sampled.destination >= h.num_sources).all()

    def test_rnd_covers_all_observed_nodes(self):
        h = scenario_history(3)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        assert events_of(h)[6] == (0, 1, 10.0)
        seen = set()
        for seed in range(300):
            seen.update(v for _, v in draws(idx, NegativeStrategy.RND, 6, 1, seed))
        # destination swaps over every observed node; (0, 0) would be a
        # self-loop and the true edge (0, 1) occurs at exactly this time
        assert seen == {2, 3, 4, 5}

    def test_undirected_source_and_destination_sampling_equivalent(self):
        # an undirected event has no real roles: replacing the source of
        # (u, v) reaches exactly the edges that replacing the destination of
        # (v, u) does, from the same single node universe
        events = [(0, 1, 1.0), (2, 3, 2.0), (4, 5, 3.0), (2, 3, 91.0), (4, 5, 92.0)]

        def reachable(positive, strategy):
            h = build_history(events + [positive], kind=GraphKind(directed=False))
            idx = build_candidate_index(h, 50.0)
            assert events_of(h)[3] == positive
            edges = set()
            for seed in range(300):
                edges.update(tuple(sorted(e)) for e in draws(idx, strategy, 3, 1, seed))
            return edges

        assert reachable((0, 1, 90.0), NegativeStrategy.OS) == \
               reachable((1, 0, 90.0), NegativeStrategy.OD)

    def test_self_loop_negatives_rejected(self):
        h = scenario_history(1)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        # the positive's own source is an overlap node, so 100 independent
        # draws propose the self-loop with near certainty
        assert h.src[6] in idx.pools[NegativeStrategy.OD]
        for seed in range(100):
            (neg,) = draws(idx, NegativeStrategy.OD, 6, 1, seed)
            assert neg[1] != h.src[6]

    def test_hash_raises_no_overflow_warning(self):
        h = scenario_history(1)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (0, -1, 2**64 - 1, 2**70 + 5):
                sample_negatives(idx, NegativeStrategy.OE, np.arange(len(h)), 3, seed)
                sample_negatives(idx, NegativeStrategy.OE, [0], 1, seed)


GRAPH_KINDS = {
    "directed": GraphKind(),
    "directed-loops": GraphKind(allow_self_loops=True),
    "undirected": GraphKind(directed=False),
    "undirected-loops": GraphKind(directed=False, allow_self_loops=True),
    "bipartite": GraphKind(bipartite=True),
}


@st.composite
def small_streams(draw):
    """A small stream with ties, of any graph kind, and a cutoff."""
    kind = GRAPH_KINDS[draw(st.sampled_from(sorted(GRAPH_KINDS)))]
    n_nodes = draw(st.integers(2, 7))
    n_events = draw(st.integers(1, 20))
    t = draw(st.lists(st.integers(0, 8), min_size=n_events, max_size=n_events))
    num_sources = None
    if kind.bipartite:
        num_sources = draw(st.integers(1, n_nodes - 1))
        src = draw(st.lists(st.integers(0, num_sources - 1),
                            min_size=n_events, max_size=n_events))
        dst = draw(st.lists(st.integers(num_sources, n_nodes - 1),
                            min_size=n_events, max_size=n_events))
    else:
        src = draw(st.lists(st.integers(0, n_nodes - 1), min_size=n_events,
                            max_size=n_events))
        low = 0 if kind.allow_self_loops else 1
        step = draw(st.lists(st.integers(low, n_nodes - 1), min_size=n_events,
                             max_size=n_events))
        dst = [(u + d) % n_nodes for u, d in zip(src, step)]
    h = build_history(list(zip(src, dst, map(float, t))), kind=kind, num_nodes=n_nodes,
                      num_sources=num_sources)
    return h, draw(st.integers(0, 9)) - 0.5


class TestSampleStream:
    @settings(max_examples=100, deadline=None)
    @given(
        stream=small_streams(),
        strategies=st.lists(st.sampled_from(list(NegativeStrategy)),
                            min_size=2, max_size=3, unique=True),
        k=st.integers(1, 3),
        seed=st.integers(-2**63, 2**64 - 1),
    )
    def test_matches_brute_force_oracle(self, stream, strategies, k, seed):
        # every kept negative is one the raw event list allows, and an event
        # is skipped exactly when some strategy has no legal negative for it;
        # checked for every strategy alone and for a combination
        h, t_split = stream
        idx = build_candidate_index(h, t_split)
        legal = {s: [legal_negatives(h, t_split, s, i) for i in range(len(h))]
                 for s in NegativeStrategy}
        for requested in [strategies] + [[s] for s in NegativeStrategy]:
            sampled = sample_stream(idx, requested, k, seed)
            kept = [i for i in range(len(h)) if all(legal[s][i] for s in requested)]
            assert sampled.events.tolist() == kept
            assert sampled.skipped == len(h) - len(kept)
            assert sampled.no_legal == tuple(
                sum(not allowed for allowed in legal[s]) for s in requested)
            assert np.array_equal(sampled.timestamp, h.t[kept])
            assert sampled.source.shape == (len(kept), len(requested), k)
            for row, i in enumerate(kept):
                for j, s in enumerate(requested):
                    pairs = zip(sampled.source[row, j].tolist(),
                                sampled.destination[row, j].tolist())
                    assert set(pairs) <= legal[s][i]

    def test_columns_hold_each_kept_events_draws(self):
        # one historical node: events that touch it cannot draw HD and skip
        h = random_history(np.random.default_rng(8), n_events=120, n_nodes=40)
        idx = build_candidate_index(h, 50.0)
        strategies = (NegativeStrategy.OE, NegativeStrategy.HD)
        sampled = sample_stream(idx, strategies, 2, 4)
        assert sampled.source.shape == (len(sampled.events), 2, 2)
        assert sampled.skipped > 0 and len(sampled.events) > 0
        assert len(sampled.events) + sampled.skipped == len(h)
        assert np.array_equal(sampled.timestamp, h.t[sampled.events])
        masks = []
        for j, strategy in enumerate(strategies):
            u, v, ok = sample_negatives(idx, strategy, np.arange(len(h)), 2, 4)
            assert np.array_equal(sampled.source[:, j], u[sampled.events])
            assert np.array_equal(sampled.destination[:, j], v[sampled.events])
            assert sampled.no_legal[j] == np.count_nonzero(~ok)
            masks.append(ok)
        assert np.array_equal(sampled.events, np.flatnonzero(masks[0] & masks[1]))

    def test_strategies_draw_independently(self):
        # HS and HD share the historical node pool; keyed on the strategy,
        # their draws for one event agree only by chance
        rng = np.random.default_rng(12)
        early = [(int(u), int(u) + 1 + int(d), float(t)) for u, d, t in zip(
            rng.integers(0, 20, 300), rng.integers(0, 19, 300), rng.uniform(0, 40, 300))]
        late = [(30 + int(u), 40 + int(v), float(t)) for u, v, t in zip(
            rng.integers(0, 10, 300), rng.integers(0, 10, 300), rng.uniform(60, 100, 300))]
        h = build_history([(u, v % 20, t) for u, v, t in early] + late)
        idx = build_candidate_index(h, 50.0)
        assert len(idx.pools[NegativeStrategy.HD]) == 20
        sampled = sample_stream(idx, (NegativeStrategy.HS, NegativeStrategy.HD), 1, 9)
        assert len(sampled.events) > 500
        same = sampled.source[:, 0, 0] == sampled.destination[:, 1, 0]
        assert same.mean() < 0.2

    def test_draws_do_not_depend_on_other_strategies(self):
        h = random_history(np.random.default_rng(8), n_events=120, n_nodes=40)
        idx = build_candidate_index(h, 50.0)
        alone = sample_stream(idx, (NegativeStrategy.OE,), 2, 4)
        both = sample_stream(idx, (NegativeStrategy.HD, NegativeStrategy.OE), 2, 4)
        rows = np.isin(alone.events, both.events)
        assert 0 < len(both.events) < len(alone.events)
        assert np.array_equal(alone.source[rows, 0], both.source[:, 1])
        assert np.array_equal(alone.destination[rows, 0], both.destination[:, 1])

    def test_globally_empty_pool_skips_every_event(self, caplog):
        h = build_history([(0, 1, float(t)) for t in range(1, 11)])
        idx = build_candidate_index(h, 5.0)
        with caplog.at_level("WARNING"):
            sampled = sample_stream(idx, [NegativeStrategy.IS], 3, 0)
        assert sampled.source.shape == (0, 1, 3)
        assert sampled.skipped == len(h)
        assert len(caplog.records) == 1 and "no candidates anywhere" in caplog.text
        with pytest.raises(EmptyCandidateSetError):
            sample_stream(idx, [NegativeStrategy.IS], 3, 0, on_empty="abort")
        buf = io.StringIO()
        write_negatives_csv(sampled, buf)
        assert buf.getvalue() == "event_ordinal,strategy,source,destination,timestamp\n"

    def test_abort_names_the_first_event_without_a_negative(self):
        # the only overlap edge is (0,1): the first event can draw it, the
        # second (its own event) cannot
        h = build_history([(2, 3, 0.5), (0, 1, 1.0), (0, 1, 90.0)])
        idx = build_candidate_index(h, 50.0)
        with pytest.raises(EmptyCandidateSetError, match=r"OE: .*\(0, 1, 1.0\)"):
            sample_stream(idx, [NegativeStrategy.OE], 2, 0, on_empty="abort")
    @pytest.mark.parametrize("strategies,k,on_empty", [
        ((), 1, "skip"), ((NegativeStrategy.HS,), 0, "skip"),
        ((NegativeStrategy.OE,), 1, "retry"),
        ((NegativeStrategy.OE, NegativeStrategy.HE, NegativeStrategy.OE), 1, "skip")])
    def test_rejects_bad_arguments(self, strategies, k, on_empty):
        # HS has no candidate in the scenario: k is checked before the pools
        h = scenario_history(1)
        idx = build_candidate_index(h, SCENARIO_T_SPLIT)
        with pytest.raises(ValueError):
            sample_stream(idx, strategies, k, 0, on_empty)


class TestDeterminism:
    def _draw_log(self, seed):
        rng = np.random.default_rng(99)
        h = random_history(rng, n_events=300, n_nodes=20)
        idx = build_candidate_index(h, 50.0)
        sampled = sample_stream(idx, (NegativeStrategy.OE, NegativeStrategy.OD),
                                3, seed)
        buf = io.StringIO()
        write_negatives_csv(sampled, buf)
        return buf.getvalue()

    def test_equal_seeds_byte_identical(self):
        assert self._draw_log(5) == self._draw_log(5)

    def test_different_seeds_differ(self):
        assert self._draw_log(5) != self._draw_log(6)

    def test_event_seed_derivation_is_stable(self):
        # an event's draws derive from (seed, its position) and nothing else
        h = random_history(np.random.default_rng(1), n_events=50, n_nodes=30)
        idx = build_candidate_index(h, 50.0)

        def row(seed, i, events):
            u, v, _ = sample_negatives(idx, NegativeStrategy.RND, events, 8, seed)
            return u[list(events).index(i)].tolist() + v[list(events).index(i)].tolist()

        assert row(42, 7, [7]) == row(42, 7, [3, 7, 9]) == row(42, 7, range(50))
        assert row(42, 7, [7]) != row(42, 8, [8])
        assert row(41, 7, [7]) != row(42, 7, [7])
