import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    build_history,
    prefix_replay_scores,
    random_history,
    sample_and_score,
    scenario_history,
    SCENARIO_T_SPLIT,
)
from dlpeval import (
    EmptyCandidateSetError,
    GraphKind,
    NegativeStrategy,
    ScorerKind,
    build_candidate_index,
    heuristic_scores,
    run_streaming_eval,
    sample_negatives,
    sample_stream,
)
from dlpeval.scorelog import POSITIVE_ROLE, ScoreLogMeta, dumps_score_log

PA, EDGEBANK = ScorerKind.PREFERENTIAL_ATTACHMENT, ScorerKind.EDGEBANK
GRAPH_KINDS = {
    "directed": GraphKind(),
    "undirected": GraphKind(directed=False),
    "bipartite": GraphKind(bipartite=True),
}


def scores(h, scorer, pairs, before):
    u, v = zip(*pairs)
    return heuristic_scores(h, scorer, u, v, np.full(len(pairs), before)).tolist()


class TestScores:
    def test_pa_truth_table(self):
        h = build_history([(0, 1, 1.0), (2, 3, 2.0)])
        assert scores(h, PA, [(0, 1)], 0) == [0]  # nothing seen yet
        # after the first event: both endpoints seen, 2 never seen
        assert scores(h, PA, [(0, 1), (0, 2)], 1) == [1, 0]

    def test_edgebank_contrasts_with_pa(self):
        h = build_history([(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)])
        # edges (0,1), (0,2) observed: a repeat, and a new edge between seen nodes
        assert scores(h, EDGEBANK, [(0, 1), (1, 2)], 2) == [1, 0]
        assert scores(h, PA, [(1, 2)], 2) == [1]

    def test_edgebank_undirected_canonicalization(self):
        h = build_history([(0, 1, 1.0), (1, 0, 2.0)], kind=GraphKind(directed=False))
        assert scores(h, EDGEBANK, [(1, 0)], 1) == [1]

    def test_monotone_in_prefix_for_fixed_query(self):
        rng = np.random.default_rng(6)
        h = random_history(rng, n_events=200, n_nodes=12)
        query = [(int(h.src[150]), int(h.dst[150]))]
        for scorer in (PA, EDGEBANK):
            series = [scores(h, scorer, query, before)[0] for before in range(len(h) + 1)]
            assert series == sorted(series)
            assert series[-1] == 1

    def test_external_is_not_a_heuristic(self):
        h = scenario_history(1)
        with pytest.raises(ValueError, match="external"):
            scores(h, ScorerKind.EXTERNAL, [(0, 1)], 1)


class TestHarness:
    def test_first_batch_scores_zero_for_pa(self):
        h = scenario_history(1)
        log = sample_and_score(
            h, SCENARIO_T_SPLIT, ScorerKind.PREFERENTIAL_ATTACHMENT,
            [NegativeStrategy.OE], batch_size=200, seed=1,
        )
        # the whole stream fits one batch: memory stays empty while scoring,
        # and an all-tie batch is worth exactly 0.5
        assert np.all(log.score == 0)
        from dlpeval import mean_auc_over_batches
        assert mean_auc_over_batches(log, "OE", "all").mean_auc == 0.5

    def test_score_then_ingest_within_batch(self):
        # edge (0,1) first appears inside the first batch; edge memory must
        # not see it while that batch is scored
        events = [(0, 1, float(t)) for t in range(1, 9)] + [(2, 3, 9.0), (2, 3, 10.0)]
        h = build_history(events)
        log = sample_and_score(
            h, 9.0, ScorerKind.EDGEBANK, [NegativeStrategy.OE],
            batch_size=8, seed=0,
        )
        pos_scores = log.score[log.role == POSITIVE_ROLE]
        assert np.all(pos_scores[:8] == 0)  # first batch: unseen edge
        assert np.all(pos_scores[8:] == 0)  # (2,3) also first seen in its own batch

    @settings(max_examples=40, deadline=None)
    @given(
        scorer=st.sampled_from(["pa", "edgebank"]),
        kind=st.sampled_from(sorted(GRAPH_KINDS)),
        batch_size=st.integers(1, 64),
        strategies=st.lists(st.sampled_from(list(NegativeStrategy)),
                            min_size=1, max_size=3, unique=True),
        stream_seed=st.integers(0, 2**16),
    )
    def test_matches_prefix_replay_oracle(self, scorer, kind, batch_size, strategies,
                                          stream_seed):
        # every record scores against the exact prefix of events before its
        # batch, found by replaying the raw list
        h = random_history(np.random.default_rng(stream_seed), n_events=120,
                           n_nodes=14, kind=GRAPH_KINDS[kind])
        log = sample_and_score(
            h, 60.0, ScorerKind(scorer), strategies,
            k_per_strategy=2, batch_size=batch_size, seed=3,
        )
        assert log.score.tolist() == prefix_replay_scores(h, log, scorer, batch_size).tolist()

    def test_all_tie_batches_when_test_repeats_train(self):
        # test positives repeat train edges and HE negatives are train-only
        # edges: every score is 1 on the test side
        events = [(0, 1, 1.0), (2, 3, 2.0), (4, 5, 3.0), (4, 5, 4.0)]
        events += [(0, 1, 50.0), (0, 1, 60.0)]
        h = build_history(events)
        log = sample_and_score(
            h, 50.0, ScorerKind.EDGEBANK, [NegativeStrategy.HE],
            batch_size=1, seed=0,
        )
        test_mask = log.timestamp >= 50.0
        assert np.all(log.score[test_mask] == 1)

    def test_determinism_byte_identical(self):
        rng = np.random.default_rng(23)
        h = random_history(rng, n_events=300, n_nodes=18)
        meta = ScoreLogMeta("synthetic", 50.0, 32, ("OE", "OD"), 2, 9, "edgebank")

        def run():
            log = sample_and_score(
                h, 50.0, ScorerKind.EDGEBANK,
                [NegativeStrategy.OE, NegativeStrategy.OD],
                k_per_strategy=2, batch_size=32, seed=9,
            )
            return dumps_score_log(log, meta)

        assert run() == run()

    def test_globally_empty_pool_warns_once_and_empties_log(self, caplog):
        # no inductive node exists: IS is impossible for every event, which
        # is reported once up front rather than per event
        events = [(0, 1, float(t)) for t in range(1, 11)]
        h = build_history(events)
        with caplog.at_level("WARNING"):
            log = sample_and_score(
                h, 5.0, ScorerKind.EDGEBANK,
                [NegativeStrategy.IS], batch_size=4, seed=0, on_empty="skip",
            )
        assert len(log) == 0
        assert len(caplog.records) == 1
        assert "IS" in caplog.text

    def test_skip_policy_drops_whole_event_and_renumbers(self, caplog):
        # the only overlap edge is (0,1): events on that edge cannot draw an
        # overlap negative (own edge excluded) and get skipped; the rest keep
        # contiguous ordinals
        events = [(0, 1, 1.0), (2, 3, 2.0), (2, 3, 30.0), (0, 1, 90.0)]
        h = build_history(events)
        with caplog.at_level("WARNING"):
            log = sample_and_score(
                h, 40.0, ScorerKind.EDGEBANK,
                [NegativeStrategy.OE], batch_size=2, seed=0, on_empty="skip",
            )
        log.validate()
        kept = log.mask(log.role == POSITIVE_ROLE)
        assert [(int(s), int(d)) for s, d in zip(kept.source, kept.destination)] == \
               [(2, 3), (2, 3)]
        assert kept.event_ordinal.tolist() == [0, 1]
        assert len(caplog.records) == 1
        assert "skipped 2 of 4" in caplog.text

    def test_abort_policy_raises(self):
        events = [(0, 1, float(t)) for t in range(1, 11)]
        h = build_history(events)
        with pytest.raises(EmptyCandidateSetError):
            sample_and_score(
                h, 5.0, ScorerKind.EDGEBANK,
                [NegativeStrategy.IS], batch_size=4, seed=0, on_empty="abort",
            )

    def test_external_scorer_rejected(self):
        h = scenario_history(1)
        sampled = sample_stream(h, build_candidate_index(h, SCENARIO_T_SPLIT),
                                [NegativeStrategy.OE], 1, 0)
        with pytest.raises(ValueError, match="external"):
            run_streaming_eval(h, ScorerKind.EXTERNAL, sampled)
        with pytest.raises(ValueError, match="batch_size"):
            run_streaming_eval(h, ScorerKind.EDGEBANK, sampled, batch_size=0)

    def test_strategies_required(self):
        h = scenario_history(1)
        with pytest.raises(ValueError):
            sample_and_score(h, SCENARIO_T_SPLIT, ScorerKind.EDGEBANK, [])

    def test_negatives_match_standalone_sampling(self):
        # external-replay contract: the harness draws exactly the negatives
        # a direct sampling pass with the same seed produces
        rng = np.random.default_rng(51)
        h = random_history(rng, n_events=120, n_nodes=15)
        t_split = 50.0
        strategies = [NegativeStrategy.OE, NegativeStrategy.OD]
        seed = 13
        log = sample_and_score(h, t_split, ScorerKind.EDGEBANK, strategies,
                               k_per_strategy=2, batch_size=16, seed=seed)
        idx = build_candidate_index(h, t_split)
        assert len(np.unique(log.event_ordinal)) == len(h)
        for strategy in strategies:
            u, v, ok = sample_negatives(idx, strategy, np.arange(len(h)), 2, seed)
            assert ok.all()
            sel = log.role == strategy.value
            assert np.array_equal(log.source[sel], u.ravel())
            assert np.array_equal(log.destination[sel], v.ravel())

    def test_log_layout(self):
        h = scenario_history(2)
        strategies = [NegativeStrategy.OE, NegativeStrategy.OD]
        log = sample_and_score(
            h, SCENARIO_T_SPLIT, ScorerKind.EDGEBANK, strategies,
            k_per_strategy=3, batch_size=5, seed=0,
        )
        log.validate()
        assert log.strategies == ("OE", "OD")
        # one positive plus 2 strategies x 3 negatives per event
        assert len(log) == len(h) * (1 + 2 * 3)
        # batch ordinal reflects position in the stream
        assert int(log.batch.max()) == (len(h) - 1) // 5
