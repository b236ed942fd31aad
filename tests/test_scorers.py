import numpy as np
import pytest

from conftest import build_history, random_history, scenario_history, SCENARIO_T_SPLIT
from dlpeval import (
    EmptyCandidateSetError,
    Event,
    GraphKind,
    NegativeStrategy,
    ScorerKind,
    ScorerMemory,
    edgebank_score,
    pa_score,
    run_streaming_eval,
)
from dlpeval.scorelog import POSITIVE_ROLE, ScoreLogMeta, dumps_score_log


class TestScores:
    def test_pa_truth_table(self):
        h = build_history([(0, 1, 1.0), (2, 3, 2.0)])
        m = ScorerMemory(h)
        assert pa_score(Event(0, 1, 1.0), m) == 0  # nothing seen yet
        m.ingest_range(0, 1)
        assert pa_score(Event(0, 1, 2.0), m) == 1  # both endpoints seen
        assert pa_score(Event(0, 2, 2.0), m) == 0  # 2 never seen

    def test_edgebank_contrasts_with_pa(self):
        h = build_history([(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)])
        m = ScorerMemory(h)
        m.ingest_range(0, 2)  # edges (0,1), (0,2) observed
        repeat = Event(0, 1, 3.0)
        new_edge_between_seen = Event(1, 2, 3.0)
        assert edgebank_score(repeat, m) == 1
        assert edgebank_score(new_edge_between_seen, m) == 0
        assert pa_score(new_edge_between_seen, m) == 1

    def test_edgebank_undirected_canonicalization(self):
        h = build_history([(0, 1, 1.0), (1, 0, 2.0)], kind=GraphKind(directed=False))
        m = ScorerMemory(h)
        m.ingest_range(0, 1)
        assert edgebank_score(Event(1, 0, 2.0), m) == 1

    def test_memory_monotone_for_fixed_query(self):
        rng = np.random.default_rng(6)
        h = random_history(rng, n_events=200, n_nodes=12)
        query = h.event(150)
        m = ScorerMemory(h)
        prev_pa, prev_eb = 0, 0
        for i in range(len(h)):
            m.ingest_range(i, i + 1)
            cur_pa, cur_eb = pa_score(query, m), edgebank_score(query, m)
            assert cur_pa >= prev_pa and cur_eb >= prev_eb
            prev_pa, prev_eb = cur_pa, cur_eb


class TestHarness:
    def test_first_batch_scores_zero_for_pa(self):
        h = scenario_history(1)
        log = run_streaming_eval(
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
        log = run_streaming_eval(
            h, 9.0, ScorerKind.EDGEBANK, [NegativeStrategy.OE],
            batch_size=8, seed=0,
        )
        pos_scores = log.score[log.role == POSITIVE_ROLE]
        assert np.all(pos_scores[:8] == 0)  # first batch: unseen edge
        assert np.all(pos_scores[8:] == 0)  # (2,3) also first seen in its own batch

    def test_batch_size_one_matches_prefix_oracle(self):
        rng = np.random.default_rng(17)
        h = random_history(rng, n_events=150, n_nodes=12)
        t_split = 60.0
        log = run_streaming_eval(
            h, t_split, ScorerKind.EDGEBANK, [NegativeStrategy.OE, NegativeStrategy.OD],
            batch_size=1, seed=3, on_empty="abort",
        )
        # oracle: score every record against the exact strict prefix H_t of
        # its event, scanning the raw list
        keys_seen: list[set] = []
        seen: set = set()
        for i in range(len(h)):
            keys_seen.append(set(seen))
            seen.add(h.edge_key(int(h.src[i]), int(h.dst[i])))
        for r in range(len(log)):
            i = int(log.event_ordinal[r])
            expected = int(
                h.edge_key(int(log.source[r]), int(log.destination[r])) in keys_seen[i]
            )
            assert log.score[r] == expected

    def test_all_tie_batches_when_test_repeats_train(self):
        # test positives repeat train edges and HE negatives are train-only
        # edges: every score is 1 on the test side
        events = [(0, 1, 1.0), (2, 3, 2.0), (4, 5, 3.0), (4, 5, 4.0)]
        events += [(0, 1, 50.0), (0, 1, 60.0)]
        h = build_history(events)
        log = run_streaming_eval(
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
            log = run_streaming_eval(
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
            log = run_streaming_eval(
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
            log = run_streaming_eval(
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
            run_streaming_eval(
                h, 5.0, ScorerKind.EDGEBANK,
                [NegativeStrategy.IS], batch_size=4, seed=0, on_empty="abort",
            )

    def test_external_scorer_rejected(self):
        h = scenario_history(1)
        with pytest.raises(ValueError, match="external"):
            run_streaming_eval(h, SCENARIO_T_SPLIT, ScorerKind.EXTERNAL,
                               [NegativeStrategy.OE])

    def test_strategies_required(self):
        h = scenario_history(1)
        with pytest.raises(ValueError):
            run_streaming_eval(h, SCENARIO_T_SPLIT, ScorerKind.EDGEBANK, [])

    def test_negatives_match_standalone_sampling(self):
        # external-replay contract: the harness draws exactly the negatives
        # a direct sampling pass with the same seed derivation produces
        from dlpeval import build_candidate_index, derive_event_seed, sample_negatives

        rng = np.random.default_rng(51)
        h = random_history(rng, n_events=120, n_nodes=15)
        t_split = 50.0
        strategies = [NegativeStrategy.OE, NegativeStrategy.OD]
        seed = 13
        log = run_streaming_eval(h, t_split, ScorerKind.EDGEBANK, strategies,
                                 k_per_strategy=2, batch_size=16, seed=seed)
        idx = build_candidate_index(h, t_split)
        for i in range(len(h)):
            pos = h.event(i)
            for strategy in strategies:
                batch = sample_negatives(pos, strategy, 2, idx,
                                         derive_event_seed(seed, i))
                sel = (log.event_ordinal == i) & (log.role == strategy.value)
                got = list(zip(log.source[sel], log.destination[sel]))
                assert got == [(n.source, n.destination) for n in batch.negatives]

    def test_log_layout(self):
        h = scenario_history(2)
        strategies = [NegativeStrategy.OE, NegativeStrategy.OD]
        log = run_streaming_eval(
            h, SCENARIO_T_SPLIT, ScorerKind.EDGEBANK, strategies,
            k_per_strategy=3, batch_size=5, seed=0,
        )
        log.validate()
        assert log.strategies == ("OE", "OD")
        # one positive plus 2 strategies x 3 negatives per event
        assert len(log) == len(h) * (1 + 2 * 3)
        # batch ordinal reflects position in the stream
        assert int(log.batch.max()) == (len(h) - 1) // 5
