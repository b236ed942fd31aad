import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_force_ranks,
    log_from_records,
    make_log,
    pair_counting_auc,
    worked_example_log,
)
from dlpeval import batch_auc, mar_time_series, mean_auc_over_batches
from dlpeval.metrics import _descending_ranks, fractional_ranks, write_auc_csv, write_mar_csv
from dlpeval.scorelog import POSITIVE_ROLE


@st.composite
def tied_logs(draw):
    """A log of 1-12 events: a positive plus 0-3 negatives of each of two
    strategies, scored on a binary or a coarse grid, with tied timestamps
    and non-decreasing batches."""
    grid = draw(st.sampled_from([(0.0, 1.0), (0.0, 0.25, 0.5, 0.75, 1.0)]))
    score = st.sampled_from(grid)
    n = draw(st.integers(1, 12))
    groups = [(draw(score), {s: draw(st.lists(score, max_size=3)) for s in ("A", "B")})
              for _ in range(n)]
    t = np.cumsum(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))).tolist()
    batch = np.cumsum(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))).tolist()
    return make_log(groups, ("A", "B"), batch_of=batch.__getitem__,
                    t_of=lambda o: float(t[o]))


class TestBatchAuc:
    def test_perfect_separation(self):
        assert batch_auc([1, 1], [0, 0]) == 1.0

    def test_all_ties(self):
        assert batch_auc([1], [1]) == 0.5

    def test_binary_scorer_p_half(self):
        # fraction p of positives at 1, negatives all at 1 -> AUC = p / 2
        for p in (0.0, 0.25, 0.5, 1.0):
            n = 40
            ones = int(p * n)
            pos = [1.0] * ones + [0.0] * (n - ones)
            neg = [1.0] * n
            assert batch_auc(pos, neg) == pair_counting_auc(pos, neg) == p / 2

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n_pos = int(rng.integers(1, 101))
            n_neg = int(rng.integers(1, 101))
            # coarse grid of score values forces plenty of ties
            pos = rng.integers(0, 5, n_pos) / 4.0
            neg = rng.integers(0, 5, n_neg) / 4.0
            assert batch_auc(pos, neg) == pair_counting_auc(pos, neg)

    def test_matches_pair_counting_at_thousand_per_side(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            pos = rng.integers(0, 7, 1000) / 6.0
            neg = rng.integers(0, 7, 1000) / 6.0
            assert batch_auc(pos, neg) == pair_counting_auc(pos, neg)

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pos = rng.integers(0, 4, int(rng.integers(1, 50))) / 3.0
            neg = rng.integers(0, 4, int(rng.integers(1, 50))) / 3.0
            assert batch_auc(pos, neg) + batch_auc(neg, pos) == pytest.approx(1.0)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pos = rng.integers(0, 6, int(rng.integers(1, 40))) / 5.0
            neg = rng.integers(0, 6, int(rng.integers(1, 40))) / 5.0
            base = batch_auc(pos, neg)
            for f in (lambda x: 3 * x + 2, np.exp, lambda x: x ** 3):
                assert batch_auc(f(np.asarray(pos)), f(np.asarray(neg))) == base

    def test_empty_side_is_an_error(self):
        with pytest.raises(ValueError):
            batch_auc([], [1.0])
        with pytest.raises(ValueError):
            batch_auc([1.0], [])


class TestMeanAucOverBatches:
    def test_two_batches_average(self):
        groups = [(1.0, {"NS": [0.0]}), (0.0, {"NS": [1.0]})]
        log = make_log(groups, ("NS",), batch_of=lambda o: o)
        report = mean_auc_over_batches(log, "NS", period="all")
        assert report.auc.tolist() == [1.0, 0.0]
        assert report.mean_auc == 0.5

    def test_single_batch_identity(self):
        log = make_log([(1.0, {"NS": [0.0, 1.0]})], ("NS",))
        report = mean_auc_over_batches(log, "NS", period="all")
        assert report.mean_auc == batch_auc([1.0], [0.0, 1.0]) == 0.75

    def test_period_filtering(self):
        groups = [(1.0, {"NS": [0.0]}), (1.0, {"NS": [0.0]}),
                  (0.0, {"NS": [0.0]}), (0.0, {"NS": [1.0]})]
        log = make_log(groups, ("NS",), batch_of=lambda o: o // 2,
                       t_of=lambda o: float(o))
        t_split = 2.0
        train = mean_auc_over_batches(log, "NS", "train", t_split)
        test = mean_auc_over_batches(log, "NS", "test", t_split)
        assert train.mean_auc == 1.0
        assert test.mean_auc == 0.25  # ties at 0 and one clean loss

    def test_period_needs_t_split(self):
        log = make_log([(1.0, {"NS": [0.0]})], ("NS",))
        with pytest.raises(ValueError):
            mean_auc_over_batches(log, "NS", "test", None)

    def test_batches_missing_one_class_are_skipped_and_counted(self):
        records = [
            (0, 0, POSITIVE_ROLE, 0, 1, 0.0, 1.0),
            (0, 0, "NS", 2, 3, 0.0, 0.0),
            (1, 1, POSITIVE_ROLE, 0, 1, 1.0, 1.0),  # batch 1 has no negatives
        ]
        log = log_from_records(records, ("NS",))
        report = mean_auc_over_batches(log, "NS", "all")
        assert len(report.auc) == 1
        assert report.skipped_batches == 1

    @settings(max_examples=150, deadline=None)
    @given(log=tied_logs(), strategy=st.sampled_from(["A", "B"]),
           period=st.sampled_from(["all", "test"]), t_split=st.integers(0, 12))
    def test_matches_pair_counting_per_batch(self, log, strategy, period, t_split):
        keep = (log.timestamp >= t_split) if period == "test" else np.ones(len(log), bool)
        pos_code, neg_code = log.names.index(POSITIVE_ROLE), log.names.index(strategy)
        want, skipped = [], 0
        for b in np.unique(log.batch[keep & np.isin(log.role, [pos_code, neg_code])]):
            sel = keep & (log.batch == b)
            pos = log.score[sel & (log.role == pos_code)]
            neg = log.score[sel & (log.role == neg_code)]
            if len(pos) and len(neg):
                times = log.timestamp[sel & np.isin(log.role, [pos_code, neg_code])]
                want.append((int(b), times.min(), times.max(), pair_counting_auc(pos, neg)))
            else:
                skipped += 1
        if neg_code not in log.role or not want:
            with pytest.raises(ValueError):
                mean_auc_over_batches(log, strategy, period, float(t_split))
            return
        report = mean_auc_over_batches(log, strategy, period, float(t_split))
        got = list(zip(report.batch.tolist(), report.t_start.tolist(),
                       report.t_end.tolist(), report.auc.tolist()))
        assert got == want
        assert report.mean_auc == np.mean([w[3] for w in want])
        assert report.skipped_batches == skipped

    def test_no_usable_batch_is_an_error(self):
        records = [(0, 0, POSITIVE_ROLE, 0, 1, 0.0, 1.0)]
        log = log_from_records(records, ("NS",))
        with pytest.raises(ValueError):
            mean_auc_over_batches(log, "NS", "all")


class TestRanks:
    def test_strict_order(self):
        assert fractional_ranks([0.9, 0.5, 0.1]).tolist() == [1, 2, 3]

    def test_full_tie(self):
        assert fractional_ranks([0.4, 0.4, 0.4]).tolist() == [2, 2, 2]

    def test_pairwise_tie(self):
        assert fractional_ranks([0.5, 0.5, 0.1]).tolist() == [1.5, 1.5, 3]

    def test_rank_sum_is_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            scores = rng.integers(0, 4, n) / 3.0
            ranks = fractional_ranks(scores)
            assert ranks.sum() == pytest.approx(n * (n + 1) / 2)
            assert ranks.min() >= 1.0 and ranks.max() <= n


    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           ids=st.sampled_from([[0, 1, 2], [0, 2 ** 40, 2 ** 53 - 1], list(range(8))]),
           values=st.sampled_from([
               [0.0, 1.0],  # heavy ties
               [-0.0, 0.0, 5e-324, -5e-324, float("inf"), -float("inf"), 1.0],
               [0.1, 0.2, 1 / 3, 2.5e-310, 1e308, -1e308]]))
    def test_group_ranks_match_brute_force(self, data, ids, values):
        # groups interleaved, not sorted, and ids up to 2**53 - 1
        n = data.draw(st.integers(0, 40))
        group = np.array(data.draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n)),
                         dtype=np.int64)
        scores = np.array(data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)),
                          dtype=np.float64)
        assert _descending_ranks(scores, group).tolist() == \
            brute_force_ranks(scores.tolist(), group.tolist())

    def test_nan_ranks_in_one_group_are_kept(self):
        # a NaN sorts after every score, so it takes the best ranks, one each
        nan = float("nan")
        assert fractional_ranks([1.0, nan, 0.5, nan, 1.0]).tolist() == [3.5, 2.0, 5.0, 1.0, 3.5]
        assert batch_auc([0.9, nan], [0.5, nan, 0.1]) == 2 / 3
        assert batch_auc([nan], [0.5]) == 1.0 and batch_auc([0.5], [nan]) == 0.0


class TestNanScores:
    """Among many groups a NaN score has no place in its group's order, so
    the log metrics refuse it; ``ScoredEventLog.validate`` already does."""

    def _log(self):
        return make_log([(0.9, {"NS": [float("nan")]}), (0.2, {"NS": [0.1]})], ("NS",),
                        batch_of=lambda o: o)

    def test_mean_auc_over_batches_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN score"):
            mean_auc_over_batches(self._log(), "NS", "all")

    def test_mar_time_series_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN score"):
            mar_time_series(self._log(), bins=2)


class TestMarTimeSeries:
    def test_worked_example_single_bin(self):
        series = mar_time_series(worked_example_log(), bins=1)
        assert series.roles == (POSITIVE_ROLE, "NS1", "NS2")
        assert series.mar[:, 0].tolist() == [7 / 4, 2.0, 9 / 4]

    def test_empty_bin_is_missing(self):
        groups = [(0.9, {"NS": [0.1]}), (0.9, {"NS": [0.1]})]
        log = make_log(groups, ("NS",), t_of=lambda o: float(o * 10))
        series = mar_time_series(log, bins=5)
        assert np.isfinite(series.mar[0, 0])
        assert np.isnan(series.mar[0, 2])  # nothing lands mid-range
        assert series.counts[0, 2] == 0

    def test_single_event_identity(self):
        log = make_log([(0.9, {"NS1": [0.5], "NS2": [0.1]})], ("NS1", "NS2"))
        series = mar_time_series(log, bins=1)
        assert series.mar[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_last_bin_closed_on_both_ends(self):
        groups = [(0.9, {"NS": [0.1]})] * 3
        log = make_log(groups, ("NS",), t_of=lambda o: float(o))  # t = 0, 1, 2
        series = mar_time_series(log, bins=2)
        assert series.counts[0].tolist() == [1, 2]  # t=1 in bin 1, t=2 clamped in

    def test_record_on_an_edge_counts_in_the_bin_it_starts(self):
        # truncating (t - t0) / span * bins would put 957692574 in bin 28
        times = [948649446.0, 957692574.0, 964241046.0]
        log = make_log([(0.9, {"NS": [0.1]})] * 3, ("NS",), t_of=times.__getitem__)
        series = mar_time_series(log, bins=50)
        assert series.bin_edges[29] == times[1]
        assert np.flatnonzero(series.counts[0]).tolist() == [0, 29, 49]

    def test_group_ranks_lie_in_group_size_range(self):
        rng = np.random.default_rng(5)
        groups = []
        for _ in range(50):
            groups.append((float(rng.random()),
                           {"A": rng.random(3).tolist(), "B": rng.random(3).tolist()}))
        log = make_log(groups, ("A", "B"), t_of=lambda o: float(o % 7))
        series = mar_time_series(log, bins=4)
        finite = series.mar[np.isfinite(series.mar)]
        assert finite.min() >= 1.0
        assert finite.max() <= 7.0  # group size 1 + 2 strategies x 3

    @settings(max_examples=150, deadline=None)
    @given(log=tied_logs(), bins=st.integers(1, 6))
    def test_matches_brute_force_ranks(self, log, bins):
        # every record's rank within its event, summed per (role, bin)
        ranks = brute_force_ranks(log.score.tolist(), log.event_ordinal.tolist())
        # in the last bin whose left edge is at or before the record
        t0, t1 = log.timestamp.min(), log.timestamp.max()
        edges = np.linspace(t0, t1, bins + 1).tolist()
        sums = np.zeros((3, bins))
        counts = np.zeros((3, bins), dtype=np.int64)
        for code, t, rank in zip(log.role.tolist(), log.timestamp.tolist(), ranks):
            b = max(i for i in range(bins) if edges[i] <= t) if t1 > t0 else 0
            r = (POSITIVE_ROLE, "A", "B").index(log.names[code])
            sums[r, b] += rank
            counts[r, b] += 1
        series = mar_time_series(log, bins)
        assert np.array_equal(series.counts, counts)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(series.mar, sums / counts, equal_nan=True)

    def test_bins_must_be_positive(self):
        log = make_log([(1.0, {"NS": [0.0]})], ("NS",))
        with pytest.raises(ValueError):
            mar_time_series(log, bins=0)

    def test_empty_log_is_an_error(self):
        with pytest.raises(ValueError):
            mar_time_series(log_from_records([], ()), bins=5)


class TestCsvExports:
    def test_auc_csv(self, tmp_path):
        groups = [(1.0, {"NS": [0.0]}), (0.0, {"NS": [1.0]})]
        log = make_log(groups, ("NS",), batch_of=lambda o: o)
        report = mean_auc_over_batches(log, "NS", period="all")
        path = tmp_path / "auc.csv"
        write_auc_csv([report], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "strategy,batch,t_start,t_end,auc"
        assert lines[1] == "NS,0,0.0,0.0,1.0"

    def test_mar_csv_marks_missing(self, tmp_path):
        groups = [(0.9, {"NS": [0.1]}), (0.9, {"NS": [0.1]})]
        log = make_log(groups, ("NS",), t_of=lambda o: float(o * 10))
        series = mar_time_series(log, bins=5)
        path = tmp_path / "mar.csv"
        write_mar_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin,t_start,t_end,role,mar,count"
        missing = [l for l in lines[1:] if l.split(",")[4] == ""]
        assert missing and all(l.endswith(",0") for l in missing)
