import io

import numpy as np
import pytest

from conftest import random_history, sample_and_score
from dlpeval import (
    NegativeStrategy,
    ScoredEventLog,
    ScoreLogError,
    ScoreLogMeta,
    ScorerKind,
    read_score_log,
    write_score_log,
)
from dlpeval.scorelog import POSITIVE_ROLE, dumps_score_log


def _meta(**overrides):
    base = dict(dataset="synthetic", t_split=50.0, batch_size=32,
                strategies=("OE", "OD"), k=2, seed=9, scorer="edgebank")
    base.update(overrides)
    return ScoreLogMeta(**base)


def _eval_log(seed=9):
    rng = np.random.default_rng(23)
    h = random_history(rng, n_events=250, n_nodes=18)
    return sample_and_score(
        h, 50.0, ScorerKind.EDGEBANK,
        [NegativeStrategy.OE, NegativeStrategy.OD],
        k_per_strategy=2, batch_size=32, seed=seed,
    )


class TestRoundTrip:
    def test_write_then_read_is_identity(self):
        log = _eval_log()
        meta = _meta()
        buf = io.StringIO()
        write_score_log(log, meta, buf)
        log2, meta2 = read_score_log(io.StringIO(buf.getvalue()))
        assert log2 == log
        assert meta2 == meta

    def test_crlf_file_reads_like_lf(self, tmp_path):
        log, meta = _eval_log(), _meta()
        crlf = dumps_score_log(log, meta).replace("\n", "\r\n").encode("utf-8")
        path = tmp_path / "scores.csv"
        path.write_bytes(crlf)
        for source in (path, crlf):
            log2, meta2 = read_score_log(source)
            assert log2 == log
            assert meta2 == meta

    def test_empty_log_is_header_only_and_valid(self):
        log = ScoredEventLog.from_records([], ("OE", "OD"))
        text = dumps_score_log(log, _meta())
        data_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert data_lines == ["event_ordinal,batch,role,source,destination,timestamp,score"]
        log2, meta2 = read_score_log(io.StringIO(text))
        assert len(log2) == 0
        assert meta2.strategies == ("OE", "OD")

    def test_scores_round_trip_exactly(self):
        # awkward floats must survive the 17-significant-digit format
        scores = [1 / 3, 0.1, np.nextafter(0.5, 1.0), 1e-300, 12345.678901234567]
        records = [
            (i, 0, POSITIVE_ROLE if j == 0 else "NS", 0, 1, float(i), s)
            for i, s in enumerate(scores)
            for j in range(2)
        ]
        log = ScoredEventLog.from_records(records, ("NS",))
        text = dumps_score_log(log, _meta(strategies=("NS",)))
        log2, _ = read_score_log(io.StringIO(text))
        assert np.array_equal(log.score, log2.score)
        assert np.array_equal(log.timestamp, log2.timestamp)


class TestWriteValidation:
    def test_undeclared_strategy_rejected_at_write(self):
        log = _eval_log()
        with pytest.raises(ScoreLogError, match="absent from header"):
            dumps_score_log(log, _meta(strategies=("OE",)))

    def test_invalid_log_rejected_at_write(self):
        records = [
            (0, 0, POSITIVE_ROLE, 0, 1, 5.0, 1.0),
            (0, 0, "OE", 2, 3, 6.0, 0.0),  # timestamp differs from positive
        ]
        log = ScoredEventLog.from_records(records, ("OE",))
        with pytest.raises(ScoreLogError, match="timestamp"):
            dumps_score_log(log, _meta(strategies=("OE",)))


class TestReadValidation:
    def _text(self, rows, strategies="OE"):
        header = (
            "# dataset=x\n# t_split=5.0\n# batch_size=4\n"
            f"# strategies={strategies}\n# k=1\n# seed=0\n# scorer=edgebank\n"
            "event_ordinal,batch,role,source,destination,timestamp,score\n"
        )
        return header + "".join(r + "\n" for r in rows)

    def test_non_numeric_score_reports_line(self):
        text = self._text([
            "0,0,positive,0,1,1.0,1.0",
            "0,0,OE,2,3,1.0,oops",
        ])
        with pytest.raises(ScoreLogError, match="line 10"):
            read_score_log(io.StringIO(text))

    def test_non_finite_score_rejected(self):
        text = self._text(["0,0,positive,0,1,1.0,nan"])
        with pytest.raises(ScoreLogError, match="non-finite"):
            read_score_log(io.StringIO(text))

    def test_wrong_arity_reports_line(self):
        text = self._text(["0,0,positive,0,1,1.0"])
        with pytest.raises(ScoreLogError, match="line 9.*fields"):
            read_score_log(io.StringIO(text))

    def test_undeclared_role_rejected(self):
        text = self._text([
            "0,0,positive,0,1,1.0,1.0",
            "0,0,IE,2,3,1.0,0.0",
        ])
        with pytest.raises(ScoreLogError, match="undeclared"):
            read_score_log(io.StringIO(text))

    def test_negative_timestamp_mismatch_rejected(self):
        text = self._text([
            "0,0,positive,0,1,1.0,1.0",
            "0,0,OE,2,3,2.0,0.0",
        ])
        with pytest.raises(ScoreLogError, match="differs from its positive"):
            read_score_log(io.StringIO(text))

    def test_timestamp_disorder_rejected(self):
        text = self._text([
            "0,0,positive,0,1,5.0,1.0",
            "0,0,OE,2,3,5.0,0.0",
            "1,0,positive,0,1,4.0,1.0",
            "1,0,OE,2,3,4.0,0.0",
        ])
        with pytest.raises(ScoreLogError, match="chronological"):
            read_score_log(io.StringIO(text))

    def test_non_contiguous_ordinals_rejected(self):
        text = self._text([
            "0,0,positive,0,1,1.0,1.0",
            "2,0,positive,0,1,2.0,1.0",
        ])
        with pytest.raises(ScoreLogError, match="contiguous"):
            read_score_log(io.StringIO(text))

    def test_duplicate_positive_rejected(self):
        text = self._text([
            "0,0,positive,0,1,1.0,1.0",
            "0,0,positive,0,1,1.0,0.5",
        ])
        with pytest.raises(ScoreLogError, match="multiple positive"):
            read_score_log(io.StringIO(text))

    def test_missing_positive_rejected(self):
        text = self._text(["0,0,OE,2,3,1.0,0.0"])
        with pytest.raises(ScoreLogError, match="lacks a positive"):
            read_score_log(io.StringIO(text))

    def test_decreasing_batch_rejected(self):
        text = self._text([
            "0,1,positive,0,1,1.0,1.0",
            "1,0,positive,0,1,2.0,1.0",
        ])
        with pytest.raises(ScoreLogError, match="batch"):
            read_score_log(io.StringIO(text))

    def test_missing_header_key_rejected(self):
        text = (
            "# dataset=x\n"
            "event_ordinal,batch,role,source,destination,timestamp,score\n"
        )
        with pytest.raises(ScoreLogError, match="missing header"):
            read_score_log(io.StringIO(text))

    def test_unexpected_column_row_rejected(self):
        text = "# dataset=x\nordinal,role,score\n"
        with pytest.raises(ScoreLogError, match="column row"):
            read_score_log(io.StringIO(text))
