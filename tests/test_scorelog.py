import io
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    LOG_COLUMNS,
    Pipe,
    log_from_records,
    random_history,
    read_through_fifo,
    sample_and_score,
    score_log_text,
    written_log,
)
from dlpeval import (
    NegativeStrategy,
    ScoreLogError,
    ScoreLogMeta,
    ScorerKind,
    read_score_log,
    write_score_log,
)
from dlpeval import scorelog
from dlpeval.core import _CHUNK
from dlpeval.scorelog import POSITIVE_ROLE


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
        crlf = written_log(log, meta).replace("\n", "\r\n").encode("utf-8")
        path = tmp_path / "scores.csv"
        path.write_bytes(crlf)
        for source in (path, crlf):
            log2, meta2 = read_score_log(source)
            assert log2 == log
            assert meta2 == meta

    def test_bare_cr_file_reads_like_lf(self, tmp_path):
        # body lines end where header lines do: at a bare CR too
        log, meta = _eval_log(), _meta()
        cr = written_log(log, meta).replace("\n", "\r").encode("utf-8")
        path = tmp_path / "scores.csv"
        path.write_bytes(cr)
        for source in (path, cr):
            assert read_score_log(source) == (log, meta)

    def test_empty_log_is_header_only_and_valid(self):
        log = log_from_records([], ("OE", "OD"))
        text = written_log(log, _meta())
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
        log = log_from_records(records, ("NS",))
        text = written_log(log, _meta(strategies=("NS",)))
        log2, _ = read_score_log(io.StringIO(text))
        assert np.array_equal(log.score, log2.score)
        assert np.array_equal(log.timestamp, log2.timestamp)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e308, 0.1, 1 / 3]


@st.composite
def awkward_logs(draw):
    """A log of 1-8 events with ties among scores and timestamps and the
    floats whose text is easiest to get wrong."""
    value = st.one_of(st.sampled_from(EDGE_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False))
    n = draw(st.integers(1, 8))
    t = sorted(draw(st.lists(st.sampled_from(EDGE_FLOATS[:4] + [2.5]),
                             min_size=n, max_size=n)))
    records = []
    for o in range(n):
        negatives = draw(st.lists(st.sampled_from(["OE", "OD"]), max_size=4))
        for role in [POSITIVE_ROLE] + negatives:
            records.append((o, o // 3, role, draw(st.integers(0, 10**12)),
                            draw(st.integers(0, 9)), t[o], draw(value)))
    return log_from_records(records, ("OE", "OD"))


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(log=awkward_logs())
    def test_write_read_write_is_byte_identical(self, log):
        text = written_log(log, _meta())
        log2, meta2 = read_score_log(io.StringIO(text))
        assert log2 == log and meta2 == _meta()
        assert np.array_equal(log2.score.view(np.int64), log.score.view(np.int64))
        assert np.array_equal(log2.timestamp.view(np.int64), log.timestamp.view(np.int64))
        assert written_log(log2, meta2) == text


# role names that survive the header and the body: Latin-1, none of the
# header's separators, no padding that the header would strip
_ROLE_NAME = st.text(st.characters(max_codepoint=255, exclude_characters=",\r\n"),
                     min_size=1, max_size=4).filter(lambda s: s == s.strip() != POSITIVE_ROLE)


@st.composite
def coded_logs(draw):
    """A log of 0-6 events over 0-4 random role names, each event a positive
    and any negatives, with its header."""
    strategies = tuple(draw(st.lists(_ROLE_NAME, max_size=4,
                                     unique_by=lambda s: s.rstrip("\0"))))
    records = []
    for o in range(draw(st.integers(0, 6))):
        negatives = draw(st.lists(st.sampled_from(strategies), max_size=3)) if strategies else []
        for role in [POSITIVE_ROLE] + negatives:
            records.append((o, o, role, draw(st.integers(0, 10 ** 6)), draw(st.integers(0, 9)),
                            float(o), draw(st.floats(allow_nan=False, allow_infinity=False))))
    return log_from_records(records, strategies), _meta(strategies=strategies)


class TestCodedRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(coded=coded_logs())
    def test_write_then_read_is_identity(self, coded):
        log, meta = coded
        text = written_log(log, meta)
        assert text == score_log_text(log, meta)
        log2, meta2 = read_score_log(io.StringIO(text))
        assert log2 == log and meta2 == meta
        assert log2.role.dtype == np.int8 and log2.names == log.names


class TestWriteValidation:
    def test_undeclared_strategy_rejected_at_write(self):
        log = _eval_log()
        with pytest.raises(ScoreLogError, match="absent from header"):
            written_log(log, _meta(strategies=("OE",)))

    def test_invalid_log_rejected_at_write(self):
        records = [
            (0, 0, POSITIVE_ROLE, 0, 1, 5.0, 1.0),
            (0, 0, "OE", 2, 3, 6.0, 0.0),  # timestamp differs from positive
        ]
        log = log_from_records(records, ("OE",))
        with pytest.raises(ScoreLogError, match="timestamp"):
            written_log(log, _meta(strategies=("OE",)))

    @pytest.mark.parametrize("case", ["invalid", "undeclared role", "repeated strategy",
                                      "positive strategy", "code past names", "role names"])
    def test_rejected_log_leaves_dest_untouched(self, tmp_path, case):
        meta = _meta(strategies=("OE",))
        if case == "invalid":
            log = log_from_records([(0, 0, "OE", 2, 3, 1.0, 0.0)], ("OE",))  # no positive
        elif case in ("code past names", "role names"):
            log = log_from_records([(0, 0, POSITIVE_ROLE, 0, 1, 1.0, 1.0),
                                    (0, 0, "OE", 2, 3, 1.0, 0.0)], ("OE",))
            log.role = np.array([0, 2], np.int8) if case == "code past names" else np.array(
                [POSITIVE_ROLE, "OE"])
        elif case == "undeclared role":
            log = _eval_log()
        else:
            log = _eval_log()
            meta = _meta(strategies=("OE", "OD", "OE" if case == "repeated strategy"
                                     else POSITIVE_ROLE))
        with pytest.raises(ScoreLogError):
            write_score_log(log, meta, tmp_path / "new.csv")
        assert not (tmp_path / "new.csv").exists()
        old = tmp_path / "old.csv"
        old.write_bytes(b"earlier run\n")
        with pytest.raises(ScoreLogError):
            write_score_log(log, meta, old)
        assert old.read_bytes() == b"earlier run\n"

    def test_log_longer_than_a_chunk_matches_per_record_text(self):
        # _CHUNK + 1 records: one full chunk of rows and one row after it
        n_events = (_CHUNK + 1) // 3 + 1
        rng = np.random.default_rng(2)
        records = [(o, o // 7, role, int(u), int(v), o / 3, float(score))
                   for o, u, v, score in zip(range(n_events), rng.integers(0, 10**9, n_events),
                                             rng.integers(0, 99, n_events),
                                             rng.normal(size=n_events))
                   for role in (POSITIVE_ROLE, "OE", "OD")][:_CHUNK + 1]
        log = log_from_records(records, ("OE", "OD"))
        assert len(log) == _CHUNK + 1
        text = written_log(log, _meta())
        assert text == score_log_text(log, _meta())
        log2, meta2 = read_score_log(io.StringIO(text))
        assert log2 == log and meta2 == _meta()


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_t_split_rejected(self, value):
        text = self._text(["0,0,positive,0,1,1.0,1.0"]).replace("t_split=5.0", f"t_split={value}")
        with pytest.raises(ScoreLogError, match=f"malformed header value .*t_split={value}"):
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
        # nor may the records of one event lie in different batches
        text = self._text([
            "0,0,positive,0,1,1.0,1.0",
            "0,1,OE,2,3,1.0,0.0",
        ])
        with pytest.raises(ScoreLogError, match="records of one event disagree on batch ordinal"):
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
        # header lines with no column row after them, and a header line
        # that holds no key=value
        with pytest.raises(ScoreLogError, match="^missing column row$"):
            read_score_log(io.StringIO("# dataset=x\n# k=1\n"))
        with pytest.raises(ScoreLogError, match="^line 2: malformed header line '# k 1'$"):
            read_score_log(io.StringIO("# dataset=x\n# k 1\n# seed=0\n"))

    def test_long_undeclared_role_with_declared_prefix_rejected(self):
        # a role wider than every declared one must not be cut into a match
        text = self._text([
            "0,0,positive,0,1,1.0,1.0",
            "0,0,OEXXXXXXXXXX,2,3,1.0,0.0",
        ])
        with pytest.raises(ScoreLogError,
                           match=r"undeclared roles present: \[.*'OEXXXXXXXXXX'\)?\]"):
            read_score_log(io.StringIO(text))

    @pytest.mark.parametrize("role,named", [
        ("HD\x00", "HD"),  # a str_ column drops trailing NULs, and so does the message
        ("€", "€"), ("é", "é"), ("", ""),
        ("positiveX", "positiveX"),  # one wider than the widest name
    ])
    def test_undeclared_role_is_named(self, role, named):
        text = self._text(["0,0,positive,0,1,1.0,1.0", f"0,0,{role},2,3,1.0,0.0"])
        with pytest.raises(ScoreLogError) as info:
            read_score_log(io.StringIO(text))
        assert str(info.value) == f"undeclared roles present: [{np.str_(named)!r}]"

    def test_role_with_trailing_nul_reads_as_declared_name(self):
        text = self._text(["0,0,positive,0,1,1.0,1.0", "0,0,OE\x00,2,3,1.0,0.0"])
        log, _ = read_score_log(io.StringIO(text))
        assert [log.names[c] for c in log.role] == [POSITIVE_ROLE, "OE"]

    @pytest.mark.parametrize("padded", ["1\xa0", "　1", "1\x85"])
    def test_number_padded_with_unicode_whitespace_reads_from_every_source(
            self, tmp_path, padded):
        # numpy takes such a number from its text, though not from its bytes
        text = self._text(["0,0,positive,0,1,1.0,1.0", f"0,0,OE,2,{padded},1.0,0.0"])
        path = tmp_path / "scores.csv"
        path.write_text(text, encoding="utf-8")
        for source in (path, io.StringIO(text), Pipe(text)):
            log, _ = read_score_log(source)
            assert log.destination.tolist() == [1, 1]

    @pytest.mark.parametrize("byte", [b"\xa0", b"\x85"])
    def test_lone_latin_1_whitespace_byte_is_not_utf8(self, tmp_path, byte):
        # read as Latin-1, the byte would pass for whitespace after the last
        # score, which lies past the first block a text handle decodes
        path = tmp_path / "scores.csv"
        rows = [f"{o},0,positive,0,1,1.0,1.0" for o in range(1000)]
        path.write_bytes(self._text(rows).encode()[:-1] + byte + b"\n")
        with pytest.raises(ScoreLogError) as info:
            read_score_log(path)
        assert str(info.value) == f"not UTF-8 text (invalid start byte: {byte!r})"

    @pytest.mark.parametrize("strategies,message", [
        ("HD,HD", "strategies: 'HD' is repeated"),
        ("positive,HD", "strategies: 'positive' is the positive role"),
        ("HD,HD\x00", "strategies: 'HD\\x00' is repeated"),
        ("OE,€", "strategies: '€' is not Latin-1 text"),
        pytest.param(",".join(f"S{i}" for i in range(128)),
                     "strategies: 128 names, more than 127", id="128 names"),
    ])
    def test_strategies_that_cannot_name_codes_rejected(self, strategies, message):
        text = self._text(["0,0,positive,0,1,1.0,1.0", "0,0,HD,2,3,1.0,0.0"], strategies)
        with pytest.raises(ScoreLogError) as info:
            read_score_log(io.StringIO(text))
        assert str(info.value) == message

    def test_pipe_reads_like_a_file(self):
        rows = ["0,0,positive,0,1,1.0,1.0", "0,0,OE,2,3,1.0,0.0"]
        assert read_score_log(Pipe(self._text(rows))) == read_score_log(
            io.StringIO(self._text(rows)))
        for bad, message in (("0,0,OE,2,3,1.0,oops", "line 10: unparseable field"),
                             ("0,0,IE,2,3,1.0,0.0", "undeclared roles present")):
            with pytest.raises(ScoreLogError, match=message):
                read_score_log(Pipe(self._text(rows[:1] + [bad])))

    def test_header_only_log_reads_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log, meta = read_score_log(io.StringIO(self._text([])))
        assert len(log) == 0 and meta.strategies == ("OE",)

    @pytest.mark.parametrize("row,message", [
        ("0,5.0,positive,0,1,1.0,1.0",
         "line 9: unparseable field (invalid literal for int() with base 10: '5.0')"),
        ("0,0,positive,0,1,1.0,",
         "line 9: unparseable field (could not convert string to float: '')"),
        # numbers that Python reads but the format refuses
        ("0,0,positive,0,1,1.0,1_0",
         "line 9: unparseable field ('1_0' is not ASCII text with no '_')"),
        ("0,0,positive,0,\u0663,1.0,1.0",
         "line 9: unparseable field ('\u0663' is not ASCII text with no '_')"),
        ("0,0,positive,99999999999999999999,1,1.0,1.0",
         "line 9: unparseable field ('99999999999999999999' does not fit in int64)"),
    ])
    def test_bad_number_reports_its_line(self, row, message):
        text = self._text([row, "0,0,OE,2,3,1.0,0.0"])
        with pytest.raises(ScoreLogError) as info:
            read_score_log(io.StringIO(text))
        assert str(info.value) == message
        assert info.value.line == 9

    def test_header_line_after_column_row_reports_line(self):
        text = self._text(["0,0,positive,0,1,1.0,1.0", "", "# scorer=other"])
        with pytest.raises(ScoreLogError) as info:
            read_score_log(io.StringIO(text))
        assert str(info.value) == "line 11: header line after column row"

    def test_blank_body_lines_are_skipped(self):
        rows = ["0,0,positive,0,1,1.0,1.0", "0,0,OE,2,3,1.0,0.0"]
        plain, _ = read_score_log(io.StringIO(self._text(rows)))
        spaced, _ = read_score_log(io.StringIO(self._text(["", rows[0], "", "", rows[1], ""])))
        assert spaced == plain and len(plain) == 2


# Generated score-log files. Most are valid logs; some records carry a role
# with a NUL, an undeclared role, a bad number, a non-finite score or the
# wrong arity, and some files hold a byte that does not decode. Numbers may
# be padded with non-ASCII whitespace, which only the line walk reads, or
# with U+001C, which numpy strips and Python's int and float do not, or be
# text that Python reads but the format refuses: a ``_``, a non-ASCII digit
# or an integer past int64. Lines end in LF, CRLF or a bare CR, and blank
# lines fall among the header and the body.
_NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
_ROLES = st.sampled_from(["OE"] * 4 + ["OD"] * 4 + ["OE\0", "O\0D", "\0", "HD", "é"])
_ODD_NUMBERS = ["1\xa0", "\u30001", "\x1c1", "1_0", "\u0663"]
_SCORES = st.sampled_from(["0.5", "1", "-0", "0", "5e-324", "0.33333333333333331",
                           "1e308"] * 3 + ["nan", "inf", "oops", ""] + _ODD_NUMBERS)
_ENDPOINTS = st.sampled_from([str(i) for i in range(10)] * 6
                             + _ODD_NUMBERS + [str(2 ** 63), str(-2 ** 63)])


@st.composite
def _log_file(draw):
    """The bytes of a score-log file."""
    lines = ["# dataset=x", "# t_split=1.5", "# batch_size=2", "# strategies=OE,OD",
             "# k=1", "# seed=0", "# scorer=edgebank",
             "event_ordinal,batch,role,source,destination,timestamp,score"]
    for o in range(draw(st.integers(0, 5))):
        for role in ["positive"] + draw(st.lists(_ROLES, max_size=3)):
            fields = [str(o), str(o // 2), role, draw(_ENDPOINTS), draw(_ENDPOINTS),
                      f"{o / 2!r}", draw(_SCORES)]
            if draw(st.integers(0, 15)) == 0:
                fields = fields[:draw(st.integers(1, 8))] + ["1"] * draw(st.integers(0, 1))
            lines.append(",".join(fields))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    text = "".join(line + draw(_NEWLINES) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _read_outcome(source):
    """What reading ``source`` gives: the log's columns, bit for bit, and its
    header, or the error raised. A decoding error is told by its reason and
    bad bytes: its position depends on how much was decoded at once."""
    try:
        log, meta = read_score_log(source)
    except ScoreLogError as exc:
        return "ScoreLogError", str(exc), exc.line
    except UnicodeDecodeError as exc:
        return "UnicodeDecodeError", exc.reason, exc.object[exc.start:exc.end]
    return meta, [(column.dtype.str, column.tobytes())
                  for column in (getattr(log, name) for name in LOG_COLUMNS)]


class TestReadMatchesAcrossSources:
    """numpy reads a log file by its path itself; every other source is read
    line by line. Both give the same log or the same error."""

    @settings(max_examples=300, deadline=None)
    @given(data=_log_file())
    def test_same_log_or_same_error(self, tmp_path_factory, data):
        want = _read_outcome(data)
        base = tmp_path_factory.getbasetemp()
        for name in ("scores.csv", "scores.csv.gz"):  # numpy decompresses a .gz name
            (base / name).write_bytes(data)
            assert _read_outcome(base / name) == want
            assert _read_outcome(str(base / name)) == want
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            pass
        else:
            assert _read_outcome(io.StringIO(text, newline="")) == want
            assert _read_outcome(Pipe(text, newline="")) == want
        if hasattr(os, "mkfifo"):
            assert read_through_fifo(_read_outcome, base / "scores.fifo", data) == want


class TestWalkMatchesParse:
    """The line walk is the reference reader of every body the columnar
    parse refuses: read by the walk alone, every file gives the same log
    or the same error."""

    @settings(max_examples=300, deadline=None)
    @given(data=_log_file())
    def test_walk_alone_reads_alike(self, data):
        want = _read_outcome(data)
        with mock.patch.object(scorelog, "_parse_records", return_value=None):
            assert _read_outcome(data) == want

    @settings(max_examples=200, deadline=None)
    @given(data=_log_file())
    def test_walk_reads_alike_without_its_fast_path(self, data):
        # a line of ASCII text with no '_' is parsed by int/float directly;
        # read field by field through _number instead, it gives the same
        # record or the same error
        with mock.patch.object(scorelog, "_parse_records", return_value=None):
            want = _read_outcome(data)
            with mock.patch.object(scorelog, "_fast_record", return_value=None):
                assert _read_outcome(data) == want
