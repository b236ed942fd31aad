import csv
import functools
import gzip
import io
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    Pipe,
    brute_force_ingest,
    build_history,
    events_of,
    format_rows,
    random_history,
    read_through_fifo,
)
from dlpeval import GraphKind, History, IngestError, ingest_csv
from dlpeval import core


def _ingest(text, **kw):
    return ingest_csv(io.StringIO(text), **kw)


class TestIngest:
    def test_rows_sorted_by_timestamp(self):
        h = _ingest("source,destination,timestamp\nA,B,3\nA,C,1\nB,C,2\n")
        assert h.t.tolist() == [1.0, 2.0, 3.0]
        # dense ids follow first appearance in time order: A, C, B
        assert h.labels == ("A", "C", "B")
        assert list(zip(h.src.tolist(), h.dst.tolist())) == [(0, 1), (2, 1), (0, 2)]

    def test_equal_timestamps_keep_input_order(self):
        h = _ingest("source,destination,timestamp\nA,B,5\nC,D,5\nE,F,5\nG,H,1\n")
        assert [h.labels[u] for u in h.src.tolist()] == ["G", "A", "C", "E"]

    def test_negative_timestamp_reports_line(self):
        with pytest.raises(IngestError, match="line 3.*negative"):
            _ingest("source,destination,timestamp\nA,B,1\nA,B,-1\n")

    def test_malformed_row_reports_line(self):
        with pytest.raises(IngestError, match="line 2"):
            _ingest("source,destination,timestamp\nA,B\n")

    def test_non_numeric_timestamp_reports_line(self):
        with pytest.raises(IngestError, match="line 4"):
            _ingest("source,destination,timestamp\nA,B,1\nA,C,2\nA,D,oops\n")

    def test_non_finite_timestamp_rejected(self):
        with pytest.raises(IngestError, match="non-finite"):
            _ingest("source,destination,timestamp\nA,B,nan\n")

    def test_self_loop_rejected_by_default(self):
        with pytest.raises(IngestError, match="self-loop"):
            _ingest("source,destination,timestamp\nA,A,1\n")

    def test_self_loop_accepted_when_enabled(self):
        h = _ingest("source,destination,timestamp\nA,A,1\n",
                    kind=GraphKind(allow_self_loops=True))
        assert len(h) == 1

    def test_empty_stream_rejected(self):
        with pytest.raises(IngestError, match="no event rows"):
            _ingest("source,destination,timestamp\n")
        with pytest.raises(IngestError, match="no header"):
            _ingest("")

    def test_minimal_schema_rejects_extra_columns(self):
        with pytest.raises(IngestError, match="line 2.*columns"):
            _ingest("source,destination,timestamp\nA,B,1,0\n")
        # and a schema that is neither is refused before the text is read
        with pytest.raises(ValueError, match="unknown schema 'tgb'"):
            _ingest("source,destination,timestamp\nA,B,1\n", schema="tgb")

    def test_jodie_schema_ignores_extra_columns(self):
        text = ("user_id,item_id,timestamp,state_label,f0,f1\n"
                "7,9,2.0,0,0.1,0.2\n"
                "8,9,1.0,1,0.3,0.4\n")
        h = _ingest(text, schema="jodie",
                    kind=GraphKind(directed=True, bipartite=True))
        assert len(h) == 2
        assert h.t.tolist() == [1.0, 2.0]

    def test_bipartite_id_ranges_are_disjoint(self):
        text = ("user_id,item_id,timestamp,state_label\n"
                "1,1,1.0,0\n"
                "2,1,2.0,0\n"
                "1,2,3.0,0\n")
        h = _ingest(text, schema="jodie", kind=GraphKind(bipartite=True))
        assert h.num_sources == 2
        assert h.num_nodes == 4
        assert set(h.src) <= {0, 1}
        assert set(h.dst) <= {2, 3}
        # label "1" legitimately names both a user and an item
        assert h.labels == ("1", "2", "1", "2")


# Generated CSV text. Labels are letters with padding whitespace (so " a"
# and "a" merge after strip) and the characters CSV quoting has to carry;
# some are as long as the label widths the scan can pick, one byte either
# side of 8, 16 and the cap, some hold a NUL, text outside ASCII or outside
# Latin-1, or a character whose UTF-8 bytes hold 0x85 or 0xA0, which a
# Latin-1 read must neither split a line at nor strip, and some are padded
# with whitespace that str.strip removes but bytes.strip keeps. A clean
# stream draws only well-formed rows; a dirty one may also draw rows of the
# wrong arity, raw unquoted fields and bad timestamps.
_PAD = st.sampled_from(["", "", " ", "\t", "\xa0", "\x85"])
_SPECIAL = st.text(alphabet=',"\r\n', max_size=2)
# csv reads a NUL from Python 3.11 on; before, the row oracle refuses it
_RARE = st.sampled_from(["é", "€", "Å", "à", "…"]
                        + (["\x00"] * 2 if sys.version_info >= (3, 11) else []))
_SIZES = [1, 2, 3] * 9 + [7, 8, 9, 15, 16, 17] + [core._MAX_WIDTH + d for d in (-1, 0, 1)]
_TIMES = ["1", "2", "2", "0", "-0", " 2 ", "1_000", "3.5", "1e3", "0.1", "\xa02",
          " 2", "+1", ".5", "1.", "1E3"]
_BAD_TIMES = ["-1", "nan", "inf", "oops", "", "0x10", "Infinity"]
_NEWLINE = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _label(draw, clean):
    size = draw(st.sampled_from(_SIZES + ([] if clean else [0, 0, 0])))
    text = draw(st.text(alphabet="ab", min_size=size, max_size=size))
    if draw(st.integers(0, 3)) == 0:
        text += draw(_SPECIAL)
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.one_of(st.just(len(text)), st.integers(0, len(text))))
        text = text[:at] + draw(_RARE) + text[at:]
    return draw(_PAD) + text + draw(_PAD)


@st.composite
def _field(draw, value, clean):
    """``value`` as one CSV field: quoted with its quotes doubled when it
    needs it (or at random), or, in a dirty stream, raw."""
    if not clean and draw(st.integers(0, 5)) == 0:
        return value
    if any(c in value for c in ',"\r\n') or draw(st.booleans()):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def _csv_text(draw):
    clean = draw(st.booleans())
    lines = [draw(st.sampled_from(["source,destination,timestamp", '"s\nx",d,t', ""]))]
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["row"] * 6 + ["blank"] + ([] if clean else ["short", "long"])))
        if shape == "blank":
            lines.append("")
            continue
        t = draw(st.sampled_from(_TIMES + ([] if clean else _BAD_TIMES)))
        fields = [draw(_field(draw(_label(clean)), clean)), draw(_field(draw(_label(clean)), clean)),
                  draw(_field(t, clean))]
        if shape == "short":
            fields = fields[:draw(st.integers(1, 2))]
        elif shape == "long":
            fields += [draw(_field(draw(_label(clean)), clean))
                       for _ in range(draw(st.integers(1, 2)))]
        lines.append(",".join(fields))
    end = draw(st.sampled_from(["", "\n"]))
    return "".join(line + draw(_NEWLINE) for line in lines[:-1]) + lines[-1] + end


def _outcome(read, source, **kw):
    """What ingesting ``source`` gives: the stream's columns and labels, or
    the error raised with its message."""
    try:
        h = read(source, **kw)
    except (IngestError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    return (h.src.tolist(), h.dst.tolist(), h.t.tolist(), h.labels, h.num_nodes,
            h.num_sources, h.src.dtype, h.t.dtype)


class TestIngestMatchesRowOracle:
    """The columnar ingest against the row-by-row oracle on generated CSV
    text, read from a path (numpy opens the file itself unless its name ends
    in a compressed suffix, it is a FIFO, or its text holds a NUL or both a
    CR and a quote), bytes, a text handle and a pipe."""

    @settings(max_examples=400, deadline=None)
    @given(text=_csv_text(),
           schema=st.sampled_from(["minimal", "jodie"]),
           kind=st.sampled_from([GraphKind(), GraphKind(directed=False),
                                 GraphKind(allow_self_loops=True),
                                 GraphKind(bipartite=True)]))
    def test_same_stream_or_same_error(self, tmp_path_factory, text, schema, kind):
        base = tmp_path_factory.getbasetemp()
        path = base / "ingest.csv"
        path.write_text(text, encoding="utf-8", newline="")
        want = _outcome(brute_force_ingest, path, schema=schema, kind=kind)
        # plain text under a .gz name, which numpy would decompress
        gz = base / "ingest.csv.gz"
        gz.write_text(text, encoding="utf-8", newline="")
        for source in (path, str(path), gz, str(gz)):
            assert _outcome(ingest_csv, source, schema=schema, kind=kind) == want
        if hasattr(os, "mkfifo"):
            read = functools.partial(_outcome, ingest_csv, schema=schema, kind=kind)
            assert read_through_fifo(read, base / "ingest.fifo", text.encode()) == want
        assert _outcome(ingest_csv, text.encode(), schema=schema, kind=kind) == want
        assert _outcome(ingest_csv, io.StringIO(text, newline=""), schema=schema,
                        kind=kind) == want
        assert _outcome(ingest_csv, Pipe(text, newline=""), schema=schema, kind=kind) == want

    def test_bytes_split_lines_at_a_bare_cr_as_a_path_does(self, tmp_path):
        data = b"s,d,t\ra,b,1\rc,d,2\r"
        path = tmp_path / "cr.csv"
        path.write_bytes(data)
        assert ingest_csv(data).labels == ingest_csv(path).labels == ("a", "b", "c", "d")

    @pytest.mark.parametrize("label", ["a\rb", "a\r\nb", "a\r\rb"])
    def test_quoted_cr_in_a_label_read_from_a_path_is_kept(self, tmp_path, label):
        # numpy would read a CR as a LF if it opened the file itself
        path = tmp_path / "cr.csv"
        path.write_text(f's,d,t\n"{label}",c,1\nc,d,2\n', encoding="utf-8", newline="")
        assert ingest_csv(path).labels == (label, "c", "d")

    @pytest.mark.parametrize("text, message", [
        ("s,d,t\na,b,1\na,b\n", "line 3: expected 3 columns, got 2"),
        ("s,d,t\na,b,1\n\n , b,2\n", "line 4: empty node label"),
        ("s,d,t\r\na,b,1\r\na,c,x\r\n", "line 3: invalid timestamp 'x'"),
        ("s,d,t\n\"a\nb\",c,1\nb,c,inf\n", "line 4: non-finite timestamp 'inf'"),
        ("s,d,t\na,b,2\na,c,-1\n", "line 3: negative timestamp '-1'"),
        ("s,d,t\na,b,2\n a,a ,1\n", "line 3: self-loop on 'a' (self-loops disabled)"),
    ])
    def test_each_error_names_its_line(self, text, message):
        with pytest.raises(IngestError) as caught:
            _ingest(text)
        assert str(caught.value) == message
        assert _outcome(brute_force_ingest, io.StringIO(text)) == ("IngestError", message)

    @pytest.mark.parametrize("text", [
        pytest.param("s,d,t\n" + "a" * 17 + ",b,1\n" + "a" * 16 + ",b,2\n", id="overlong"),
        pytest.param("s,d,t\na\0,b,1\na,c,2\nb\0c,a,3\n", id="nul",
                     marks=pytest.mark.skipif(sys.version_info < (3, 11),
                                              reason="csv refuses NUL before 3.11")),
        pytest.param("s,d,t\n\xa0a,b,1\nb\x85,a,2\n", id="unicode-padding"),
        pytest.param("s,d,t\né,b,1\n€,é,2\n", id="not-latin-1"),
        pytest.param("s,d,t\n" + "a" * 40 + ",b,1\nb," + "é" * 20 + ",2\n", id="40-bytes"),
        pytest.param("s,d,t\n" + "a" * core._MAX_WIDTH + ",b,1\nb,c,2\n", id="past-the-cap"),
        pytest.param('s,d,t\n"' + ",".join(["a" * 9] * 5) + '",b,1\nb,c,2\n', id="quoted-commas"),
        pytest.param("s,d,t\n" + "a" * 131073 + ",b,1\n", id="past-the-csv-field-limit"),
        pytest.param("s,d,t\n\ud800,b,1\n", id="lone-surrogate"),
    ])
    def test_labels_the_bytes_parse_cannot_hold(self, text):
        # labels of 16 and 17 bytes, a NUL that loadtxt drops, padding that
        # bytes.strip keeps, text outside Latin-1, a label of 40 bytes, one
        # past the cap, one whose quoted commas hide its length from the
        # scan, so that it fills the width, one past csv's field limit,
        # which fails as the oracle fails it, and a handle's lone surrogate,
        # which has no UTF-8 bytes, read from a pipe as from a handle
        for handle in (io.StringIO, Pipe):
            assert _outcome(ingest_csv, handle(text)) == \
                _outcome(brute_force_ingest, io.StringIO(text))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_labels_under_the_cap_take_the_columnar_parse(self, tmp_path, newline):
        # text outside Latin-1, bytes 0x85 and 0xA0, and a label one byte
        # under the cap, from a path, a handle and a pipe: one parse each,
        # and no walk
        labels = ["é€", "Å" * 4, "à…", "a" * (core._MAX_WIDTH - 1)]
        rows = [f"{u},{v},{t}" for t, (u, v) in enumerate(zip(labels, labels[1:]))]
        text = newline.join(["s,d,t"] + rows) + newline
        path = tmp_path / "utf8.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(core, "_walk_rows", side_effect=AssertionError("walked")), \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            for source in (path, io.StringIO(text, newline=""), Pipe(text, newline="")):
                assert ingest_csv(source).labels == tuple(labels)
        assert loadtxt.call_count == 3
        # numpy reads the file by its path, CRLF or bare-CR line ends and all
        assert loadtxt.call_args_list[0].args[0] == str(path)
        assert _outcome(ingest_csv, path) == _outcome(brute_force_ingest, path)

    @pytest.mark.parametrize("blocks, width", [
        (["s,d,t\n"], 8), (["a" * 7 + ",b\n"], 8), (["a" * 8 + ",b\n"], 16),
        (["é" * 4 + "\r\n"], 16), (["aaaa", "aaaa,b"], 16), (["a" * 40, "a" * 23 + "\n"], 64),
        (["a" * 40, "a" * 24], None), (["a\0,b\n"], 8),
    ])
    def test_scan_picks_the_width_across_blocks(self, blocks, width):
        # the longest run of UTF-8 bytes, a run cut by a block end counted
        # whole, plus one, rounded up to 8, and None past the cap; a NUL
        # counts as any byte, since _Text keeps such text from numpy
        assert core._scan_text(blocks) == width

    @pytest.mark.parametrize("blocks, by_path", [
        (["a,b\n"], True), (["a,b\r\n", "c,d\r\n"], True), (["a,b\r", "\nc,d\r\n"], True),
        (['"a",b\n'], True), (['"a",b\r\n'], False), (["a,b\r", "c,d\n"], True),
        (["a,b\rc,d\n"], True), (["a,b\r\r\n"], True), (["a,b\r\n", "c,d\r"], True),
        (['"a",b\r', "c,d\n"], False),
    ])
    def test_scan_lets_numpy_read_the_file_unless_a_cr_is_misread(self, tmp_path, blocks,
                                                                  by_path):
        # by path unless the text holds both a CR and the parse's quote,
        # wherever the two stand: without a quote numpy's universal
        # newlines end lines at the same CRs as csv, bare or in a CRLF; a
        # quote alone does not matter without a CR
        path = tmp_path / "rows.csv"
        path.write_text("".join(blocks), encoding="utf-8", newline="")
        with open(path, encoding="utf-8", newline="") as fh, \
                mock.patch.object(np, "loadtxt", return_value="rows") as loadtxt:
            assert core._Text(fh, path).loadtxt(0, quotechar='"') == "rows"
        assert (loadtxt.call_args.args[0] == str(path)) is by_path

    @pytest.mark.parametrize("data", [b"s,d,t\na\0,b,1\n", b"s,d,t\n\xff,b,1\n"])
    def test_text_that_holds_a_nul_or_does_not_decode_is_kept_from_numpy(self, tmp_path,
                                                                         data):
        # numpy drops a NUL from the end of a bytes field, and reads any
        # byte as Latin-1
        path = tmp_path / "rows.csv"
        path.write_bytes(data)
        with core._open_for_read(path) as fh, mock.patch.object(np, "loadtxt") as loadtxt:
            assert core._Text(fh, path).loadtxt(1) is None
        assert not loadtxt.called

    def test_a_pipe_is_held_as_its_utf8_bytes(self):
        # construction plus one pass of blocks() peaks near the text's bytes
        # twice over (the pipe's str and its encoding), not at the 4 bytes a
        # character of an io.StringIO
        pipe = Pipe("s,d,t\n" + "".join(f"n{i},m{i},{i}\n" for i in range(200_000)))
        size = len(pipe.getvalue())
        tracemalloc.start()
        try:
            for _ in core._Text(pipe, None).blocks():
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * size

    def test_undecodable_text_fails_as_the_row_walk_reads_it(self, tmp_path):
        # the error names the bad byte's place in the block being decoded,
        # so it comes from the same reads as the oracle's
        path = tmp_path / "bad.csv"
        path.write_bytes(b"s,d,t\n" + b"".join(b"n%d,m%d,1\n" % (i, i) for i in range(2000))
                         + b"\xff,c,2\n")
        with pytest.raises(UnicodeDecodeError) as got:
            ingest_csv(path)
        with pytest.raises(UnicodeDecodeError) as want:
            brute_force_ingest(path)
        assert str(got.value) == str(want.value)

    def test_loadtxt_bytes_fields_as_the_bytes_parse_expects(self, tmp_path):
        # the columnar parse relies on these; a numpy that parses otherwise
        # fails here, not in a later id mismatch
        def parse(source):
            return np.loadtxt(source, dtype=[("u", "S8"), ("v", "S8"), ("t", np.float64)],
                              delimiter=",", quotechar='"', comments=None, ndmin=1,
                              encoding="latin-1")[["u", "v"]].tolist()

        # a path read as Latin-1 and the UTF-8 bytes of lines both give each
        # field's UTF-8 bytes; a 0x85 or 0xA0 byte neither ends a line nor
        # is stripped
        text = "é,…,1\nÅ,à,2\n\x85a\xa0,\xa0,3\n"
        path = tmp_path / "rows.csv"
        path.write_text(text, encoding="utf-8", newline="")
        want = [(b"\xc3\xa9", b"\xe2\x80\xa6"), (b"\xc3\x85", b"\xc3\xa0"),
                (b"\xc2\x85a\xc2\xa0", b"\xc2\xa0")]
        assert parse(str(path)) == parse(map(str.encode, io.StringIO(text, newline=""))) == want
        # a longer field is cut silently, a trailing NUL dropped
        long = "a" * 7 + "bcd"
        assert parse([f'{long},"x\0",1\n'.encode()]) == [(long[:8].encode(), b"x")]
        assert parse([b"\0x\0, \xc3\xa9,1\n"]) == [(b"\0x", b" \xc3\xa9")]

    def test_numpy_reads_paths_and_sorts_complex_keys_as_expected(self, tmp_path):
        # core._Text and metrics._descending_ranks rely on these; a numpy
        # that reads or sorts otherwise fails here, not in a later mismatch
        def parse(path, **kw):
            return np.loadtxt(str(path), dtype=object, delimiter=",", quotechar='"',
                              comments=None, ndmin=2, encoding="latin-1", **kw).tolist()

        path = tmp_path / "rows.csv"
        # skiprows counts physical lines: a quoted field's two, and a blank one
        path.write_text('"h\nx",y\n\nc,1\r\nd,2\n', encoding="utf-8", newline="")
        assert parse(path, skiprows=3) == [["c", "1"], ["d", "2"]]
        # a file numpy opens has universal newlines: a quoted CR reads as LF
        path.write_text('"a\rb",1\n"c\r\nd",2\n', encoding="utf-8", newline="")
        assert parse(path) == [["a\nb", "1"], ["c\nd", "2"]]
        # so a quote-free file with CRLF line ends reads as with LF, each
        # CRLF one physical line
        path.write_text("h,x\r\n\r\nc,1\r\nd,2\r\n", encoding="utf-8", newline="")
        assert parse(path, skiprows=2) == [["c", "1"], ["d", "2"]]
        # and a quote-free file splits at every bare CR too, each CR one
        # physical line, as csv splits it
        path.write_text("h,x\r\rc,1\rd,2\r\ne,3\r", encoding="utf-8", newline="")
        assert parse(path, skiprows=2) == [["c", "1"], ["d", "2"], ["e", "3"]]
        # and a .gz name is decompressed
        gz = tmp_path / "rows.csv.gz"
        gz.write_bytes(gzip.compress(b"e,3\n"))
        assert parse(gz) == [["e", "3"]]

        # a stable complex sort orders by real part, then imaginary part,
        # keeps ties (-0.0 and 0.0 among them) in place, and puts a NaN
        # imaginary part after every other key, whatever the real part
        nan, inf = float("nan"), float("inf")
        key = np.array([complex(1, 0.5), complex(0, nan), complex(0, 2), complex(1, -inf),
                        complex(0, 2), complex(-1, nan), complex(0, 0.0), complex(0, -0.0)])
        assert np.argsort(key, kind="stable").tolist() == [6, 7, 2, 4, 3, 0, 5, 1]

    def test_padded_labels_merge_in_first_appearance_order(self):
        text = 's,d,t\n" b",a,2\nb ,c,3\n"a""q",b,1\n\n\tc\t,"a""q",2\n'
        h = _ingest(text)
        assert h.labels == ('a"q', "b", "a", "c")
        assert _outcome(ingest_csv, io.StringIO(text)) == \
            _outcome(brute_force_ingest, io.StringIO(text))


class TestGraphKind:
    def test_bipartite_requires_directed(self):
        with pytest.raises(ValueError):
            GraphKind(directed=False, bipartite=True)

    def test_canonical_edge(self):
        # an edge key packs the canonical pair (a, b) as a * num_nodes + b
        def key(kind, u, v):
            h = History.from_arrays([0], [1], [0.0], kind, num_nodes=6)
            return h.edge_keys(np.array([u]), np.array([v])).tolist()

        assert key(GraphKind(directed=False), 5, 2) == [2 * 6 + 5]
        assert key(GraphKind(directed=True), 5, 2) == [5 * 6 + 2]
        assert key(GraphKind(directed=False, allow_self_loops=True), 2, 2) == [2 * 6 + 2]


class TestSliceUntil:
    def test_strict_bound(self):
        h = build_history([(0, 1, 1.0), (0, 1, 2.0), (0, 1, 3.0)])
        assert len(h.slice_until(2.0)) == 1

    def test_empty_and_full(self):
        h = build_history([(0, 1, 1.0), (0, 1, 2.0), (0, 1, 3.0)])
        assert len(h.slice_until(0.0)) == 0
        assert len(h.slice_until(h.t[-1] + 1)) == len(h)

    def test_matches_brute_force_count(self):
        rng = np.random.default_rng(7)
        h = random_history(rng, n_events=300)
        probes = np.concatenate([h.t, h.t + 0.05, [0.0, h.t[-1] + 1]])
        for cutoff in probes:
            expected = int(np.sum(h.t < cutoff))
            assert len(h.slice_until(float(cutoff))) == expected


class TestRoundTrip:
    def test_export_then_ingest_is_identity(self):
        text = ("source,destination,timestamp\n"
                "alice,bob,3.5\nalice,carol,1.25\nbob,carol,2\ncarol,bob,2\n")
        h = _ingest(text)
        buf = io.StringIO()
        h.export_csv(buf)
        h2 = _ingest(buf.getvalue())
        assert events_of(h) == events_of(h2)
        assert h.labels == h2.labels

    def test_random_round_trip(self):
        # arbitrary ids survive as labels; a second round trip is an identity
        rng = np.random.default_rng(11)
        h = random_history(rng, n_events=200, n_nodes=15)
        assert h.labels is None  # an unlabelled stream exports its ids as labels
        buf = io.StringIO()
        h.export_csv(buf)
        h2 = _ingest(buf.getvalue())
        assert [(str(u), str(v), t) for u, v, t in events_of(h)] == \
               [(h2.labels[u], h2.labels[v], t) for u, v, t in events_of(h2)]
        buf2 = io.StringIO()
        h2.export_csv(buf2)
        h3 = _ingest(buf2.getvalue())
        assert events_of(h2) == events_of(h3)
        assert h2.labels == h3.labels

    def test_label_map_export(self):
        h = _ingest("source,destination,timestamp\nX,Y,1\nZ,X,2\n")
        buf = io.StringIO()
        h.export_label_map(buf)
        assert buf.getvalue() == "id,label\n0,X\n1,Y\n2,Z\n"
        # a stream without labels maps each id to itself
        buf = io.StringIO()
        build_history([(0, 2, 1.0), (1, 0, 2.0)]).export_label_map(buf)
        assert buf.getvalue() == "id,label\n0,0\n1,1\n2,2\n"


class TestRealDataIngest:
    def test_wikipedia_when_available(self, tmp_path):
        import os
        from pathlib import Path

        root = next((Path(c) for c in (os.environ.get("DLPEVAL_DATA_DIR"), "data")
                     if c and Path(c).is_dir()), None)
        if root is None or not (root / "wikipedia.csv").exists():
            pytest.skip("wikipedia.csv not found (set DLPEVAL_DATA_DIR)")
        h = ingest_csv(root / "wikipedia.csv", schema="jodie",
                       kind=GraphKind(bipartite=True))
        assert len(h) == 157474
        assert h.num_nodes == 9227


class TestFromArrays:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="finite"):
            History.from_arrays([0], [1], [float("nan")])
        with pytest.raises(ValueError, match="non-negative"):
            History.from_arrays([0], [1], [-1.0])
        with pytest.raises(ValueError, match="self-loop"):
            History.from_arrays([2], [2], [1.0])
        with pytest.raises(ValueError, match="range"):
            History.from_arrays([0], [5], [1.0], num_nodes=3)
        with pytest.raises(ValueError, match="source, destination and timestamp columns differ"):
            History.from_arrays([0, 1], [1], [1.0])
        with pytest.raises(ValueError, match="node ids must be non-negative"):
            History.from_arrays([-1], [1], [1.0])

    def test_bipartite_bounds_checked(self):
        kind = GraphKind(bipartite=True)
        with pytest.raises(ValueError, match="num_sources"):
            History.from_arrays([0], [3], [1.0], kind)
        with pytest.raises(ValueError, match="num_sources"):
            History.from_arrays([0, 3], [2, 4], [1.0, 2.0], kind, num_sources=2)
        with pytest.raises(ValueError, match="num_sources"):
            History.from_arrays([0, 1], [1, 3], [1.0, 2.0], kind, num_sources=2)
        h = History.from_arrays([0, 1], [2, 3], [1.0, 2.0], kind, num_sources=2)
        assert h.num_sources == 2


class TestOccurs:
    @settings(max_examples=150, deadline=None)
    @given(
        directed=st.booleans(),
        n_nodes=st.integers(1, 6),
        events=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 6)),
                        max_size=25),
        queries=st.lists(st.tuples(st.integers(-2, 8), st.integers(-2, 8),
                                   st.sampled_from([0.0, 1.0, 2.5, 3.0, 6.0, 7.0, -1.0])),
                         max_size=40),
    )
    def test_matches_set_oracle(self, directed, n_nodes, events, queries):
        # timestamps 2.5 and 7.0 never occur; ids -2, -1 and >= n_nodes are
        # outside the stream; undirected edges match in either orientation
        kind = GraphKind(directed=directed, allow_self_loops=True)
        events = [(u % n_nodes, v % n_nodes, float(t)) for u, v, t in events]
        h = build_history(events, kind=kind, num_nodes=n_nodes)

        def canon(u, v):
            return (u, v) if directed else (min(u, v), max(u, v))

        truth = {(canon(u, v), t) for u, v, t in events}
        # absent edges next to true ones, at their timestamps
        queries = queries + [(u, v + d, t) for u, v, t in events for d in (-1, 1)]
        u, v, t = (np.asarray(c) for c in zip(*queries)) if queries else (
            np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
        want = [0 <= a < n_nodes and 0 <= b < n_nodes and (canon(a, b), c) in truth
                for a, b, c in queries]
        assert h.occurs(u, v, t).tolist() == want


_INT64 = st.one_of(st.sampled_from([0, -1, 2 ** 63 - 1, -2 ** 63, 10 ** 18, -10 ** 18]),
                   st.integers(-2 ** 63, 2 ** 63 - 1), st.integers(-10 ** 6, 10 ** 6))
# the edges of the exact fast paths, short decimals and arbitrary doubles
_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-5, 1e-4, 1e15, 1e16, 5e-324, -5e-324, 0.5, 2.0 ** 53,
                     1e15 - 1, 999999999999999.9, float("nan"), float("inf"), float("-inf")]),
    st.builds(lambda m, p: m / 10 ** p, st.integers(-10 ** 15, 10 ** 15), st.integers(0, 6)),
    st.builds(float, st.integers(-10 ** 16, 10 ** 16)),
    st.floats())
_OBJECT = st.one_of(st.just(""), st.text(max_size=4), st.integers(), st.floats(),
                    st.booleans(), st.none())


class TestWriteRows:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 12), chunk=st.integers(1, 5),
           float_field=st.sampled_from(["{}", "{!r}", "{:.17g}"]),
           float_dtype=st.sampled_from([np.float64, np.float32]),
           int_dtype=st.sampled_from([np.int64, np.int32, np.uint8]),
           literal=st.sampled_from(["", ",", " é{{x}} ", "\x00"]))
    def test_matches_str_format(self, data, rows, chunk, float_field, float_dtype,
                                int_dtype, literal):
        # every row as str.format prints it, chunk boundaries included
        ints = np.array(data.draw(st.lists(_INT64, min_size=rows, max_size=rows)), dtype=np.int64)
        if int_dtype is not np.int64:
            info = np.iinfo(int_dtype)
            ints = ints.clip(info.min, info.max).astype(int_dtype)
        with np.errstate(over="ignore"):
            floats = np.array(data.draw(st.lists(_FLOAT, min_size=rows, max_size=rows)),
                              dtype=np.float64).astype(float_dtype)
        objects = np.empty(rows, dtype=object)
        objects[:] = data.draw(st.lists(_OBJECT, min_size=rows, max_size=rows))
        words = np.array(data.draw(st.lists(st.text(max_size=3), min_size=rows, max_size=rows)),
                         dtype=np.str_)
        row_format = f"{{}}{literal}{float_field},{{!r}}{literal}{{}}|{float_field}{literal}\n"
        columns = [ints, floats, words, objects, floats]
        buf = io.StringIO()
        with mock.patch.object(core, "_CHUNK", chunk):
            core._write_rows(buf, row_format, columns)
        assert buf.getvalue() == format_rows(row_format, columns)

    @pytest.mark.parametrize("x", [0.0, -0.0, 1e-5, 1e-4, 1e15, 1e16, 5e-324, 0.1, 1 / 3,
                                   123456.789012, -2.5, 1e14 + 0.5, float("nan")])
    @pytest.mark.parametrize("field", ["{}", "{!r}", "{:.17g}"])
    def test_float_edges(self, x, field):
        # alone, and among values of the fast paths
        for column in (np.array([x, -x]), np.array([x, -x, x, 1.0])):
            buf = io.StringIO()
            core._write_rows(buf, field + ";", [column])
            assert buf.getvalue() == format_rows(field + ";", [column])

    def test_int64_extremes(self):
        column = np.array([-2 ** 63, 2 ** 63 - 1, -1, 0, 9, -10], dtype=np.int64)
        buf = io.StringIO()
        core._write_rows(buf, "{}\n", [column])
        assert buf.getvalue() == "".join(f"{v}\n" for v in column.tolist())

    @pytest.mark.parametrize("row_format,columns,message", [
        ("{0},{}\n", 2, "row format fields are unnumbered"),
        ("{},{}\n", 1, "1 columns for 2 fields"),
        ("{}\n", 2, "2 columns for 1 fields"),
    ])
    def test_bad_row_format_rejected(self, row_format, columns, message):
        with pytest.raises(ValueError, match=message):
            core._write_rows(io.StringIO(), row_format, [np.arange(3)] * columns)

    def test_zero_rows_write_nothing(self):
        buf = io.StringIO()
        core._write_rows(buf, "{},{!r}\n", [np.zeros(0, np.int64), np.zeros(0)])
        assert buf.getvalue() == ""

    @settings(max_examples=100, deadline=None)
    @given(names=st.lists(st.one_of(st.just(""), st.sampled_from(["é", "€", "日本", "a,b"]),
                                    st.text(max_size=3)), min_size=1, max_size=5),
           rows=st.one_of(st.integers(0, 12), st.just(core._CHUNK + 1)),
           seed=st.integers(0, 2 ** 32 - 1), field=st.sampled_from(["{}", "{!r}"]),
           dtype=st.sampled_from([np.int8, np.int64]))
    def test_codes_and_names_column(self, names, rows, seed, field, dtype):
        # each row holds its code's name, as str.format prints that name
        codes = np.random.default_rng(seed).integers(0, len(names), rows).astype(dtype)
        other = np.arange(rows)
        buf = io.StringIO()
        core._write_rows(buf, f"{field}|{{}}\n", [(codes, tuple(names)), other])
        assert buf.getvalue() == "".join(
            f"{field.format(names[c])}|{i}\n" for c, i in zip(codes.tolist(), other.tolist()))
