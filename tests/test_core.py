import io

import numpy as np
import pytest

from conftest import build_history, random_history
from dlpeval import GraphKind, History, IngestError, ingest_csv


def _ingest(text, **kw):
    return ingest_csv(io.StringIO(text), **kw)


class TestIngest:
    def test_rows_sorted_by_timestamp(self):
        h = _ingest("source,destination,timestamp\nA,B,3\nA,C,1\nB,C,2\n")
        assert [e.t for e in h] == [1.0, 2.0, 3.0]
        # dense ids follow first appearance in time order: A, C, B
        assert h.labels == ("A", "C", "B")
        assert [(e.source, e.destination) for e in h] == [(0, 1), (2, 1), (0, 2)]

    def test_equal_timestamps_keep_input_order(self):
        h = _ingest("source,destination,timestamp\nA,B,5\nC,D,5\nE,F,5\nG,H,1\n")
        assert [h.label_of(e.source) for e in h] == ["G", "A", "C", "E"]

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

    def test_jodie_schema_ignores_extra_columns(self):
        text = ("user_id,item_id,timestamp,state_label,f0,f1\n"
                "7,9,2.0,0,0.1,0.2\n"
                "8,9,1.0,1,0.3,0.4\n")
        h = _ingest(text, schema="jodie",
                    kind=GraphKind(directed=True, bipartite=True))
        assert len(h) == 2
        assert [e.t for e in h] == [1.0, 2.0]

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
        assert len(h.slice_until(h.t_max + 1)) == len(h)

    def test_matches_brute_force_count(self):
        rng = np.random.default_rng(7)
        h = random_history(rng, n_events=300)
        probes = np.concatenate([h.t, h.t + 0.05, [0.0, h.t_max + 1]])
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
        assert list(h) == list(h2)
        assert h.labels == h2.labels

    def test_random_round_trip(self):
        # arbitrary ids survive as labels; a second round trip is an identity
        rng = np.random.default_rng(11)
        h = random_history(rng, n_events=200, n_nodes=15)
        buf = io.StringIO()
        h.export_csv(buf)
        h2 = _ingest(buf.getvalue())
        assert [(h.label_of(e.source), h.label_of(e.destination), e.t) for e in h] == \
               [(h2.label_of(e.source), h2.label_of(e.destination), e.t) for e in h2]
        buf2 = io.StringIO()
        h2.export_csv(buf2)
        h3 = _ingest(buf2.getvalue())
        assert list(h2) == list(h3)
        assert h2.labels == h3.labels

    def test_label_map_export(self):
        h = _ingest("source,destination,timestamp\nX,Y,1\nZ,X,2\n")
        buf = io.StringIO()
        h.export_label_map(buf)
        assert buf.getvalue() == "id,label\n0,X\n1,Y\n2,Z\n"


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
