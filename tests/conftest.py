"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import csv
import io
import math
import os
import threading

import numpy as np

from dlpeval import (
    GraphKind,
    History,
    IngestError,
    ScoredEventLog,
    TemporalCategory,
    build_candidate_index,
    run_streaming_eval,
    sample_stream,
    write_score_log,
)
from dlpeval.core import _open_for_read
from dlpeval.scorelog import POSITIVE_ROLE

# the score-log columns, in file order, and their dtypes
LOG_COLUMNS = {"event_ordinal": np.int64, "batch": np.int64, "role": np.int8,
               "source": np.int64, "destination": np.int64,
               "timestamp": np.float64, "score": np.float64}


class Pipe(io.StringIO):
    """A text stream that cannot seek, as a pipe."""

    def seekable(self):
        return False


def read_through_fifo(read, path, data: bytes):
    """``read(path)`` of a FIFO at ``path`` that a thread writes ``data`` to."""
    os.mkfifo(path)
    try:
        writer = threading.Thread(target=path.write_bytes, args=(data,))
        writer.start()
        try:
            return read(path)
        finally:
            writer.join()
    finally:
        path.unlink()


def build_history(events, kind=GraphKind(), num_nodes=None, num_sources=None) -> History:
    """History from a list of (source, destination, t) tuples."""
    if not events:
        return History.from_arrays([], [], [], kind, num_nodes=num_nodes or 0,
                                   num_sources=num_sources)
    src, dst, t = zip(*events)
    return History.from_arrays(src, dst, t, kind, num_nodes=num_nodes,
                               num_sources=num_sources)


def random_history(
    rng: np.random.Generator,
    n_events: int = 400,
    n_nodes: int = 30,
    kind: GraphKind = GraphKind(),
    t_max: float = 100.0,
    with_ties: bool = True,
) -> History:
    """Random stream with occasional timestamp ties and no self-loops."""
    if kind.bipartite:
        n_src = max(2, n_nodes // 2)
        src = rng.integers(0, n_src, n_events)
        dst = rng.integers(n_src, n_nodes, n_events)
        num_sources = n_src
    else:
        src = rng.integers(0, n_nodes, n_events)
        dst = rng.integers(0, n_nodes, n_events)
        clash = src == dst
        dst[clash] = (dst[clash] + 1) % n_nodes
        num_sources = None
    t = rng.uniform(0.0, t_max, n_events)
    if with_ties:
        t = np.round(t, 1)
    return History.from_arrays(src, dst, t, kind, num_nodes=n_nodes,
                               num_sources=num_sources)


# The worked partition scenarios: four mutually interacting nodes 0..3 whose
# six (directed, single-orientation) edges recur on both sides of the cutoff,
# plus newcomers that appear only in the test period.
SCENARIO_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
SCENARIO_T_SPLIT = 10.0


def scenario_history(scenario: int) -> History:
    events = [(u, v, float(1 + i)) for i, (u, v) in enumerate(SCENARIO_PAIRS)]
    events += [(u, v, float(10 + i)) for i, (u, v) in enumerate(SCENARIO_PAIRS)]
    if scenario == 1:
        extra = [(4, 0, 20.0)]
    elif scenario == 2:
        extra = [(4, 0, 20.0), (4, 1, 21.0), (4, 2, 22.0), (4, 3, 23.0)]
    elif scenario == 3:
        extra = [(4, 5, 20.0), (5, 4, 21.0)]
    else:
        raise ValueError(scenario)
    return build_history(events + extra)


def events_of(h: History) -> list[tuple[int, int, float]]:
    """The stream as a list of (source, destination, t) tuples."""
    return list(zip(h.src.tolist(), h.dst.tolist(), h.t.tolist()))


def log_from_records(records, strategies) -> ScoredEventLog:
    """Score log from an iterable of
    (event_ordinal, batch, role, source, destination, timestamp, score),
    each role a name coded by its index in ``("positive",) + strategies``."""
    columns = list(zip(*records)) or [()] * len(LOG_COLUMNS)
    names = (POSITIVE_ROLE,) + tuple(strategies)
    columns[2] = [names.index(role) for role in columns[2]]
    return ScoredEventLog(**{name: np.array(column, dtype=dtype) for (name, dtype), column
                             in zip(LOG_COLUMNS.items(), columns)}, strategies=strategies)


def written_log(log, meta) -> str:
    """The text ``write_score_log`` writes for a log."""
    buf = io.StringIO()
    write_score_log(log, meta, buf)
    return buf.getvalue()


def score_log_text(log, meta) -> str:
    """A score log's file text, built record by record."""
    header = "".join(f"# {key}={value}\n" for key, value in (
        ("dataset", meta.dataset), ("t_split", meta.t_split),
        ("batch_size", meta.batch_size), ("strategies", ",".join(meta.strategies)),
        ("k", meta.k), ("seed", meta.seed), ("scorer", meta.scorer)))
    rows = [
        "{},{},{},{},{},{!r},{:.17g}\n".format(*(
            log.names[log.role[i]] if name == "role" else getattr(log, name)[i].item()
            for name in LOG_COLUMNS))
        for i in range(len(log))
    ]
    return header + ",".join(LOG_COLUMNS) + "\n" + "".join(rows)


def format_rows(row_format: str, columns) -> str:
    """The text ``core._write_rows`` writes: ``row_format.format`` of each
    row of the columns' ``tolist()`` values, one value at a time."""
    return "".join(map(row_format.format, *(np.asarray(c).tolist() for c in columns)))


def svg_number(x: float) -> str:
    """An SVG coordinate as ``_svg.fmt`` prints it: two decimals, without
    trailing zeros, a trailing point or a negative zero."""
    s = f"{x:.2f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def category_of(lifetime, t_split: float) -> TemporalCategory:
    """The category of a (birth, death) lifetime against a cutoff: a key
    dies before it, is born at or after it, or straddles it."""
    birth, death = lifetime
    if death < t_split:
        return TemporalCategory.HISTORICAL
    return TemporalCategory.INDUCTIVE if birth >= t_split else TemporalCategory.OVERLAP


def make_log(groups, strategies, batch_of=None, t_of=None):
    """Score log from per-event groups: [(pos_score, {strategy: [scores]})]."""
    records = []
    for ordinal, (pos_score, negs) in enumerate(groups):
        batch = batch_of(ordinal) if batch_of else 0
        t = t_of(ordinal) if t_of else float(ordinal)
        records.append((ordinal, batch, POSITIVE_ROLE, 0, 1, t, pos_score))
        for strategy, scores in negs.items():
            for s in scores:
                records.append((ordinal, batch, strategy, 2, 3, t, s))
    return log_from_records(records, strategies)


def worked_example_log():
    """Four events, two strategies, scores chosen so the per-event ranks are
    pos: 1,3,2,1  NS1: 2,1,3,2  NS2: 3,2,1,3."""
    rank_to_score = {1: 0.9, 2: 0.5, 3: 0.1}
    ranks = [(1, 2, 3), (3, 1, 2), (2, 3, 1), (1, 2, 3)]
    groups = [
        (rank_to_score[rp], {"NS1": [rank_to_score[r1]], "NS2": [rank_to_score[r2]]})
        for rp, r1, r2 in ranks
    ]
    return make_log(groups, ("NS1", "NS2"))


# -- independent oracles ---------------------------------------------------


def pair_counting_auc(pos, neg) -> float:
    """Exhaustive (p, n) pair comparison with half credit for ties."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    greater = np.sum(pos[:, None] > neg[None, :])
    equal = np.sum(pos[:, None] == neg[None, :])
    return float((greater + 0.5 * equal) / (len(pos) * len(neg)))


def brute_force_ranks(scores, groups) -> list[float]:
    """Descending fractional rank of every score within its group, by
    counting: 1 + #greater + (#equal - 1) / 2 over the members of the group."""
    ranks = []
    for s, g in zip(scores, groups):
        peers = [x for x, h in zip(scores, groups) if h == g]
        greater = sum(x > s for x in peers)
        equal = sum(x == s for x in peers)
        ranks.append(1 + greater + (equal - 1) / 2)
    return ranks


def brute_force_ingest(source, schema: str = "minimal", kind: GraphKind = GraphKind()) -> History:
    """``ingest_csv`` row by row: check each ``csv`` row in turn and number
    the stripped labels with a dict as the sorted stream meets them."""
    if schema not in ("minimal", "jodie"):
        raise ValueError(f"unknown schema {schema!r}")
    exact_arity = 3 if schema == "minimal" else None

    u_labels: list[str] = []
    v_labels: list[str] = []
    times: list[float] = []
    with _open_for_read(source) as fh:
        reader = csv.reader(fh)
        try:
            next(reader)  # header
        except StopIteration:
            raise IngestError("empty stream: no header") from None
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) < 3 or (exact_arity is not None and len(row) != exact_arity):
                raise IngestError(
                    f"expected {exact_arity or 'at least 3'} columns, got {len(row)}",
                    line=lineno,
                )
            u, v, raw_t = row[0].strip(), row[1].strip(), row[2].strip()
            if not u or not v:
                raise IngestError("empty node label", line=lineno)
            try:
                t = float(raw_t)
            except ValueError:
                raise IngestError(f"invalid timestamp {raw_t!r}", line=lineno) from None
            if math.isnan(t) or math.isinf(t):
                raise IngestError(f"non-finite timestamp {raw_t!r}", line=lineno)
            if t < 0:
                raise IngestError(f"negative timestamp {raw_t!r}", line=lineno)
            if not kind.bipartite and not kind.allow_self_loops and u == v:
                raise IngestError(f"self-loop on {u!r} (self-loops disabled)", line=lineno)
            u_labels.append(u)
            v_labels.append(v)
            times.append(t)

    if not times:
        raise IngestError("empty stream: no event rows")

    t_arr = np.asarray(times, dtype=np.float64)
    order = np.argsort(t_arr, kind="stable")

    if kind.bipartite:
        src_map: dict[str, int] = {}
        dst_map: dict[str, int] = {}
        src_ids = np.empty(len(order), dtype=np.int64)
        dst_ids = np.empty(len(order), dtype=np.int64)
        for pos, i in enumerate(order):
            src_ids[pos] = src_map.setdefault(u_labels[i], len(src_map))
            dst_ids[pos] = dst_map.setdefault(v_labels[i], len(dst_map))
        num_sources = len(src_map)
        dst_ids += num_sources
        labels = tuple(src_map) + tuple(dst_map)
        num_nodes = len(labels)
    else:
        node_map: dict[str, int] = {}
        src_ids = np.empty(len(order), dtype=np.int64)
        dst_ids = np.empty(len(order), dtype=np.int64)
        for pos, i in enumerate(order):
            src_ids[pos] = node_map.setdefault(u_labels[i], len(node_map))
            dst_ids[pos] = node_map.setdefault(v_labels[i], len(node_map))
        num_sources = None
        labels = tuple(node_map)
        num_nodes = len(labels)

    return History(
        src_ids, dst_ids, t_arr[order], kind, num_nodes, num_sources, labels
    )


def brute_force_lifetimes(h: History, edges: bool = False) -> dict:
    """Per-key min/max timestamp by scanning the raw event list."""
    out: dict = {}
    for u, v, t in events_of(h):
        if edges:
            keys = [tuple(sorted((u, v))) if not h.kind.directed else (u, v)]
        else:
            keys = {u, v}
        for key in keys:
            if key in out:
                lo, hi = out[key]
                out[key] = (min(lo, t), max(hi, t))
            else:
                out[key] = (t, t)
    return out


def lifetime_rows(table) -> dict:
    """A lifetime table's columns as {key: (birth, death)}, edge keys
    unpacked into (a, b) pairs, in the shape of ``brute_force_lifetimes``."""
    keys = table.ids.tolist()
    if table.num_nodes is not None:
        keys = zip(*(c.tolist() for c in History.edge_endpoints(table.ids, table.num_nodes)))
    return dict(zip(keys, zip(table.births.tolist(), table.deaths.tolist())))


def sample_and_score(h: History, t_split: float, scorer, strategies, k_per_strategy=1,
                     batch_size=200, seed=0, on_empty="skip"):
    """Draw the stream's negatives against ``t_split`` and score them, as the
    ``eval`` command does."""
    sampled = sample_stream(build_candidate_index(h, t_split), strategies,
                            k_per_strategy, seed, on_empty)
    return run_streaming_eval(h, scorer, sampled, batch_size)


def prefix_replay_scores(h: History, log, scorer: str, batch_size: int) -> np.ndarray:
    """Score of every log record against the events before the first event
    of the record's batch, by ``brute_force_scores``."""
    events = events_of(h)
    # kept events appear in stream order: find each ordinal's position
    position, i = {}, 0
    for r in np.flatnonzero(log.role == log.names.index("positive")):
        positive = (int(log.source[r]), int(log.destination[r]), float(log.timestamp[r]))
        while events[i] != positive:
            i += 1
        position[int(log.event_ordinal[r])] = i
        i += 1
    before = [position[o] // batch_size * batch_size for o in log.event_ordinal.tolist()]
    return np.asarray(brute_force_scores(h, scorer, log.source.tolist(),
                                         log.destination.tolist(), before))


def brute_force_scores(h: History, scorer: str, u, v, before) -> list[float]:
    """Score of each query (u[r], v[r]) by replaying the raw event list up
    to event before[r]: ``edgebank`` scores 1 iff the query's (canonical)
    edge occurs in that prefix, ``pa`` iff both of its endpoints do."""
    events = events_of(h)

    def canon(a, b):
        return (a, b) if h.kind.directed else (min(a, b), max(a, b))

    scores = []
    for a, b, n in zip(u, v, before):
        prefix = events[:n]
        if scorer == "edgebank":
            seen = canon(a, b) in {canon(s, d) for s, d, _ in prefix}
        else:
            nodes = {s for s, _, _ in prefix} | {d for _, d, _ in prefix}
            seen = a in nodes and b in nodes
        scores.append(float(seen))
    return scores


def legal_negatives(h: History, t_split: float, strategy, i: int) -> set:
    """Every legal negative of event ``i`` under ``strategy``, by brute force
    over the raw event list: the positive with its ``strategy.replaces``
    part swapped for an observed node (or canonical edge) of the strategy's
    category (any category for RND) on the matching side of a bipartite
    stream, which is neither a disallowed self-loop nor the canonical edge
    of a true event at the positive's timestamp."""
    source, destination, t = events_of(h)[i]

    def canon(u, v):
        return (u, v) if h.kind.directed else (min(u, v), max(u, v))

    def category(life):
        birth, death = life
        if death < t_split:
            return "historical"
        return "inductive" if birth >= t_split else "overlap"

    want = None if strategy.category is None else strategy.category.value
    if strategy.replaces == "edge":
        life = brute_force_lifetimes(h, edges=True)
        candidates = [pair for pair in life if category(life[pair]) == want]
    else:
        life = brute_force_lifetimes(h)
        nodes = [n for n in life if want is None or category(life[n]) == want]
        if h.kind.bipartite:
            nodes = [n for n in nodes if (n < h.num_sources) == (strategy.replaces == "source")]
        candidates = [(n, destination) if strategy.replaces == "source" else (source, n)
                      for n in nodes]
    at_t = {canon(a, b) for a, b, s in events_of(h) if s == t}
    return {(u, v) for u, v in candidates
            if (u != v or h.kind.allow_self_loops) and canon(u, v) not in at_t}
