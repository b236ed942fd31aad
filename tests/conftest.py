"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import numpy as np

from dlpeval import GraphKind, History, build_candidate_index, run_streaming_eval, sample_stream


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


def make_log(groups, strategies, batch_of=None, t_of=None):
    """Score log from per-event groups: [(pos_score, {strategy: [scores]})]."""
    from dlpeval.scorelog import POSITIVE_ROLE, ScoredEventLog

    records = []
    for ordinal, (pos_score, negs) in enumerate(groups):
        batch = batch_of(ordinal) if batch_of else 0
        t = t_of(ordinal) if t_of else float(ordinal)
        records.append((ordinal, batch, POSITIVE_ROLE, 0, 1, t, pos_score))
        for strategy, scores in negs.items():
            for s in scores:
                records.append((ordinal, batch, strategy, 2, 3, t, s))
    return ScoredEventLog.from_records(records, strategies)


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


def brute_force_lifetimes(h: History, edges: bool = False) -> dict:
    """Per-key min/max timestamp by scanning the raw event list."""
    out: dict = {}
    for e in h:
        if edges:
            keys = [tuple(sorted((e.source, e.destination)))
                    if not h.kind.directed else (e.source, e.destination)]
        else:
            keys = {e.source, e.destination}
        for key in keys:
            if key in out:
                lo, hi = out[key]
                out[key] = (min(lo, e.t), max(hi, e.t))
            else:
                out[key] = (e.t, e.t)
    return out


def sample_and_score(h: History, t_split: float, scorer, strategies, k_per_strategy=1,
                     batch_size=200, seed=0, on_empty="skip"):
    """Draw the stream's negatives against ``t_split`` and score them, as the
    ``eval`` command does."""
    sampled = sample_stream(h, build_candidate_index(h, t_split), strategies,
                            k_per_strategy, seed, on_empty)
    return run_streaming_eval(h, scorer, sampled, batch_size)


def prefix_replay_scores(h: History, log, scorer: str, batch_size: int) -> np.ndarray:
    """Score of every log record by replaying the raw event list up to the
    first event of the record's batch: ``edgebank`` scores 1 iff the
    record's (canonical) edge occurs in that prefix, ``pa`` iff both of its
    endpoints do."""
    events = [h.event(i) for i in range(len(h))]

    def canon(u, v):
        return (u, v) if h.kind.directed else (min(u, v), max(u, v))

    # kept events appear in stream order: find each ordinal's position
    position, i = {}, 0
    for r in np.flatnonzero(log.role == "positive"):
        positive = (int(log.source[r]), int(log.destination[r]), float(log.timestamp[r]))
        while tuple(events[i]) != positive:
            i += 1
        position[int(log.event_ordinal[r])] = i
        i += 1
    scores = []
    for r in range(len(log)):
        prefix = events[:position[int(log.event_ordinal[r])] // batch_size * batch_size]
        u, v = int(log.source[r]), int(log.destination[r])
        if scorer == "edgebank":
            seen = canon(u, v) in {canon(e.source, e.destination) for e in prefix}
        else:
            nodes = {e.source for e in prefix} | {e.destination for e in prefix}
            seen = u in nodes and v in nodes
        scores.append(float(seen))
    return np.asarray(scores)


def legal_negatives(h: History, t_split: float, strategy, i: int) -> set:
    """Every legal negative of event ``i`` under ``strategy``, by brute force
    over the raw event list: the positive with its ``strategy.replaces``
    part swapped for an observed node (or canonical edge) of the strategy's
    category (any category for RND) on the matching side of a bipartite
    stream, which is neither a disallowed self-loop nor the canonical edge
    of a true event at the positive's timestamp."""
    e = h.event(i)

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
        candidates = [(n, e.destination) if strategy.replaces == "source" else (e.source, n)
                      for n in nodes]
    at_t = {canon(x.source, x.destination) for x in h if x.t == e.t}
    return {(u, v) for u, v in candidates
            if (u != v or h.kind.allow_self_loops) and canon(u, v) not in at_t}
