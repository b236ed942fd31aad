"""A fixed reference job that measures how fast the host runs right now.

    python3 benchmark/calibrate.py

It does the kinds of work dlpeval does, without importing dlpeval: parse
CSV text in Python, count keys in a dict, sort and group integer keys with
numpy, and format rows as text. Its inputs never change, so its wall time
changes only with the host. ``run.py`` runs it as a fresh process next to
every iteration and divides the program's times by its time (see
``run.py``).
"""

import numpy as np

N = 40_000  # rows parsed and formatted in Python
M = 200_000  # keys sorted and grouped with numpy

if __name__ == "__main__":
    rng = np.random.default_rng(20240527)
    src = rng.integers(0, 5_000, M)
    dst = rng.integers(0, 5_000, M)
    t = np.sort(rng.random(M) * 1e6)

    text = "\n".join(f"{a},{b},{c!r}" for a, b, c in zip(
        src[:N].tolist(), dst[:N].tolist(), t[:N].tolist()))
    counts: dict[tuple[int, int], int] = {}
    times = []
    for line in text.split("\n"):
        a, b, c = line.split(",")
        key = (int(a), int(b))
        counts[key] = counts.get(key, 0) + 1
        times.append(float(c))

    key = src * 5_000 + dst
    order = np.lexsort((t, key))
    uniq, first, inverse = np.unique(key[order], return_index=True, return_inverse=True)
    births = t[order][first]
    hits = np.bincount(inverse, minlength=len(uniq))
    rows = [f"{k}|{b!r}|{h}" for k, b, h in zip(
        uniq[:N].tolist(), births[:N].tolist(), hits[:N].tolist())]
    if not (counts and len(times) == len(rows) == N):
        raise SystemExit("calibrate.py: unexpected result")
