"""Score-log interchange: the columnar record of per-event scores and its
bit-exact file format.

A score log holds one record per scored edge: the positive of each event and
every negative drawn for it, all sharing the event's timestamp. The file
format is plain CSV prefixed by a ``#``-delimited key=value header block, so
any external model stack can produce it and feed its predictions into the
metrics and plotting pipeline. Scores are printed with 17 significant
digits, which round-trips 64-bit floats exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TextIO

import numpy as np

from .core import _open_for_read, _open_for_write
from .errors import ScoreLogError

POSITIVE_ROLE = "positive"
_COLUMNS = "event_ordinal,batch,role,source,destination,timestamp,score"


@dataclass
class ScoreLogMeta:
    """Run provenance carried in a score-log header."""

    dataset: str
    t_split: float
    batch_size: int
    strategies: tuple[str, ...]
    k: int
    seed: int
    scorer: str


@dataclass
class ScoredEventLog:
    """Columnar per-record score log.

    ``role`` is ``positive`` for true events and the strategy name for
    negatives. ``strategies`` lists the negative roles in emission order.
    """

    event_ordinal: np.ndarray
    batch: np.ndarray
    role: np.ndarray
    source: np.ndarray
    destination: np.ndarray
    timestamp: np.ndarray
    score: np.ndarray
    strategies: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.score)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoredEventLog):
            return NotImplemented
        return (
            self.strategies == other.strategies
            and len(self) == len(other)
            and np.array_equal(self.event_ordinal, other.event_ordinal)
            and np.array_equal(self.batch, other.batch)
            and np.array_equal(self.role, other.role)
            and np.array_equal(self.source, other.source)
            and np.array_equal(self.destination, other.destination)
            and np.array_equal(self.timestamp, other.timestamp)
            and np.array_equal(self.score, other.score)
        )

    @classmethod
    def from_records(cls, records, strategies: tuple[str, ...]) -> "ScoredEventLog":
        """Build from an iterable of
        (event_ordinal, batch, role, source, destination, timestamp, score)."""
        rows = list(records)
        cols = list(zip(*rows)) if rows else [[]] * 7
        return cls(
            event_ordinal=np.asarray(cols[0], dtype=np.int64),
            batch=np.asarray(cols[1], dtype=np.int64),
            role=np.asarray(cols[2], dtype=np.str_),
            source=np.asarray(cols[3], dtype=np.int64),
            destination=np.asarray(cols[4], dtype=np.int64),
            timestamp=np.asarray(cols[5], dtype=np.float64),
            score=np.asarray(cols[6], dtype=np.float64),
            strategies=strategies,
        )

    def mask(self, selector: np.ndarray) -> "ScoredEventLog":
        """Log restricted to the records where ``selector`` is True."""
        return replace(
            self,
            event_ordinal=self.event_ordinal[selector],
            batch=self.batch[selector],
            role=self.role[selector],
            source=self.source[selector],
            destination=self.destination[selector],
            timestamp=self.timestamp[selector],
            score=self.score[selector],
        )

    def validate(self) -> None:
        """Check internal invariants; raise ScoreLogError on violation."""
        if len(self) == 0:
            return
        roles = set(np.unique(self.role))
        unknown = roles - set(self.strategies) - {POSITIVE_ROLE}
        if unknown:
            raise ScoreLogError(f"undeclared roles present: {sorted(unknown)}")
        ordinals = np.unique(self.event_ordinal)
        if ordinals[0] != 0 or ordinals[-1] != len(ordinals) - 1:
            raise ScoreLogError("event ordinals are not contiguous from 0")
        pos = self.role == POSITIVE_ROLE
        pos_ordinals, pos_counts = np.unique(self.event_ordinal[pos], return_counts=True)
        if len(pos_ordinals) != len(ordinals):
            raise ScoreLogError("some event ordinal lacks a positive record")
        if np.any(pos_counts != 1):
            raise ScoreLogError("some event ordinal has multiple positive records")
        # all records of one ordinal share the positive's timestamp
        t_of = np.empty(len(ordinals))
        t_of[self.event_ordinal[pos]] = self.timestamp[pos]
        if np.any(self.timestamp != t_of[self.event_ordinal]):
            bad = int(np.flatnonzero(self.timestamp != t_of[self.event_ordinal])[0])
            raise ScoreLogError(
                f"record {bad}: negative timestamp differs from its positive's"
            )
        if np.any(np.diff(t_of) < 0):
            raise ScoreLogError("event timestamps are not chronological")
        b_of = np.empty(len(ordinals), dtype=np.int64)
        b_of[self.event_ordinal[pos]] = self.batch[pos]
        if np.any(np.diff(b_of) < 0):
            raise ScoreLogError("batch ordinals decrease over events")
        if np.any(self.batch != b_of[self.event_ordinal]):
            raise ScoreLogError("records of one event disagree on batch ordinal")
        if not np.all(np.isfinite(self.score)):
            raise ScoreLogError("non-finite score present")


def dumps_score_log(log: ScoredEventLog, meta: ScoreLogMeta) -> str:
    """Serialize a log deterministically; reading it back yields an equal log."""
    log.validate()
    present = set(np.unique(log.role)) - {POSITIVE_ROLE}
    undeclared = present - set(meta.strategies)
    if undeclared:
        raise ScoreLogError(
            f"log contains strategies absent from header: {sorted(undeclared)}"
        )
    lines = [
        f"# dataset={meta.dataset}",
        f"# t_split={meta.t_split!r}",
        f"# batch_size={meta.batch_size}",
        f"# strategies={','.join(meta.strategies)}",
        f"# k={meta.k}",
        f"# seed={meta.seed}",
        f"# scorer={meta.scorer}",
        _COLUMNS,
    ]
    for i in range(len(log)):
        lines.append(
            f"{log.event_ordinal[i]},{log.batch[i]},{log.role[i]},"
            f"{log.source[i]},{log.destination[i]},"
            f"{float(log.timestamp[i])!r},{float(log.score[i]):.17g}"
        )
    return "\n".join(lines) + "\n"


def write_score_log(log: ScoredEventLog, meta: ScoreLogMeta, dest: str | Path | TextIO) -> None:
    with _open_for_write(dest) as fh:
        fh.write(dumps_score_log(log, meta))


def read_score_log(source: str | Path | TextIO | bytes) -> tuple[ScoredEventLog, ScoreLogMeta]:
    """Parse and validate a score-log file."""
    header: dict[str, str] = {}
    records = []
    with _open_for_read(source) as fh:
        lineno = 0
        saw_columns = False
        for raw in fh:
            lineno += 1
            line = raw.rstrip("\r\n")
            if not line:
                continue
            if line.startswith("#"):
                if saw_columns:
                    raise ScoreLogError("header line after column row", line=lineno)
                body = line[1:].strip()
                if "=" not in body:
                    raise ScoreLogError(f"malformed header line {line!r}", line=lineno)
                key, value = body.split("=", 1)
                header[key.strip()] = value.strip()
                continue
            if not saw_columns:
                if line != _COLUMNS:
                    raise ScoreLogError(
                        f"expected column row {_COLUMNS!r}, got {line!r}", line=lineno
                    )
                saw_columns = True
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise ScoreLogError(f"expected 7 fields, got {len(parts)}", line=lineno)
            try:
                ordinal = int(parts[0])
                batch = int(parts[1])
                source_id = int(parts[3])
                dest_id = int(parts[4])
                timestamp = float(parts[5])
                score = float(parts[6])
            except ValueError as exc:
                raise ScoreLogError(f"unparseable field ({exc})", line=lineno) from None
            if math.isnan(score) or math.isinf(score):
                raise ScoreLogError(f"non-finite score {parts[6]!r}", line=lineno)
            records.append((ordinal, batch, parts[2], source_id, dest_id, timestamp, score))

    if not saw_columns:
        raise ScoreLogError("missing column row")
    meta = _meta_from_header(header)
    log = ScoredEventLog.from_records(records, meta.strategies)
    log.validate()
    return log, meta


def _meta_from_header(header: dict[str, str]) -> ScoreLogMeta:
    required = ("dataset", "t_split", "batch_size", "strategies", "k", "seed", "scorer")
    missing = [key for key in required if key not in header]
    if missing:
        raise ScoreLogError(f"missing header keys: {missing}")
    strategies = tuple(s for s in header["strategies"].split(",") if s)
    try:
        return ScoreLogMeta(
            dataset=header["dataset"],
            t_split=float(header["t_split"]),
            batch_size=int(header["batch_size"]),
            strategies=strategies,
            k=int(header["k"]),
            seed=int(header["seed"]),
            scorer=header["scorer"],
        )
    except ValueError as exc:
        raise ScoreLogError(f"malformed header value ({exc})") from None
