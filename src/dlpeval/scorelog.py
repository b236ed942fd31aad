"""Score-log interchange: the columnar record of per-event scores and its
bit-exact file format.

A score log holds one record per scored edge: the positive of each event and
every negative drawn for it, all sharing the event's timestamp. The file
format is plain CSV prefixed by a ``#``-delimited key=value header block, so
any external model stack can produce it and feed its predictions into the
metrics and plotting pipeline. Scores are printed with 17 significant
digits, which round-trips 64-bit floats exactly.

Both directions work on columns: the writer streams chunks of rows, each
formatted from column lists with one ``str.format`` map, and the reader
parses the body once into typed columns, walking its lines only to name the
line of an error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import TextIO

import numpy as np

from .core import History, _open_for_read, _open_for_write, _write_rows
from .errors import ScoreLogError

POSITIVE_ROLE = "positive"
# one score-log record; the field names, in order, form the column row
_RECORD = np.dtype([
    ("event_ordinal", np.int64), ("batch", np.int64), ("role", object),
    ("source", np.int64), ("destination", np.int64),
    ("timestamp", np.float64), ("score", np.float64),
])
_COLUMNS = ",".join(_RECORD.names)


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
        return self.strategies == other.strategies and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _RECORD.names)

    @classmethod
    def _from_array(cls, records: np.ndarray, strategies: tuple[str, ...]) -> "ScoredEventLog":
        """Build from a structured array of ``_RECORD``s, one column per field."""
        columns = {name: np.ascontiguousarray(records[name]) for name in _RECORD.names}
        columns["role"] = records["role"].astype(np.str_)
        return cls(**columns, strategies=strategies)

    def mask(self, selector: np.ndarray) -> "ScoredEventLog":
        """Log restricted to the records where ``selector`` is True."""
        return replace(self, **{name: getattr(self, name)[selector] for name in _RECORD.names})

    def validate(self) -> None:
        """Check internal invariants; raise ScoreLogError on violation."""
        if len(self) == 0:
            return
        unknown = _undeclared(self.role, self.strategies)
        if unknown:
            raise ScoreLogError(f"undeclared roles present: {unknown}")
        ordinal = self.event_ordinal
        # bounded first, so that counting the ordinals cannot run away
        if ordinal.min() != 0 or ordinal.max() >= len(self) \
                or not np.all(np.bincount(ordinal)):
            raise ScoreLogError("event ordinals are not contiguous from 0")
        n_events = int(ordinal.max()) + 1
        pos = self.role == POSITIVE_ROLE
        pos_counts = np.bincount(ordinal[pos], minlength=n_events)
        if not np.all(pos_counts):
            raise ScoreLogError("some event ordinal lacks a positive record")
        if np.any(pos_counts != 1):
            raise ScoreLogError("some event ordinal has multiple positive records")
        # all records of one ordinal share the positive's timestamp
        t_of = np.empty(n_events)
        t_of[self.event_ordinal[pos]] = self.timestamp[pos]
        if np.any(self.timestamp != t_of[self.event_ordinal]):
            bad = int(np.flatnonzero(self.timestamp != t_of[self.event_ordinal])[0])
            raise ScoreLogError(
                f"record {bad}: negative timestamp differs from its positive's"
            )
        if np.any(np.diff(t_of) < 0):
            raise ScoreLogError("event timestamps are not chronological")
        b_of = np.empty(n_events, dtype=np.int64)
        b_of[self.event_ordinal[pos]] = self.batch[pos]
        if np.any(np.diff(b_of) < 0):
            raise ScoreLogError("batch ordinals decrease over events")
        if np.any(self.batch != b_of[self.event_ordinal]):
            raise ScoreLogError("records of one event disagree on batch ordinal")
        if not np.all(np.isfinite(self.score)):
            raise ScoreLogError("non-finite score present")


def _undeclared(role: np.ndarray, strategies) -> list:
    """The distinct roles, sorted, that are neither a declared strategy nor
    the positive role."""
    return sorted(set(role[~np.isin(role, [POSITIVE_ROLE, *strategies])]))


def check_positives(log: ScoredEventLog, h: History) -> None:
    """Raise ScoreLogError unless every positive record is a true event of
    ``h``: the same canonical edge at exactly that timestamp."""
    pos = np.flatnonzero(log.role == POSITIVE_ROLE)
    bad = pos[~h.occurs(log.source[pos], log.destination[pos], log.timestamp[pos])]
    if len(bad):
        r = bad[0]
        raise ScoreLogError(
            f"{len(bad)} positive record(s) are not events of the dataset, "
            f"first of event {log.event_ordinal[r]}: ({log.source[r]}, "
            f"{log.destination[r]}) at t={float(log.timestamp[r])!r}"
        )


def write_score_log(log: ScoredEventLog, meta: ScoreLogMeta, dest: str | Path | TextIO) -> None:
    """Write a log deterministically; reading it back yields an equal log.
    An invalid log, or one with a role the header does not declare, raises
    before ``dest`` is opened."""
    log.validate()
    undeclared = _undeclared(log.role, meta.strategies)
    if undeclared:
        raise ScoreLogError(f"log contains strategies absent from header: {undeclared}")
    header = asdict(meta) | {"strategies": ",".join(meta.strategies)}
    with _open_for_write(dest) as fh:
        fh.write("".join(f"# {key}={value}\n" for key, value in header.items()))
        fh.write(_COLUMNS + "\n")
        _write_rows(fh, "{},{},{},{},{},{!r},{:.17g}\n",
                    [getattr(log, name) for name in _RECORD.names])


def read_score_log(source: str | Path | TextIO | bytes) -> tuple[ScoredEventLog, ScoreLogMeta]:
    """Parse and validate a score-log file."""
    header: dict[str, str] = {}
    with _open_for_read(source) as fh:
        lineno = 0
        while True:
            raw = fh.readline()
            if not raw:
                raise ScoreLogError("missing column row")
            lineno += 1
            line = raw.rstrip("\r\n")
            if not line:
                continue
            if not line.startswith("#"):
                break
            entry = line[1:].strip()
            if "=" not in entry:
                raise ScoreLogError(f"malformed header line {line!r}", line=lineno)
            key, value = entry.split("=", 1)
            header[key.strip()] = value.strip()
        if line != _COLUMNS:
            raise ScoreLogError(
                f"expected column row {_COLUMNS!r}, got {line!r}", line=lineno
            )
        records = _parse_records(fh.read(), lineno)

    meta = _meta_from_header(header)
    log = ScoredEventLog._from_array(records, meta.strategies)
    log.validate()
    return log, meta


def _parse_records(body: str, column_row: int) -> np.ndarray:
    """The records after the column row (line ``column_row``) as one typed
    array, blank lines skipped. Only when that parse fails or yields a
    non-finite score are the lines walked, to raise the first bad one's error."""
    if not body.lstrip("\r\n"):
        return np.empty(0, dtype=_RECORD)
    try:
        records = np.loadtxt(body.split("\n"), dtype=_RECORD, delimiter=",",
                             comments=None, ndmin=1)
        if np.all(np.isfinite(records["score"])):
            return records
        error = "non-finite score"
    except ValueError as exc:
        error = exc  # rejected by the columnar parse only, e.g. "1_0"
    for lineno, raw in enumerate(body.split("\n"), start=column_row + 1):
        line = raw.rstrip("\r")
        if not line:
            continue
        if line.startswith("#"):
            raise ScoreLogError("header line after column row", line=lineno)
        parts = line.split(",")
        if len(parts) != len(_RECORD.names):
            raise ScoreLogError(f"expected 7 fields, got {len(parts)}", line=lineno)
        try:
            for i in (0, 1, 3, 4):
                int(parts[i])
            float(parts[5])
            score = float(parts[6])
        except ValueError as exc:
            raise ScoreLogError(f"unparseable field ({exc})", line=lineno) from None
        if math.isnan(score) or math.isinf(score):
            raise ScoreLogError(f"non-finite score {parts[6]!r}", line=lineno)
    raise ScoreLogError(f"unparseable record ({error})")


def _meta_from_header(header: dict[str, str]) -> ScoreLogMeta:
    missing = [f.name for f in fields(ScoreLogMeta) if f.name not in header]
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
