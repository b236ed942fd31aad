"""Score-log interchange: the columnar record of per-event scores and its
bit-exact file format.

A score log holds one record per scored edge: the positive of each event and
every negative drawn for it, all sharing the event's timestamp. The file
format is plain CSV prefixed by a ``#``-delimited key=value header block, so
any external model stack can produce it and feed its predictions into the
metrics and plotting pipeline. Scores are printed with 17 significant
digits, which round-trips 64-bit floats exactly.

Both directions work on columns: the writer streams chunks of rows through
the text kernel, and the reader parses the body once into typed columns,
each role as its UTF-8 bytes. A body that numpy refuses, or whose columns
break a rule, is read by one walk of its lines instead, which gives the
same columns or names the line of the first bad record. The body after the
header is read through ``core._Text``: a log file named by its path is
parsed by numpy's C reader straight from the file, in chunks, once the text
is known to decode; a handle, bytes or a pipe is parsed line by line, a
pipe read once into memory so that the walk can read it again. In memory a
record's role is an ``int8`` code into the log's ``names``: the positive
role, then the declared strategies.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import TextIO

import numpy as np

from .core import History, _open_for_read, _open_for_write, _Text, _write_rows
from .errors import ScoreLogError

POSITIVE_ROLE = "positive"
POSITIVE_CODE = 0  # the positive role's code: it is first in every log's names
# the most strategies whose codes, after the positive's, fit in an int8
_MAX_STRATEGIES = np.iinfo(np.int8).max


# one score-log record in memory; the field names, in order, form the column row
_RECORD = np.dtype([
    ("event_ordinal", np.int64), ("batch", np.int64), ("role", np.int8),
    ("source", np.int64), ("destination", np.int64),
    ("timestamp", np.float64), ("score", np.float64),
])
_COLUMNS = ",".join(_RECORD.names)
# how the line walk reads each field of a record; the role, None here, is coded
_PARSERS = (int, int, None, int, int, float, float)


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

    ``role`` holds ``int8`` codes into ``names``: ``POSITIVE_CODE`` (0) for
    true events and ``1 + i`` for negatives of ``strategies[i]``.
    ``strategies`` lists the negative roles in emission order.
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

    @property
    def names(self) -> tuple[str, ...]:
        """The role names, indexed by role code: the positive role first."""
        return (POSITIVE_ROLE,) + self.strategies

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoredEventLog):
            return NotImplemented
        return self.strategies == other.strategies and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _RECORD.names)

    def mask(self, selector: np.ndarray) -> "ScoredEventLog":
        """Log restricted to the records where ``selector`` is True."""
        return replace(self, **{name: getattr(self, name)[selector] for name in _RECORD.names})

    def validate(self) -> None:
        """Check internal invariants; raise ScoreLogError on violation."""
        if len(self) == 0:
            return
        role = self.role
        if role.dtype.kind not in "iu" or role.min() < 0 or role.max() >= len(self.names):
            raise ScoreLogError(f"roles are not codes 0..{len(self.names) - 1} into names")
        ordinal = self.event_ordinal
        # bounded first, so that counting the ordinals cannot run away
        if ordinal.min() != 0 or ordinal.max() >= len(self) \
                or not np.all(np.bincount(ordinal)):
            raise ScoreLogError("event ordinals are not contiguous from 0")
        n_events = int(ordinal.max()) + 1
        pos = role == POSITIVE_CODE
        pos_counts = np.bincount(ordinal[pos], minlength=n_events)
        if not np.all(pos_counts):
            raise ScoreLogError("some event ordinal lacks a positive record")
        if np.any(pos_counts != 1):
            raise ScoreLogError("some event ordinal has multiple positive records")
        # all records of one ordinal share the positive's timestamp
        t_of = np.empty(n_events)
        t_of[self.event_ordinal[pos]] = self.timestamp[pos]
        bad = np.flatnonzero(self.timestamp != t_of[self.event_ordinal])
        if len(bad):
            raise ScoreLogError(f"record {bad[0]}: negative timestamp differs from its positive's")
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


def _check_strategies(strategies: tuple[str, ...]) -> None:
    """Raise ScoreLogError unless ``strategies`` can name role codes: at most
    ``_MAX_STRATEGIES`` names, each Latin-1 text, none ``positive`` and no two
    alike. A fixed-width role field drops trailing NULs, so names that differ
    only by them are alike."""
    if len(strategies) > _MAX_STRATEGIES:
        raise ScoreLogError(f"strategies: {len(strategies)} names, more than {_MAX_STRATEGIES}")
    seen = {POSITIVE_ROLE}
    for name in strategies:
        key = name.rstrip("\0")
        if key == POSITIVE_ROLE:
            raise ScoreLogError(f"strategies: {name!r} is the positive role")
        if key in seen:
            raise ScoreLogError(f"strategies: {name!r} is repeated")
        try:
            name.encode("latin-1")
        except UnicodeEncodeError:
            raise ScoreLogError(f"strategies: {name!r} is not Latin-1 text") from None
        seen.add(key)


def check_positives(log: ScoredEventLog, h: History) -> None:
    """Raise ScoreLogError unless every positive record is a true event of
    ``h``: the same canonical edge at exactly that timestamp."""
    pos = np.flatnonzero(log.role == POSITIVE_CODE)
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
    A header whose strategies cannot name role codes, an invalid log, or one
    with a role the header does not declare, raises before ``dest`` is
    opened."""
    _check_strategies(meta.strategies)
    log.validate()
    counts = np.bincount(log.role, minlength=len(log.names)).tolist()
    undeclared = sorted({name for name, count in zip(log.names, counts) if count}
                        - {POSITIVE_ROLE, *meta.strategies})
    if undeclared:
        raise ScoreLogError(f"log contains strategies absent from header: {undeclared}")
    header = asdict(meta) | {"strategies": ",".join(meta.strategies)}
    columns = [(log.role, log.names) if name == "role" else getattr(log, name)
               for name in _RECORD.names]
    with _open_for_write(dest) as fh:
        fh.write("".join(f"# {key}={value}\n" for key, value in header.items()))
        fh.write(_COLUMNS + "\n")
        _write_rows(fh, "{},{},{},{},{},{!r},{:.17g}\n", columns)


def read_score_log(source: str | Path | TextIO | bytes) -> tuple[ScoredEventLog, ScoreLogMeta]:
    """Parse and validate a score-log file: its header, then its body by
    ``_parse_records``, or by ``_walk_records`` where that parse refuses
    it. A bad header or body line raises a ScoreLogError with its line."""
    header: dict[str, str] = {}
    try:
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
            meta = _meta_from_header(header)
            body = _Text(fh, source, skipped=lineno)
            names = (POSITIVE_ROLE,) + meta.strategies
            columns = _parse_records(body, names) or _walk_records(body, lineno, names)
    except UnicodeDecodeError as exc:  # not where: that depends on how much was decoded at once
        bad = exc.object[exc.start:exc.end]
        raise ScoreLogError(f"not UTF-8 text ({exc.reason}: {bad!r})") from None

    log = ScoredEventLog(**columns, strategies=meta.strategies)
    log.validate()
    return log, meta


def _parse_records(body: _Text, names: tuple[str, ...]) -> dict | None:
    """The records of the log's ``body`` as ``ScoredEventLog`` columns,
    parsed by numpy in one pass, blank lines skipped, each role coded by its
    index in ``names``; None when numpy refuses a record (a number padded
    with non-ASCII whitespace among them), a score is not finite or a role
    is not in ``names``: the line walk then reads the body.

    Roles are parsed as fixed-width UTF-8 bytes one wider than the longest
    name, so that a longer role is cut to a width no name has, and matched
    by their UTF-8 bytes. A log has no quoting, so a CR only ends a line,
    and numpy may read a log file itself."""
    encoded = tuple(name.encode() for name in names)
    role = f"S{max(map(len, encoded)) + 1}"
    dtype = [(name, role if name == "role" else _RECORD[name]) for name in _RECORD.names]
    records = body.loadtxt(dtype=dtype, delimiter=",", comments=None, ndmin=1)
    if records is None:
        return None
    code = np.full(len(records), -1, dtype=np.int8)
    for c, name in enumerate(encoded):
        code[records["role"] == name] = c
    if np.any(code < 0) or not np.all(np.isfinite(records["score"])):
        return None
    return {name: code if name == "role" else np.ascontiguousarray(records[name])
            for name in _RECORD.names}


def _walk_records(body: _Text, column_row: int, names: tuple[str, ...]) -> dict:
    """The records of the log's ``body``, read line by line after the column
    row (line ``column_row``): the reference reader for every body that
    ``_parse_records`` refused. A line's numbers are read by
    ``_fast_record`` where it can, else each by ``_number``, and each role,
    with its trailing NULs dropped as a bytes field drops them, is coded by
    its index in ``names``. The first bad line raises its error with its
    line; after the last line, roles not in ``names`` raise one error that
    names them all."""
    codes = {name.rstrip("\0"): c for c, name in enumerate(names)}
    records, unknown = [], set()
    for lineno, raw in enumerate(body.lines(), start=column_row + 1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        if line.startswith("#"):
            raise ScoreLogError("header line after column row", line=lineno)
        parts = line.split(",")
        if len(parts) != len(_RECORD.names):
            raise ScoreLogError(f"expected 7 fields, got {len(parts)}", line=lineno)
        role = parts[2].rstrip("\0")
        code = codes.get(role, -1)
        if code < 0:
            unknown.add(role)
        try:
            record = _fast_record(line, parts, code) or tuple([
                code if parse is None else _number(part, parse)
                for part, parse in zip(parts, _PARSERS)])
        except ValueError as exc:
            raise ScoreLogError(f"unparseable field ({exc})", line=lineno) from None
        if not math.isfinite(record[-1]):
            raise ScoreLogError(f"non-finite score {parts[-1]!r}", line=lineno)
        records.append(record)
    if unknown:
        # each named by its numpy str_ repr, the message's fixed form
        raise ScoreLogError(f"undeclared roles present: {sorted(map(np.str_, unknown))}")
    records = np.array(records, dtype=_RECORD)
    return {name: np.ascontiguousarray(records[name]) for name in _RECORD.names}


def _fast_record(line: str, parts: list[str], code: int) -> tuple | None:
    """The record of a ``line`` of ASCII text with no ``_``, split into
    ``parts``, its role coded as ``code``, each number parsed by ``int`` or
    ``float`` directly; None for any other line, for an integer field of
    more than 18 characters (which might not fit in int64) and where that
    parse fails: ``_number`` then reads each field. Where this parse
    succeeds, ``_number`` gives the same numbers."""
    if not line.isascii() or "_" in line:
        return None
    o, b, _, s, d, t, x = parts
    if len(o) > 18 or len(b) > 18 or len(s) > 18 or len(d) > 18:
        return None
    try:
        return int(o), int(b), code, int(s), int(d), float(t), float(x)
    except ValueError:
        return None


def _number(text: str, parse: type) -> int | float:
    """``text`` read by ``parse`` (``int`` or ``float``) under the log's
    rule for numbers: stripped of whitespace as ``str.strip`` strips it, as
    numpy strips it too, the number must be ASCII text with no ``_`` and,
    as an integer, fit in int64. Within that rule Python reads what numpy
    reads. ValueError is raised for text that ``parse`` or the rule
    refuses."""
    number = text.strip()
    if not number.isascii() or "_" in number:
        raise ValueError(f"{text!r} is not ASCII text with no '_'")
    try:
        value = parse(number)  # Python's own strip keeps U+001C..U+001F
    except ValueError:
        parse(text)  # raises Python's error for the field as written
        raise
    if parse is int and not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{text!r} does not fit in int64")
    return value


def _meta_from_header(header: dict[str, str]) -> ScoreLogMeta:
    missing = [f.name for f in fields(ScoreLogMeta) if f.name not in header]
    if missing:
        raise ScoreLogError(f"missing header keys: {missing}")
    strategies = tuple(s for s in header["strategies"].split(",") if s)
    _check_strategies(strategies)
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
