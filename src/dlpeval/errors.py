"""Exception types shared across the package."""


class DlpEvalError(Exception):
    """Base class for all errors raised by this package.

    ``line`` is the 1-based line number in the input when the error can be
    pinned to one, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class IngestError(DlpEvalError):
    """Malformed or inconsistent input data; ``line`` is the line of the
    source file at fault, when one is."""


class DegenerateSplitError(DlpEvalError):
    """A requested time-based split leaves one side empty."""


class EmptyCandidateSetError(DlpEvalError):
    """A negative-sampling strategy has no legal candidate for an event."""


class ScoreLogError(DlpEvalError):
    """Invalid score-log content, on read or write; ``line`` is the line of
    a bad record or header line, when one is."""
