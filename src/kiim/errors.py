"""Exception types shared across the package.

Plain ``ValueError`` is used for bad arguments (wrong sizes, degenerate
inputs); the classes below cover the remaining failure modes that callers
need to tell apart, in particular the CLI exit-code mapping.
"""

from __future__ import annotations


class ConfigurationError(Exception):
    """Invalid or incomplete configuration (unknown key, unresolved bandwidth)."""


class NumericalError(Exception):
    """A linear-algebra step failed (singular solve, eigensolver breakdown).

    ``condition_estimate`` carries LAPACK's 1-norm condition estimate of the
    offending matrix (1 / rcond, ``inf`` at rcond 0) when one is available.
    """

    def __init__(self, message: str, condition_estimate: float | None = None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class IngestionError(Exception):
    """A data file could not be parsed; names the file and line."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + loc)
        self.path = path
        self.line = line


class TangencyError(Exception):
    """The equal-norm construction collapsed: line tangent to the ellipse."""


#: Failures one trial or pair evaluation may raise; the harnesses record
#: them against that trial instead of aborting the run.
TRIAL_ERRORS = (ValueError, ConfigurationError, NumericalError, FloatingPointError)


def attempt(task) -> tuple:
    """``(fn(*args), None)`` for a task ``(fn, *args)``, or ``(None, message)``
    when ``fn`` raises one of ``TRIAL_ERRORS``."""
    fn, *args = task
    try:
        return fn(*args), None
    except TRIAL_ERRORS as exc:
        return None, str(exc) or repr(exc)
