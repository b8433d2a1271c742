"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InputError",
    "SnapshotError",
    "IRError",
    "ParseError",
    "ValidationError",
    "PAGError",
    "AnalysisError",
    "BudgetExhausted",
    "SchedulingError",
    "RuntimeConfigError",
    "WorkerCrash",
]


class ReproError(Exception):
    """Base class for every error raised by this library."""


class InputError(ReproError):
    """An input file could not be read (missing, unreadable, a
    directory, not valid text).  CLI front-ends map this to exit code 2
    so that CI can distinguish bad invocations from analysis findings."""


class SnapshotError(InputError):
    """A warm-start snapshot could not be used: not a snapshot file,
    written by a newer format version, corrupt (including a malformed
    log entry), or stale (its PAG fingerprint no longer matches the
    program).  A subtype of :class:`InputError` so the CLI's exit-2
    handling covers it."""


class IRError(ReproError):
    """Malformed intermediate-representation construct."""


class ParseError(IRError):
    """Raised by :mod:`repro.ir.parser` on syntactically invalid input.

    Carries the 1-based ``line`` where the problem was found.
    """

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(IRError):
    """A structurally well-formed program violates a semantic rule
    (undefined variable, unknown field, call-site arity mismatch, ...)."""


class PAGError(ReproError):
    """Invalid operation on a pointer assignment graph."""


class AnalysisError(ReproError):
    """Internal inconsistency detected during CFL-reachability analysis."""


class BudgetExhausted(AnalysisError):
    """Internal control-flow signal: the per-query step budget ran out.

    ``remaining_hint`` carries the ``BDG`` value of the paper's
    ``OUTOFBUDGET(BDG)`` — an upper bound on the budget the query had
    left when the condition was detected (0 when detected at a plain
    step, ``s`` when detected via an unfinished ``jmp(s)`` edge).
    """

    def __init__(self, remaining_hint: int = 0) -> None:
        self.remaining_hint = remaining_hint
        super().__init__(f"query budget exhausted (BDG={remaining_hint})")


class SchedulingError(ReproError):
    """Invalid query-scheduling configuration or input."""


class RuntimeConfigError(ReproError):
    """Invalid parallel-runtime configuration (thread count, mode, ...)."""


class WorkerCrash(ReproError):
    """A parallel worker process died, raised, or broke protocol.

    The fault-tolerant executor recovers from these (requeue, respawn,
    quarantine — see :mod:`repro.runtime.mp`), so a normal
    ``run_units`` call no longer raises this; the crash texts land in
    ``BatchResult.errors`` instead.  The class is kept public for
    callers that still catch it.
    """
