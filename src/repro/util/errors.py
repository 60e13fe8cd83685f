"""Exception hierarchy for the repro library.

Every package raises a subclass of :class:`ReproError` so callers can catch
library failures without catching unrelated Python errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Raised for malformed IR construction or manipulation."""


class VerificationError(IRError):
    """Raised by the IR verifier when a structural invariant is violated."""


class FrontendError(ReproError):
    """Raised for MiniOMP / Cilk source errors (lexing, parsing, lowering)."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column or 0}: {message}"
        super().__init__(message)


class AnalysisError(ReproError):
    """Raised when an analysis is queried with invalid inputs."""


class PlanError(ReproError):
    """Raised for illegal parallelization plans (failed legality checks)."""


class EmulationError(ReproError):
    """Raised by the interpreter for runtime faults (OOB access, div0...)."""


class RegionDispatchError(EmulationError):
    """Raised when region dispatch infrastructure fails beyond recovery.

    Worker death, hangs, and poisoned payloads are retried by the
    supervised processes backend; this error means the retry budget is
    exhausted.  It is *not* a program error — the processes backend
    catches it and re-runs the region on ``threads``, while genuine
    program faults stay plain :class:`EmulationError` and propagate.
    """
