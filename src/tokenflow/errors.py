"""Exception types raised by the engine."""


class FlowError(Exception):
    """Base class for every error this package raises on purpose."""


class DuplicateName(FlowError):
    pass


class UnknownDataReference(FlowError):
    pass


class ArityMismatch(FlowError):
    pass


class InputOutputOverlap(FlowError):
    pass


class ValidationError(FlowError):
    """Structural problem not covered by a more specific class."""


class ValueMissingForToken(FlowError):
    pass


class TypeMismatch(FlowError):
    pass


class UnknownProcess(FlowError):
    pass


class OutputArityMismatch(FlowError):
    pass


class NotEnabled(FlowError):
    pass


class UnknownKind(ValidationError):
    pass


class ProcessError(FlowError):
    """A process function raised something other than a FlowError.

    Names the operator and the step; the original exception is chained.
    Raised inside a run, result is the RunResult up to the failure: its
    trace, the state before the failing firing, and converged=False.
    """

    result = None


class ParseError(FlowError):
    """Malformed document line. Carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
