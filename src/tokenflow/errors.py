"""Exception types raised by the engine.

A class is kept only where a caller branches on it or reads data from it.
Every error a firing raises is prefixed "operator 'NAME' at step N: ".
"""


class FlowError(Exception):
    """Base class for every error this package raises on purpose.

    Raised by a firing inside a run, result is the RunResult up to the
    failure: its trace, the state before the failing firing, and
    converged=False. Otherwise result is None.
    """

    result = None


class ParseError(FlowError):
    """Malformed document line. Carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(FlowError):
    """A declaration, state or lookup that breaks a rule of the model.

    Duplicate or unknown names, kinds and processes, wrong arities, an input
    that is also an output, a token with no value.
    """


class TypeMismatch(FlowError):
    """A value of the wrong sort, or one the engine cannot store."""


class ProcessError(FlowError):
    """A process function failed or returned the wrong number of values.

    An exception of any class but FlowError is chained as __cause__.
    """


class NotEnabled(FlowError):
    """fire() was handed an operator whose firing rule does not hold."""
