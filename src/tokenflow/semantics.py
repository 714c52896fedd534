"""Process registry and the atomic firing of one operator.

The rule and effect of every operator kind live in model.KINDS. fire()
checks the rule, applies the effect as one transition, and records it; on
any error the input state is left untouched.
"""
from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from .errors import NotEnabled, TypeMismatch, UnknownProcess
from .model import (
    KINDS,
    Composition,
    ExecutionState,
    OperatorSpec,
    TokenState,
    Value,
    check_sort,
    coerce_value,
    want_numbers,
)

ProcessFn = Callable[[list, int], list]


class ProcessRegistry:
    """Name -> process function lookup for general operators.

    A process function receives the input values and the number of firings
    the operator has already completed, and returns one value per output.
    """

    def __init__(self, funcs: Mapping[str, ProcessFn] | None = None):
        self._funcs: dict[str, ProcessFn] = dict(funcs or {})

    def register(self, name: str, fn: ProcessFn) -> None:
        self._funcs[name] = fn

    def resolve(self, name: str) -> ProcessFn:
        try:
            return self._funcs[name]
        except KeyError:
            raise UnknownProcess(f"no process registered under {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._funcs

    def names(self) -> list[str]:
        return sorted(self._funcs)


def _identity(values, count):
    return list(values)


def _add1(values, count):
    (a,) = want_numbers(values, "add1")
    return [a + 1.0]


def _add(values, count):
    return [sum(want_numbers(values, "add"))]


def _mul(values, count):
    out = 1.0
    for v in want_numbers(values, "mul"):
        out *= v
    return [out]


def _negate(values, count):
    (a,) = values
    if not isinstance(a, bool):
        raise TypeMismatch(f"not needs a boolean operand, got {a!r}")
    return [not a]


def const(value: Value) -> ProcessFn:
    """Process factory: ignore the inputs and emit a fixed value."""
    value = coerce_value(value)

    def fn(values, count):
        return [value]

    return fn


def default_registry() -> ProcessRegistry:
    return ProcessRegistry(
        {
            "identity": _identity,
            "add1": _add1,
            "add": _add,
            "mul": _mul,
            "not": _negate,
        }
    )


def can_fire(
    comp: Composition, op: OperatorSpec | int, marking: Mapping[int, TokenState]
) -> bool:
    """Enablement predicate for one operator under a marking.

    No output may hold a New token, and the kind's rule must accept the
    input markings.
    """
    spec = comp.operators[op] if isinstance(op, int) else op
    if any(marking[d] == TokenState.NEW for d in spec.outputs):
        return False
    return KINDS[spec.kind].rule([marking[d] for d in spec.inputs])


class TraceEvent(NamedTuple):
    """One completed firing.

    reads/writes pair data names with the values the operator consumed and
    produced; marking_delta pairs the data indices whose marking the firing
    set with their new marking: consumed inputs Old, written outputs New.
    """

    step: int
    op_index: int
    op_name: str
    reads: tuple[tuple[str, Value], ...]
    writes: tuple[tuple[str, Value], ...]
    marking_delta: tuple[tuple[int, TokenState], ...]


class Trace(list):
    """The events of one run in firing order, and the marking it started from.

    Events carry only marking deltas; start holds (data name, marking) for
    every data node in declaration order, so replaying the deltas over it
    recovers the full marking after each firing.
    """

    def __init__(self, comp: Composition, initial: ExecutionState):
        super().__init__()
        self.start = tuple((n.name, initial.marking[n.index]) for n in comp.data)


def fire(
    comp: Composition,
    op: OperatorSpec | int,
    state: ExecutionState,
    registry: ProcessRegistry,
) -> tuple[ExecutionState, TraceEvent]:
    """Fire one enabled operator. Returns the successor state and the event.

    Consumed inputs become Old and written outputs New; the event's reads
    are the consumed inputs. The input state is never mutated, so errors
    raised by the effect leave no trace on it.
    """
    spec = comp.operators[op] if isinstance(op, int) else op
    if not can_fire(comp, spec, state.marking):
        raise NotEnabled(f"operator {spec.name!r} is not enabled")

    consumed, writes = KINDS[spec.kind].effect(spec, state, registry)
    for d, v in writes:
        check_sort(comp.data[d], v)

    new = state.copy()
    for d in consumed:
        new.marking[d] = TokenState.OLD
    for d, v in writes:
        new.values[d] = v
        new.marking[d] = TokenState.NEW
    new.exec_counts[spec.index] += 1
    new.step = state.step + 1
    new.scan_start = (spec.index + 1) % len(comp.operators)

    event = TraceEvent(
        step=state.step,
        op_index=spec.index,
        op_name=spec.name,
        reads=tuple((comp.data[d].name, state.values[d]) for d in consumed),
        writes=tuple((comp.data[d].name, v) for d, v in writes),
        marking_delta=tuple((d, TokenState.OLD) for d in consumed)
        + tuple((d, TokenState.NEW) for d, _ in writes),
    )
    return new, event
