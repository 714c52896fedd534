"""Process registry, the firing of one operator, and runs.

The rule and effect of every operator kind live in model.KINDS. fire()
checks the rule and commits the firing to a copy, so its input never
changes. A Run copies its initial state once and commits every firing to
that copy in place, through fire(owned=True), keeping its EnabledIndex,
trace and step count current: Run.commit is the one firing path of both
processors, which differ only in which enabled operator they pick.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Mapping, NamedTuple

from .errors import FlowError, NotEnabled, TypeMismatch, ValidationError
from .model import (
    KINDS,
    NEW,
    OLD,
    Composition,
    ExecutionState,
    OperatorSpec,
    TokenState,
    Value,
    check_sort,
    coerce_value,
    neighborhood,
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
            raise ValidationError(f"no process registered under {name!r}") from None

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
    for d in spec.outputs:
        if marking[d] == NEW:
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
    *,
    owned: bool = False,
) -> tuple[ExecutionState, TraceEvent]:
    """Fire one enabled operator. Returns the state it fired on and the event.

    Consumed inputs become Old and written outputs New; the event's reads
    are the consumed inputs, with their values before the firing. The
    effect and the sort checks run before anything is written, so an error
    leaves the state untouched; any FlowError they raise is prefixed with
    the operator and the step.

    By default fire checks enablement and commits to a copy: the input
    state is never mutated. A Run passes owned=True for the state it owns,
    once its EnabledIndex holds the operator as enabled: the firing is then
    committed to that state in place, in work bounded by the operator's
    neighbourhood, with no second check and no copy.
    """
    spec = comp.operators[op] if isinstance(op, int) else op
    if not owned:
        if not can_fire(comp, spec, state.marking):
            raise NotEnabled(f"operator {spec.name!r} is not enabled")
        state = state.copy()
    data = comp.data
    try:
        consumed, writes = KINDS[spec.kind].effect(spec, state, registry)
        for d, v in writes:
            check_sort(data[d], v)
    except FlowError as exc:
        exc.args = (f"operator {spec.name!r} at step {state.step}: {exc}",)
        raise

    values, marking = state.values, state.marking
    event = TraceEvent(
        state.step,
        spec.index,
        spec.name,
        tuple([(data[d].name, values[d]) for d in consumed]),
        tuple([(data[d].name, v) for d, v in writes]),
        tuple([(d, OLD) for d in consumed] + [(d, NEW) for d, _ in writes]),
    )
    for d in consumed:
        marking[d] = OLD
    for d, v in writes:
        values[d] = v
        marking[d] = NEW
    state.exec_counts[spec.index] += 1
    state.step += 1
    state.scan_start = (spec.index + 1) % len(comp.operators)
    return state, event


# ------------------------------------------------------------------ runs


class RunLimits:
    """Safety valve for non-terminating compositions."""

    __slots__ = ("max_steps",)

    def __init__(self, max_steps: int = 100_000):
        if max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        self.max_steps = max_steps


class RunResult:
    __slots__ = ("final_state", "trace", "converged")

    def __init__(self, final_state, trace, converged=True):
        self.final_state: ExecutionState = final_state
        self.trace: Trace = trace
        self.converged = converged

    @property
    def steps_taken(self) -> int:
        return len(self.trace)


def enabled_set(comp: Composition, state: ExecutionState) -> list[int]:
    """Indices of every enabled operator, in declaration order."""
    return [
        op.index for op in comp.operators if can_fire(comp, op, state.marking)
    ]


class EnabledIndex:
    """The enabled operators of one run, kept current firing by firing.

    order lists them in declaration order; it starts from a full
    enabled_set scan. hoods[i] is the neighbourhood of operator i, and
    affects[i] lists the operators sharing a data node with it (itself
    included): the only ones whose enablement firing i can change.
    """

    def __init__(self, comp: Composition, state: ExecutionState):
        hoods = [neighborhood(comp, op) for op in comp.operators]
        touching: dict[int, list[int]] = {}
        for i, hood in enumerate(hoods):
            for d in hood:
                touching.setdefault(d, []).append(i)
        self.comp = comp
        self.hoods = hoods
        self.affects = [
            sorted({j for d in hood for j in touching[d]}) for hood in hoods
        ]
        self.order = enabled_set(comp, state)
        self._on = set(self.order)

    def __contains__(self, idx: int) -> bool:
        return idx in self._on

    def update(self, fired: int, marking: Mapping[int, TokenState]) -> None:
        """Re-test the operators that firing `fired` can affect."""
        ops = self.comp.operators
        for j in self.affects[fired]:
            if can_fire(self.comp, ops[j], marking):
                if j not in self._on:
                    self._on.add(j)
                    insort(self.order, j)
            elif j in self._on:
                self._on.remove(j)
                del self.order[bisect_left(self.order, j)]


class Run:
    """One run: the state it owns, its EnabledIndex and its trace.

    The initial state is copied once, here; commit() is then the only way
    the run changes. The processors differ only in which operator they
    commit next.
    """

    def __init__(self, comp, initial, registry, limits):
        self.comp = comp
        self.registry = registry
        self.max_steps = limits.max_steps
        self.state = initial.copy()
        self.index = EnabledIndex(comp, self.state)
        self.trace = Trace(comp, initial)

    def commit(self, idx: int) -> bool:
        """Fire enabled operator idx in place; True once the step limit is hit.

        A FlowError from the firing leaves the state as it was before it and
        carries the run so far as its result, with converged=False.
        """
        spec = self.comp.operators[idx]
        if idx not in self.index:
            raise NotEnabled(f"operator {spec.name!r} is not enabled")
        try:
            _, event = fire(self.comp, spec, self.state, self.registry, owned=True)
        except FlowError as exc:
            exc.result = RunResult(self.state, self.trace, converged=False)
            raise
        self.index.update(idx, self.state.marking)
        self.trace.append(event)
        return len(self.trace) >= self.max_steps
