"""Process registry, the firing of one operator, and runs.

The rule and effect of every operator kind live in model.KINDS. A Plan
holds what firing one operator takes: its spec and effect and the outputs a
write is sort-checked on. fire() makes every firing from a plan. Called on
its own, it checks the rule, copies the state and makes a plan, so its
input never changes. A Run makes one plan per operator, adding the
operator's neighbourhood and the operators its firing can affect,
and copies its initial state once. It commits every firing to that copy in
place by handing fire() the operator's plan, keeps its set of enabled
operators and its step count current, and hands each event to its commit
hook (by default, its trace). Run.commit is the one firing path of both
processors, which differ only in which enabled operator they pick.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from math import prod
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import FlowError, NotEnabled, ProcessError, TypeMismatch, ValidationError
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
    return [prod(want_numbers(values, "mul"), start=1.0)]


def _negate(values, count):
    (a,) = values
    if not isinstance(a, bool):
        raise TypeMismatch(f"not needs a boolean operand, got {a!r}")
    return [not a]


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
    comp: Composition, op: OperatorSpec | int, marking: Sequence[TokenState]
) -> bool:
    """Enablement predicate for one operator under a marking.

    marking is indexed by data index, as ExecutionState.marking is. No
    output may hold a New token, and the kind's rule must accept the input
    markings, which it reads in place.
    """
    spec = comp.operators[op] if isinstance(op, int) else op
    for d in spec.outputs:
        if marking[d] == NEW:
            return False
    return KINDS[spec.kind].rule(marking, spec.inputs)


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
        self.start = tuple(zip([n.name for n in comp.data], initial.marking))


class Plan:
    """What firing one operator takes, worked out once.

    spec is the operator and effect its kind's effect. typed maps each
    output whose declared sort a write is checked against to its data node.
    A Run, which schedules by them, also gives each of its plans hood, the
    operator's neighbourhood, and affects: the indices, in declaration
    order, of the operators sharing a data node with it (itself included),
    the only ones whose enablement its firing can change. fire() reads
    neither.
    """

    __slots__ = ("spec", "effect", "typed", "hood", "affects")

    def __init__(self, comp: Composition, spec: OperatorSpec):
        data = comp.data
        self.spec = spec
        self.effect = KINDS[spec.kind].effect
        self.typed = {d: data[d] for d in spec.outputs if data[d].sort != "any"}


def fire(
    comp: Composition,
    op: OperatorSpec | int,
    state: ExecutionState,
    registry: ProcessRegistry,
    plan: Plan | None = None,
) -> tuple[ExecutionState, TraceEvent]:
    """Fire one enabled operator. Returns the state it fired on and the event.

    Consumed inputs become Old and written outputs New; the event's reads
    are the consumed inputs, with their values before the firing. The
    effect and the checks of its writes run before anything is written, so
    an error leaves the state untouched; any FlowError they raise is
    prefixed with the operator and the step. Each write must be a value,
    not None, which only a process function can return (a ProcessError
    naming the process and the data node), and of its output's sort.

    Called as fire(comp, op, state, registry), it checks that op is enabled
    and commits the firing to a copy: the state passed in never changes. A
    Run, for an operator it holds as enabled, passes with it the state it
    owns and the plan it holds for it. op must then be the plan's operator,
    and fire reads the operator from the plan. The firing is committed to
    that state in place, in work bounded by the operator's neighbourhood,
    with no second check and no copy. The same code below makes every
    firing, in a run or not.
    """
    if plan is None:
        spec = comp.operators[op] if isinstance(op, int) else op
        if not can_fire(comp, spec, state.marking):
            raise NotEnabled(f"operator {spec.name!r} is not enabled")
        state = state.copy()
        plan = Plan(comp, spec)
    spec, typed, data = plan.spec, plan.typed, comp.data
    try:
        consumed, writes = plan.effect(spec, state, registry)
        for d, v in writes:
            if v is None:  # only a process function can return no value
                raise ProcessError(
                    f"process {spec.process_name!r} returned no value for data"
                    f" {data[d].name!r}"
                )
            if d in typed:
                check_sort(typed[d], v)
    except FlowError as exc:
        exc.args = (f"operator {spec.name!r} at step {state.step}: {exc}",)
        raise

    values, marking = state.values, state.marking
    reads, wrote, delta = [], [], []
    for d in consumed:
        reads.append((data[d].name, values[d]))
        delta.append((d, OLD))
        marking[d] = OLD
    for d, v in writes:
        wrote.append((data[d].name, v))
        delta.append((d, NEW))
        values[d] = v
        marking[d] = NEW
    index = spec.index
    event = tuple.__new__(  # TraceEvent(...) without the frame of its __new__
        TraceEvent,
        (state.step, index, spec.name, tuple(reads), tuple(wrote), tuple(delta)),
    )
    state.exec_counts[index] += 1
    state.step += 1
    state.scan_start = (index + 1) % len(comp.operators)
    return state, event


# ------------------------------------------------------------------ runs


class RunLimits:
    """Safety valve for non-terminating compositions."""

    __slots__ = ("max_steps",)

    def __init__(self, max_steps: int = 100_000):
        if type(max_steps) is not int or max_steps < 1:  # bool is no step count
            raise ValidationError(
                f"max_steps must be an int of at least 1, got {max_steps!r}"
            )
        self.max_steps = max_steps


class RunResult:
    """How a run ended. steps_taken counts its firings, which trace holds
    unless the run handed each one to a commit hook instead."""

    __slots__ = ("final_state", "trace", "converged", "steps_taken")

    def __init__(self, final_state, trace, converged, steps_taken):
        self.final_state: ExecutionState = final_state
        self.trace: Trace = trace
        self.converged = converged
        self.steps_taken: int = steps_taken


def discard(event) -> None:
    """A commit hook that keeps nothing."""


def enabled_set(comp: Composition, state: ExecutionState) -> list[int]:
    """Indices of every enabled operator, in declaration order."""
    return [
        op.index for op in comp.operators if can_fire(comp, op, state.marking)
    ]


class Run:
    """One run: the state it owns, its enabled operators and its trace.

    The initial state is copied once, here; commit() is then the only way
    the run changes. The processors differ only in which operator they
    commit next. Each firing's event goes to on_commit, which by default
    appends it to the trace; a run given a hook keeps no event itself.
    steps counts the firings either way.

    order lists the enabled operators in declaration order, and enabled
    holds the same operators as a set; both start from one enabled_set scan
    and commit() keeps them current. plans[i] is the Plan of operator i,
    whose hood and affects are filled in here.
    """

    def __init__(self, comp, initial, registry, limits, on_commit=None):
        self.comp = comp
        self.registry = registry
        self.max_steps = limits.max_steps
        self.state = initial.copy()
        self.trace = Trace(comp, initial)
        self.on_commit = self.trace.append if on_commit is None else on_commit
        self.steps = 0
        self.plans = plans = [Plan(comp, op) for op in comp.operators]
        touching: dict[int, list[int]] = {}
        for i, plan in enumerate(plans):
            plan.hood = neighborhood(comp, plan.spec)
            for d in plan.hood:
                touching.setdefault(d, []).append(i)
        for plan in plans:
            plan.affects = sorted({j for d in plan.hood for j in touching[d]})
        self.order = enabled_set(comp, self.state)
        self.enabled = set(self.order)

    def commit(self, idx: int) -> TraceEvent:
        """Fire enabled operator idx in place; returns its event.

        A FlowError from the firing leaves the state as it was before it and
        carries the run so far as its result, with converged=False. Only the
        operators the firing can affect are re-tested, and not the fired
        one, which its firing disables. A firing that wrote an output left a
        New token on it. One that wrote nothing, which only a hand-built
        process or sync operator with no outputs can do, consumed every
        input, so its rule no longer holds. An operator with neither inputs
        nor outputs affects no operator, itself included, and stays enabled.
        """
        comp, enabled, order = self.comp, self.enabled, self.order
        ops = comp.operators
        if idx not in enabled:
            raise NotEnabled(f"operator {ops[idx].name!r} is not enabled")
        plan = self.plans[idx]
        try:
            _, event = fire(comp, idx, self.state, self.registry, plan)
        except FlowError as exc:
            exc.result = self.result(converged=False)
            raise
        marking = self.state.marking
        for j in plan.affects:
            if j != idx and can_fire(comp, ops[j], marking):
                if j not in enabled:
                    enabled.add(j)
                    insort(order, j)
            elif j in enabled:
                enabled.remove(j)
                del order[bisect_left(order, j)]
        self.steps += 1
        self.on_commit(event)
        return event

    def result(self, converged: bool) -> RunResult:
        return RunResult(self.state, self.trace, converged, self.steps)
