"""Process registry, the firing of one operator, and runs.

The rule tag and effect of every operator kind live in model.KINDS. can_fire()
and consumes() are the one evaluator of the tags: whether an operator fires,
and what it consumes. fire() commits each firing, of those inputs and the
writes of its kind's effect, to the state it is handed, in place. A Run keeps
two lists indexed by operator, hoods (each operator's neighbourhood) and
affects (the operators its firing can affect), and copies its initial state
once. Run.commit checks that the operator it is handed is enabled, fires it on
that copy, keeps its set of enabled operators current, and hands each firing's
one record, its TraceEvent, to its commit hook (by default, its trace). It is
the one firing path of both processors, which differ only in which enabled
operator they pick, and the one checked way to fire a chosen operator.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from collections import namedtuple
from math import prod
from typing import Callable, Mapping, Sequence

from .errors import FlowError, NotEnabled, ProcessError, TypeMismatch, ValidationError
from .model import (
    KINDS,
    NEW,
    OLD,
    Composition,
    ExecutionState,
    TokenState,
    check_sort,
    neighborhood,
    operator_at,
    want_numbers,
)

ProcessFn = Callable[[list, int], list]


class ProcessRegistry:
    """Name -> process function lookup for general operators.

    A process function receives the input values and the number of firings
    the operator has already completed, and returns a list or tuple of one
    value per output.
    """

    def __init__(self, funcs: Mapping[str, ProcessFn] | None = None):
        self._funcs = dict(funcs or {})

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
    return values  # _process hands each firing a list of its own


def _add1(values, count):
    if len(values) != 1 or type(values[0]) is not float:
        want_numbers(values, "add1")  # names a non-number before the count
    (a,) = values
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


def can_fire(comp: Composition, op: int, marking: Sequence[TokenState]) -> bool:
    """Enablement predicate for operator op, an index into comp.operators,
    under a marking.

    marking is indexed by data index, as ExecutionState.marking is. No
    output may hold a New token, and the input markings, read in place,
    must pass the rule KINDS[kind].rule names (see model.Kind). Each test
    returns as soon as its answer is known. An op naming no operator is a
    ValidationError.
    """
    spec = operator_at(comp, op)
    for d in spec.outputs:
        if marking[d] == NEW:
            return False
    rule = KINDS[spec.kind].rule
    if rule == "ready":  # every input holds a token and one is New
        new = not spec.inputs
        for d in spec.inputs:
            m = marking[d]
            if m == NEW:
                new = True
            elif not m:  # Void
                return False
        return new
    # any_new answers True at its first New input and all_new False at its
    # first other one; with no such input, each gives the other answer
    stop = rule == "any_new"
    for d in spec.inputs:
        if (marking[d] == NEW) == stop:
            return stop
    return not stop


def consumes(comp, op, marking):
    """The inputs op, enabled under marking, consumes (see model.Kind); op is not checked."""
    spec = comp.operators[op]
    if KINDS[spec.kind].rule == "any_new":
        for d in spec.inputs:
            if marking[d] == NEW:
                return (d,)
    return spec.inputs


TraceEvent = namedtuple("TraceEvent", "step op_index op_name reads writes")
TraceEvent.__doc__ = """One completed firing: step (int), the state's step it fired at;
op_index (int) and op_name (str), the operator; and reads and writes.

reads/writes (tuples of (str, Value) pairs) pair data names with the values
the operator consumed and produced. They also give the firing's whole
change of marking: each node in reads is now Old, and each node in writes
New.
"""


class Trace(list):
    """The events of one run in firing order, and the marking it started from.

    start holds (data name, marking) for every data node in declaration
    order. Replaying each event over it, its reads made Old and its writes
    New, recovers the full marking after each firing.
    """

    def __init__(self, comp: Composition, initial: ExecutionState):
        self.start = tuple(zip([n.name for n in comp.data], initial.marking))


def fire(
    comp: Composition, op: int, state: ExecutionState, registry: ProcessRegistry
) -> TraceEvent:
    """Commit operator op, an index into comp.operators that the caller has
    found enabled, to state in place; returns the firing's event.

    consumes() names the inputs the firing makes Old, and the kind's effect
    the writes, whose outputs it makes New; the event's reads are the
    consumed inputs, with their values before the firing. The effect and
    the checks of its writes run before anything is written, so an error
    leaves the state untouched; any FlowError they raise is prefixed with
    the operator and the step. Each write must be a value, not
    None, which only a process function can return (a ProcessError naming
    the process and the data node), and of its output's sort. The work is
    bounded by the operator's neighbourhood: fire() neither checks op nor
    copies state. Run.commit checks a chosen operator and fires it on the
    copy its run holds.
    """
    spec, data, values, marking = comp.operators[op], comp.data, state.values, state.marking
    consumed = consumes(comp, op, marking)
    try:
        writes = KINDS[spec.kind].effect(spec, consumed, state, registry)
        for d, v in writes:
            node = data[d]
            if v is None:  # only a process function can return no value
                raise ProcessError(
                    f"process {spec.process_name!r} returned no value for data"
                    f" {node.name!r}"
                )
            check_sort(node, v)
    except FlowError as exc:
        exc.args = (f"operator {spec.name!r} at step {state.step}: {exc}",)
        raise

    reads, wrote = [], []
    for d in consumed:
        reads.append((data[d].name, values[d]))
        marking[d] = OLD
    for d, v in writes:
        wrote.append((data[d].name, v))
        values[d] = v
        marking[d] = NEW
    event = tuple.__new__(  # TraceEvent(...) without the frame of its __new__
        TraceEvent, (state.step, op, spec.name, tuple(reads), tuple(wrote))
    )
    state.exec_counts[op] += 1
    state.step += 1
    state.scan_start = (op + 1) % len(comp.operators)
    return event


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


def discard(event) -> None:
    """A commit hook that keeps nothing."""


def enabled_set(comp: Composition, state: ExecutionState) -> list[int]:
    """Indices of every enabled operator, in declaration order."""
    return [i for i in range(len(comp.operators)) if can_fire(comp, i, state.marking)]


class Run:
    """One run: the state it owns, its enabled operators and its trace.

    The initial state is copied once, here; commit() is then the only way
    the run changes. The processors differ only in which operator they
    commit next. Each firing's event goes to on_commit, which by default
    appends it to the trace; a run given a hook keeps no event itself, and
    its trace is an empty list, without the start marking a Trace holds.
    It fires until its state's step reaches stop_step, max_steps past start_step.
    Both processors return their run, and a FlowError from a firing carries
    it as its result: final_state is its state, converged says that no
    operator is enabled, and steps_taken counts the firings.

    order lists the enabled operators in declaration order, and enabled
    holds the same operators as a set; both start from one enabled_set scan
    and commit() keeps them current. hoods[i] is the neighbourhood of
    operator i, and affects[i] the indices, in declaration order, of the
    operators sharing a data node with it (itself included): the only ones
    whose enablement its firing can change.
    """

    def __init__(self, comp, initial, registry, limits, on_commit=None):
        self.comp = comp
        self.registry = registry
        self.start_step = initial.step
        self.stop_step = initial.step + limits.max_steps
        self.state = self.final_state = initial.copy()
        self.trace = Trace(comp, initial) if on_commit is None else []
        self.on_commit = self.trace.append if on_commit is None else on_commit
        self.hoods = hoods = [neighborhood(comp, i) for i in range(len(comp.operators))]
        touching = {}  # data index -> the operators touching it
        for i, hood in enumerate(hoods):
            for d in hood:
                touching.setdefault(d, []).append(i)
        self.affects = [
            sorted({j for d in hood for j in touching[d]}) for hood in hoods
        ]
        self.order = enabled_set(comp, self.state)
        self.enabled = set(self.order)

    def commit(self, idx: int) -> TraceEvent:
        """Fire operator idx on the run's state, in place; returns its event.

        The checked way to fire a chosen operator, as Run(comp, state,
        registry, RunLimits()).commit(op), which leaves state as it was: an
        idx that is no operator's index raises ValidationError, and one of
        an operator not enabled NotEnabled. A FlowError from the firing
        leaves the state as it was before it and carries the run itself as
        its result, not converged, since the failing operator stays enabled.
        Only the operators the firing can affect are re-tested, and not the
        fired one: every firing writes an output, and the New token it
        leaves there disables it.
        """
        comp, enabled, order = self.comp, self.enabled, self.order
        # the type first: True and 2.0 hash as 1 and 2, and [0] has no hash
        if type(idx) is not int or idx not in enabled:
            raise NotEnabled(f"operator {operator_at(comp, idx).name!r} is not enabled")
        try:
            event = fire(comp, idx, self.state, self.registry)
        except FlowError as exc:
            exc.result = self
            raise
        marking = self.state.marking
        for j in self.affects[idx]:
            if j != idx and can_fire(comp, j, marking):
                if j not in enabled:
                    enabled.add(j)
                    insort(order, j)
            elif j in enabled:
                enabled.remove(j)
                del order[bisect_left(order, j)]
        self.on_commit(event)
        return event

    @property
    def converged(self) -> bool:
        """Whether no operator is enabled."""
        return not self.order

    @property
    def steps_taken(self) -> int:
        """The firings committed, which trace holds unless a hook took them."""
        return self.state.step - self.start_step
