"""Sequential processor: fire one operator at a time until nothing is enabled.

Selection is a rotating scan. The scheduler walks the operators in
declaration order starting just past the previously fired one, wrapping
around, and fires the first enabled operator it meets. The scan position
lives in ExecutionState.scan_start, so runs are a pure function of the
initial state. On a fresh state the scan starts at declaration index 0,
which makes simultaneously enabled operators resolve to the lowest index.

A run keeps its enabled operators in an EnabledIndex, built by one full
scan when the run starts. A firing changes markings only inside its own
neighbourhood, so afterwards only the operators that share a data node
with the fired one are re-tested. select_next then takes the first enabled
index at or after the scan position by bisection, wrapping to the lowest:
the same choice as the rotating scan, without visiting every operator.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from typing import Mapping

from .model import Composition, ExecutionState, TokenState, neighborhood
from .semantics import ProcessRegistry, Trace, TraceEvent, can_fire, fire


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

    def update(self, fired: int, marking: Mapping[int, TokenState]) -> list[int]:
        """Re-test the operators that firing `fired` can affect; return them."""
        ops = self.comp.operators
        for j in self.affects[fired]:
            if can_fire(self.comp, ops[j], marking):
                if j not in self._on:
                    self._on.add(j)
                    insort(self.order, j)
            elif j in self._on:
                self._on.remove(j)
                del self.order[bisect_left(self.order, j)]
        return self.affects[fired]


def select_next(state: ExecutionState, index: EnabledIndex) -> int | None:
    """Operator the scheduler will fire next, or None at convergence.

    The first enabled index at or after state.scan_start, else the lowest
    enabled index, taken from the run's EnabledIndex.
    """
    enabled = index.order
    if not enabled:
        return None
    pos = bisect_left(enabled, state.scan_start)
    return enabled[pos] if pos < len(enabled) else enabled[0]


def step(
    comp: Composition, state: ExecutionState, registry: ProcessRegistry
) -> tuple[ExecutionState, TraceEvent] | None:
    """Fire the scheduler's choice once. None when nothing is enabled."""
    result = run_to_convergence(comp, state, registry, RunLimits(1))
    return (result.final_state, result.trace[0]) if result.trace else None


def run_to_convergence(
    comp: Composition,
    initial: ExecutionState,
    registry: ProcessRegistry,
    limits: RunLimits = RunLimits(),
) -> RunResult:
    """Run until no operator is enabled or the step limit is hit.

    Hitting the limit is not an error: the result carries the partial trace
    with converged=False.
    """
    state = initial
    trace = Trace(comp, initial)
    index = EnabledIndex(comp, state)
    while (choice := select_next(state, index)) is not None:
        if len(trace) >= limits.max_steps:
            return RunResult(state, trace, converged=False)
        state, event = fire(comp, choice, state, registry)
        trace.append(event)
        index.update(choice, state.marking)
    return RunResult(state, trace, converged=True)
