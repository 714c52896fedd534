"""Sequential processor: fire one operator at a time until nothing is enabled.

Selection is a rotating scan. The scheduler walks the operators in
declaration order starting just past the previously fired one, wrapping
around, and fires the first enabled operator it meets. The scan position
lives in ExecutionState.scan_start, so runs are a pure function of the
initial state. On a fresh state the scan starts at declaration index 0,
which makes simultaneously enabled operators resolve to the lowest index.

The firing itself is semantics.Run.commit, shared with the concurrent
processor: the run owns a copy of the initial state and keeps its enabled
operators in an EnabledIndex. select_next takes the first enabled index at
or after the scan position by bisection, wrapping to the lowest: the same
choice as the rotating scan, without visiting every operator.
"""
from __future__ import annotations

from bisect import bisect_left

from .model import Composition, ExecutionState
from .semantics import (  # enabled_set, fire: re-exported for callers of this module
    EnabledIndex,
    ProcessRegistry,
    Run,
    RunLimits,
    RunResult,
    TraceEvent,
    enabled_set,
    fire,
)


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

    initial is never mutated. Hitting the limit is not an error: the result
    carries the partial trace, with converged=False while an operator is
    still enabled. A FlowError from a firing carries the run up to the
    failure as its result.
    """
    run = Run(comp, initial, registry, limits)
    while (choice := select_next(run.state, run.index)) is not None:
        if run.commit(choice):
            break
    return RunResult(run.state, run.trace, converged=not run.index.order)
