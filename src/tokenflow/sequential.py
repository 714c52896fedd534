"""Sequential processor: fire one operator at a time until nothing is enabled.

Selection is a rotating scan. The scheduler walks the operators in
declaration order starting just past the previously fired one, wrapping
around, and fires the first enabled operator it meets. The scan position
lives in ExecutionState.scan_start, so runs are a pure function of the
initial state. On a fresh state the scan starts at declaration index 0,
which makes simultaneously enabled operators resolve to the lowest index.

The firing itself is semantics.Run.commit, shared with the concurrent
processor: the run owns a copy of the initial state and keeps its enabled
operators in declaration order. select_next takes the first of them at or
after the scan position by bisection, wrapping to the lowest: the same
choice as the rotating scan, without visiting every operator.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Callable

from .model import Composition, ExecutionState
from .semantics import (  # enabled_set, fire: re-exported for callers of this module
    ProcessRegistry,
    Run,
    RunLimits,
    TraceEvent,
    enabled_set,
    fire,
)


def select_next(run):
    """Operator the scheduler will fire next, or None at convergence.

    The first enabled index at or after the scan_start of the run's state,
    else the lowest enabled index.
    """
    enabled = run.order
    if not enabled:
        return None
    # bisect_left gives len(enabled) past the last one, where the scan wraps
    return enabled[bisect_left(enabled, run.state.scan_start) % len(enabled)]


def step(
    comp: Composition, state: ExecutionState, registry: ProcessRegistry
) -> tuple[ExecutionState, TraceEvent] | None:
    """Fire the scheduler's choice once. None when nothing is enabled. Each
    call builds a new Run, which tests every operator before its one firing:
    to step repeatedly, call run_to_convergence with RunLimits(n) and on_commit."""
    run = run_to_convergence(comp, state, registry, RunLimits(1))
    return (run.state, run.trace[0]) if run.trace else None


def run_to_convergence(
    comp: Composition,
    initial: ExecutionState,
    registry: ProcessRegistry,
    limits: RunLimits = RunLimits(),
    on_commit: Callable[[TraceEvent], object] | None = None,
) -> Run:
    """Run until no operator is enabled or the step limit is hit; returns the run.

    initial is never mutated. Hitting the limit is not an error: the run
    carries the partial trace, with converged=False while an operator is
    still enabled. A FlowError from a firing carries the run up to the
    failure as its result. on_commit, when given, receives each firing's
    event as it commits, and the run's trace stays empty.
    """
    run = Run(comp, initial, registry, limits, on_commit)
    while run.state.step < run.stop_step and (choice := select_next(run)) is not None:
        run.commit(choice)
    return run
