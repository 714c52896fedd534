"""Concurrent processor: discrete-event simulation over virtual time.

Operators may overlap only when the sets of data they touch are disjoint, so
every run observes the same per-node value sequences as a sequential one.
An operator reads its inputs when it starts and commits its writes atomically
when it ends; since nobody may touch its neighborhood in between, committing
against the current state is equivalent to using the start-time snapshot
(checked below). Start decisions are greedy: at time zero and after every
completion, keep starting the enabled operator that has waited longest
(ties to the lowest declaration index) until nothing else fits.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .dsl import format_number, format_value
from .errors import FlowError, ValidationError
from .model import Composition, ExecutionState, Value, neighborhood
from .semantics import ProcessRegistry, TraceEvent, can_fire, fire
from .sequential import RunLimits, RunResult, enabled_set


@dataclass(frozen=True)
class ScheduleEntry:
    """One executed interval: [start, end) in virtual time."""

    start: float
    end: float
    op_index: int
    op_name: str
    event: TraceEvent


def startable_set(
    comp: Composition,
    state: ExecutionState,
    running: Iterable[int] = (),
    waiting: Mapping[int, float] | None = None,
) -> list[int]:
    """Enabled operators that may start next to the running ones.

    Running operators and anything sharing a data node with them are
    excluded. Ordered by (waiting key, declaration index), or by declaration
    index alone without a waiting map.
    """
    running = list(running)
    busy: set[int] = set()
    for idx in running:
        busy |= neighborhood(comp, idx)
    out = [
        op.index
        for op in comp.operators
        if op.index not in running
        and can_fire(comp, op, state.marking)
        and not (neighborhood(comp, op) & busy)
    ]
    if waiting is not None:
        out.sort(key=lambda i: (waiting.get(i, 0), i))
    return out


def simulate_concurrent(
    comp: Composition,
    initial: ExecutionState,
    registry: ProcessRegistry,
    durations: Mapping[int, float] | None = None,
    limits: RunLimits = RunLimits(),
) -> tuple[RunResult, list[ScheduleEntry]]:
    """Simulate with per-operator durations (default 1 time unit each).

    Returns the run result (trace ordered by commit) and the schedule.
    Simultaneous completions commit in declaration order, and all completions
    due at an instant commit before anything new starts.
    """
    durs = {op.index: 1.0 for op in comp.operators}
    for idx, d in (durations or {}).items():
        d = float(d)
        if d <= 0:
            raise ValidationError(
                f"duration for {comp.operators[idx].name!r} must be positive"
            )
        durs[idx] = d

    state = initial.copy()
    clock = 0.0
    # op index -> (start time, end time, input snapshot)
    running: dict[int, tuple[float, float, tuple[Value, ...]]] = {}
    waited: dict[int, float] = {
        idx: 0.0 for idx in enabled_set(comp, state)
    }
    trace: list[TraceEvent] = []
    schedule: list[ScheduleEntry] = []
    truncated = False

    def start_pass() -> None:
        while True:
            candidates = startable_set(comp, state, running, waited)
            if not candidates:
                return
            idx = candidates[0]
            snapshot = tuple(state.values[d] for d in comp.operators[idx].inputs)
            running[idx] = (clock, clock + durs[idx], snapshot)

    start_pass()
    while running and not truncated:
        clock = min(end for (_, end, _) in running.values())
        due = sorted(idx for idx, (_, end, _) in running.items() if end == clock)
        for idx in due:
            started, _, snapshot = running.pop(idx)
            live = tuple(state.values[d] for d in comp.operators[idx].inputs)
            if live != snapshot:
                raise FlowError(
                    f"exclusion rule violated: inputs of {comp.operators[idx].name!r}"
                    f" moved mid-flight at time {clock}"
                )
            state, event = fire(comp, idx, state, registry)
            trace.append(event)
            schedule.append(
                ScheduleEntry(started, clock, idx, comp.operators[idx].name, event)
            )
            if len(trace) >= limits.max_steps:
                truncated = True
                break
        enabled_now = set(enabled_set(comp, state))
        for idx in list(waited):
            if idx not in enabled_now:
                del waited[idx]
        for idx in enabled_now:
            waited.setdefault(idx, clock)
        if not truncated:
            start_pass()

    converged = not truncated and not running and not enabled_set(comp, state)
    return RunResult(state, trace, converged=converged), schedule


def schedule_tsv(schedule: Iterable[ScheduleEntry]) -> str:
    """Render a schedule as start/end/operator/writes TSV lines."""
    lines = []
    for entry in schedule:
        writes = ",".join(f"{n}={format_value(v)}" for n, v in entry.event.writes)
        lines.append(
            f"{format_number(entry.start)}\t{format_number(entry.end)}"
            f"\t{entry.op_name}\t{{{writes}}}"
        )
    return "\n".join(lines) + ("\n" if lines else "")
