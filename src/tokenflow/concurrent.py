"""Concurrent processor: discrete-event simulation over virtual time.

Operators may overlap only when the sets of data they touch are disjoint.
An operator reads its inputs when it starts and commits its writes atomically
when it ends; since nobody may touch its neighborhood in between, committing
against the current state is equivalent to using the start-time snapshot
(checked below). Start decisions are greedy: at time zero and after every
completion, keep starting the enabled operator that has waited longest
(ties to the lowest declaration index) until nothing else fits.

A run ends in the state a sequential one ends in, with the same value
sequence on each node, when no reachable marking enables two operators
that share a data node: enabled operators then commute and cannot disable
one another, so both processors fire reorderings of the same firings.
Where such a marking is reachable, the start pass and the sequential scan
may choose differently, as in the golden corpus's three diverge-*.flow
documents: two writers of one node, two readers of one node, and a merge
whose inputs arrive at one instant.

A run is a semantics.Run: it owns a copy of the initial state and commits
each completion to it through Run.commit, as the sequential processor does,
so only the selection differs. Completions wait in a heap ordered by (end
time, declaration index). Run.commit keeps run.order, the enabled
operators, current, and each start pass rebuilds the wait times from it:
an operator enabled at the previous pass keeps its time, and any other
takes the clock. A start pass is one sweep, in (wait time, index) order,
over the startable_set of the run (the enabled operators that are not
running), starting each one that shares no data node with a running
operator: none of the operators in its run.affects is running. Each
commit is recorded once, as a ScheduleEntry: its interval in virtual time
and its firing's event, which names the operator.
"""
from __future__ import annotations

import heapq
from collections import namedtuple
from math import inf
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from .dsl import format_pairs, format_value
from .errors import FlowError, ValidationError
from .model import Composition, ExecutionState, check_duration, operator_at
from .semantics import ProcessRegistry, Run, RunLimits, discard


ScheduleEntry = namedtuple("ScheduleEntry", "start end event")
ScheduleEntry.__doc__ = """One executed interval, [start, end) in virtual time (floats),
and its event (a TraceEvent)."""


def startable_set(run, running, waiting):
    """The candidates of a start pass: enabled operators that are not running.

    Ordered by (waiting key, declaration index); waiting must hold a key for
    every enabled operator, and running must support `in`.
    """
    out = [i for i in run.order if i not in running]
    if len(out) > 1:  # a stable sort keeps declaration order among equals
        out.sort(key=waiting.__getitem__)
    return out


def check_durations(comp, durations):
    """Validate an operator index -> duration map, or None; see check_duration."""
    durations = durations or {}
    if not hasattr(durations, "items"):
        raise ValidationError("durations must be a mapping from operator index")
    return {
        idx: check_duration(operator_at(comp, idx).name, d)
        for idx, d in durations.items()
    }


def _refused(run, idx, started, why):
    """The ValidationError of an operator whose end the clock cannot hold,
    carrying the run so far."""
    exc = ValidationError(
        f"operator {run.comp.operators[idx].name!r}, started at time"
        f" {format_value(started)}, {why}")
    exc.result = run
    return exc


def simulate_concurrent(
    comp: Composition,
    initial: ExecutionState,
    registry: ProcessRegistry,
    durations: Mapping[int, float] | None = None,
    limits: RunLimits = RunLimits(),
    on_commit: Callable[[ScheduleEntry], object] | None = None,
) -> tuple[Run, list[ScheduleEntry]]:
    """Simulate with per-operator durations (default 1 time unit each).

    Returns the run (its trace ordered by commit) and the schedule.
    Simultaneous completions commit in declaration order, and all completions
    due at an instant commit before anything new starts. A duration that is not
    a finite positive number, or one keyed by an index with no operator, raises
    ValidationError before the run starts. So, mid-run and with the run so far
    as its result, does an operator whose end the clock cannot hold: one
    starting at a clock so large that its duration vanishes (clock + duration
    == clock), or one ending past the largest float. An operator whose inputs
    moved while it ran, which only a broken exclusion rule allows, raises
    FlowError, also with the run so far as its result. on_commit, when given,
    receives each ScheduleEntry as its firing commits, and the run's trace
    and the returned schedule stay empty.
    """
    durs = {op.index: 1.0 for op in comp.operators} | check_durations(comp, durations)

    schedule = []
    emit = schedule.append if on_commit is None else on_commit
    run = Run(comp, initial, registry, limits, None if on_commit is None else discard)
    values, commit, affects = run.state.values, run.commit, run.affects
    # inputs[i](values): the values of operator i's inputs, to compare at its
    # end; len, which gives the same for any state of one run, if it has none
    inputs = [itemgetter(*op.inputs) if op.inputs else len for op in comp.operators]
    # new(ScheduleEntry, fields) builds an entry without the frame of its __new__
    push, pop, new = heapq.heappush, heapq.heappop, tuple.__new__
    clock = 0.0
    # op index -> (start time, input snapshot)
    running = {}
    completions = []  # heap of (end time, op index)
    waited = {}  # enabled op index -> the time it has been enabled since
    while True:
        waited = {idx: waited.get(idx, clock) for idx in run.order}
        for idx in startable_set(run, running, waited):
            if running.keys().isdisjoint(affects[idx]):
                end = clock + durs[idx]
                if end == clock:  # a duration below the clock's precision
                    raise _refused(run, idx, clock, f"ends at its start: duration"
                                   f" {format_value(durs[idx])} is lost in the clock")
                running[idx] = (clock, inputs[idx](values))
                push(completions, (end, idx))
        if not completions:  # so nothing is running either
            return run, schedule
        clock, idx = completions[0]
        if clock == inf:  # finite durations summed past the largest float
            raise _refused(run, idx, running[idx][0], "ends past the largest float")
        while completions and completions[0][0] == clock:
            idx = pop(completions)[1]
            started, snapshot = running.pop(idx)
            if inputs[idx](values) != snapshot:
                exc = FlowError(
                    f"exclusion rule violated: inputs of {comp.operators[idx].name!r}"
                    f" moved mid-flight at time {format_value(clock)}"
                )
                exc.result = run
                raise exc
            event = commit(idx)
            emit(new(ScheduleEntry, (started, clock, event)))
            if run.state.step >= run.stop_step:
                # An operator in flight is still enabled, since nothing has
                # touched its neighbourhood since it started: run.order holds it.
                return run, schedule


def schedule_row(entry, writes=""):
    """One schedule entry as a start/end/operator/writes TSV line.

    writes, when given, is format_pairs(entry.event.writes), already made.
    """
    return (
        f"{format_value(entry.start)}\t{format_value(entry.end)}"
        f"\t{entry.event.op_name}\t{{{writes or format_pairs(entry.event.writes)}}}\n"
    )


def schedule_tsv(schedule: Iterable[ScheduleEntry]) -> str:
    """Render a schedule as start/end/operator/writes TSV lines."""
    return "".join(map(schedule_row, schedule))
