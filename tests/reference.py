"""Plain reference interpreters that follow the paper's rules literally.

Both processors here re-test every operator before every decision and keep
whole-state snapshots, with no index of any kind; the engine's processors
must produce exactly what these do. Enablement is decided by this module's
own statement of each kind's firing rule and of an operator's
neighbourhood, which share no code with the engine's, and the rotating
scan moves its own cursor (scan_start) past each choice. Trace lines are
rendered from the full marking of the state after each firing, not from
marking deltas.
"""
from __future__ import annotations

from tokenflow import (
    Composition,
    ExecutionState,
    ProcessRegistry,
    ScheduleEntry,
    TokenState,
    format_value,
)
from tokenflow.semantics import fire

VOID, NEW = TokenState.VOID, TokenState.NEW


def _every_input_held_one_new(ins: list) -> bool:
    """Every input holds a token and at least one of them is New; an
    operator without inputs may always fire."""
    if not ins:
        return True
    return all(m != VOID for m in ins) and any(m == NEW for m in ins)


# Each kind's firing rule over its input markings in port order.
RULES = {
    "process": _every_input_held_one_new,
    "ifelse": _every_input_held_one_new,
    "lt": _every_input_held_one_new,
    "incr": _every_input_held_one_new,
    "merge": lambda ins: any(m == NEW for m in ins),  # some input is New
    "sync": lambda ins: all(m == NEW for m in ins),  # every input is New
}


def can_fire(comp: Composition, op, marking) -> bool:
    """No output holds a New token, and the kind's rule holds."""
    spec = comp.operators[op] if isinstance(op, int) else op
    if any(marking[d] == NEW for d in spec.outputs):
        return False
    return RULES[spec.kind]([marking[d] for d in spec.inputs])


def trace_line(comp: Composition, event, after: ExecutionState) -> str:
    reads = ",".join(f"{n}={format_value(v)}" for n, v in event.reads)
    writes = ",".join(f"{n}={format_value(v)}" for n, v in event.writes)
    marking = ",".join(f"{n.name}:{after.marking[n.index].code}" for n in comp.data)
    return (
        f"step={event.step} op={event.op_name}"
        f" reads={{{reads}}} writes={{{writes}}} marking={marking}\n"
    )


def run(
    comp: Composition, initial: ExecutionState, registry: ProcessRegistry, max_steps: int
) -> tuple[ExecutionState, str, bool]:
    """Rotating scan: (final state, trace text, converged)."""
    state = initial.copy()
    lines = []
    n = len(comp.operators)
    while True:
        choice = None
        for offset in range(n):
            idx = (state.scan_start + offset) % n
            if can_fire(comp, idx, state.marking):
                choice = idx
                break
        if choice is None:
            return state, "".join(lines), True
        if len(lines) >= max_steps:
            return state, "".join(lines), False
        state = state.copy()
        event = fire(comp, choice, state, registry)
        state.scan_start = (choice + 1) % n  # the scan resumes past the choice
        lines.append(trace_line(comp, event, state))


def _enabled(comp: Composition, state: ExecutionState) -> list[int]:
    return [op.index for op in comp.operators if can_fire(comp, op, state.marking)]


def _touches(op) -> set[int]:
    """An operator's neighbourhood: every data index it reads or writes."""
    return set(op.inputs) | set(op.outputs)


def _startable(comp, state, running, waited) -> list[int]:
    busy = set()
    for idx in running:
        busy |= _touches(comp.operators[idx])
    out = [
        op.index
        for op in comp.operators
        if op.index not in running
        and can_fire(comp, op, state.marking)
        and not (_touches(op) & busy)
    ]
    return sorted(out, key=lambda i: (waited.get(i, 0), i))


def simulate(
    comp: Composition,
    initial: ExecutionState,
    registry: ProcessRegistry,
    durations: dict[int, float],
    max_steps: int,
) -> tuple[ExecutionState, str, bool, list[ScheduleEntry]]:
    """Greedy virtual-time schedule: (final state, trace text, converged, schedule).

    After every completion instant the wait map is brought up to date from
    a full enabled scan; each start takes the head of a full startable scan.
    """
    durs = {op.index: float(durations.get(op.index, 1.0)) for op in comp.operators}
    state = initial.copy()
    clock = 0.0
    running: dict[int, tuple[float, float]] = {}
    waited = {idx: 0.0 for idx in _enabled(comp, state)}
    lines, schedule = [], []
    truncated = False

    def start_pass():
        while candidates := _startable(comp, state, running, waited):
            running[candidates[0]] = (clock, clock + durs[candidates[0]])

    start_pass()
    while running and not truncated:
        clock = min(end for _, end in running.values())
        for idx in sorted(i for i, (_, end) in running.items() if end == clock):
            started, _ = running.pop(idx)
            state = state.copy()
            event = fire(comp, idx, state, registry)
            lines.append(trace_line(comp, event, state))
            schedule.append(ScheduleEntry(started, clock, event))
            if len(lines) >= max_steps:
                truncated = True
                break
        enabled = _enabled(comp, state)
        for idx in list(waited):
            if idx not in enabled:
                del waited[idx]
        for idx in enabled:
            waited.setdefault(idx, clock)
        if not truncated:
            start_pass()
    converged = not running and not _enabled(comp, state)
    return state, "".join(lines), converged, schedule
