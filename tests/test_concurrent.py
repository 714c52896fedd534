"""Concurrent processor: exclusion, greedy starts, sequential equivalence."""
from itertools import combinations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import reference

from tokenflow import (
    FlowError,
    RunLimits,
    ValidationError,
    build_loop_pattern,
    default_registry,
    emit_composition,
    neighborhood,
    parse_composition,
    run_to_convergence,
    schedule_tsv,
    simulate_concurrent,
)
from tokenflow import concurrent
from tokenflow.concurrent import ScheduleEntry, startable_set
from tokenflow.dsl import format_value
from tokenflow.semantics import Run, TraceEvent, consumes
from conftest import (
    FLOWS,
    REPO,
    N,
    O,
    branch_state,
    branch_structure,
    build_ifelse_pattern,
    loop_state,
    marked_states,
    run_of,
    small_compositions,
    state_of,
)


def sim_loop(bound, durations=None, max_steps=100_000):
    pattern = build_loop_pattern("add1")
    state = loop_state(pattern, bound, 0.0)
    result, schedule = simulate_concurrent(
        pattern.composition,
        state,
        default_registry(),
        durations,
        RunLimits(max_steps),
    )
    return pattern, result, schedule


def test_startable_set_orders_by_waiting_time():
    pattern = build_loop_pattern("add1")
    comp = pattern.composition
    state = loop_state(pattern, 10.0, 0.0)
    run = run_of(comp, state)
    assert startable_set(run, (), {0: 0.0, 2: 0.0}) == [0, 2]  # merge then incr
    assert startable_set(run, (), {0: 5.0, 2: 0.0}) == [2, 0]
    assert startable_set(run, [0], {0: 0.0, 2: 0.0}) == [2]


def test_a_start_pass_excludes_overlapping_neighborhoods():
    comp = branch_structure()  # op1 and op2 both read d2
    state = state_of(comp, {"d2": N}, {"d2": 5.0})
    assert neighborhood(comp, 1) & neighborhood(comp, 2) == {2}
    assert startable_set(run_of(comp, state), (), {1: 0.0, 2: 0.0}) == [1, 2]
    # Only op1 starts at time 0; its firing consumes d2, so op2 never fires.
    result, schedule = simulate_concurrent(comp, state, default_registry())
    assert [(e.start, e.end, e.event.op_name) for e in schedule] == [(0.0, 1.0, "op1")]
    assert result.converged


def test_simulated_branch_serializes_on_shared_data():
    pattern = build_ifelse_pattern("add1", "identity")
    comp = pattern.composition
    result, schedule = simulate_concurrent(
        comp, branch_state(pattern, True, 5.0), default_registry()
    )
    assert result.converged
    assert [(e.start, e.end, e.event.op_name) for e in schedule] == [
        (0.0, 1.0, "ifelse"),
        (1.0, 2.0, "p1"),
        (2.0, 3.0, "merge"),
    ]
    assert result.final_state.values[pattern.role_map["result"]] == 6.0
    assert schedule_tsv(schedule) == (
        "0\t1\tifelse\t{d2=5}\n"
        "1\t2\tp1\t{d4=6}\n"
        "2\t3\tmerge\t{d6=6}\n"
    )


def test_simulated_loop_overlaps_disjoint_operators():
    pattern, result, schedule = sim_loop(10.0)
    assert result.converged
    assert len(schedule) == 62
    starts = [(e.event.op_name, e.start) for e in schedule[:2]]
    assert starts == [("merge", 0.0), ("incr", 0.0)]  # disjoint, start together
    makespan = max(e.end for e in schedule)
    assert makespan == 41.0
    assert result.final_state.values[pattern.role_map["result"]] == 9.0


def test_overlapping_intervals_never_share_data():
    pattern, _, schedule = sim_loop(10.0)
    comp = pattern.composition
    for i, a in enumerate(schedule):
        for b in schedule[i + 1 :]:
            if a.start < b.end and b.start < a.end:
                x, y = a.event, b.event
                shared = neighborhood(comp, x.op_index) & neighborhood(comp, y.op_index)
                assert not shared, (x.op_name, y.op_name)


def test_simultaneous_completions_commit_in_declaration_order():
    _, result, schedule = sim_loop(10.0)
    first, second = result.trace[0], result.trace[1]
    assert (first.op_name, second.op_name) == ("merge", "incr")
    assert schedule[0].end == schedule[1].end == 1.0


def test_concurrent_matches_sequential_final_state():
    for bound in (1.0, 2.0, 3.0, 10.0, 12.0):
        pattern, result, _ = sim_loop(bound)
        seq = run_to_convergence(
            pattern.composition,
            loop_state(pattern, bound, 0.0),
            default_registry(),
        )
        assert result.converged and seq.converged
        assert result.final_state.values == seq.final_state.values
        assert result.final_state.marking == seq.final_state.marking
        assert result.final_state.exec_counts == seq.final_state.exec_counts

    for cond in (True, False):
        pattern = build_ifelse_pattern("add1", "identity")
        comp = pattern.composition
        conc, _ = simulate_concurrent(
            comp, branch_state(pattern, cond, 5.0), default_registry()
        )
        seq = run_to_convergence(
            comp, branch_state(pattern, cond, 5.0), default_registry()
        )
        assert conc.final_state.values == seq.final_state.values
        assert conc.final_state.marking == seq.final_state.marking


def _outcomes(comp, op, marking):
    """The markings one firing of op, enabled under marking, may leave,
    whatever the values.

    It consumes what semantics.consumes says; an if/else writes either one
    of its outputs, and any other kind all of them.
    """
    consumed = consumes(comp, op.index, marking)
    writes = [(out,) for out in op.outputs] if op.kind == "ifelse" else [op.outputs]
    for written in writes:
        after = list(marking)
        for d in consumed:
            after[d] = O
        for d in written:
            after[d] = N
        yield tuple(after)


# The most markings one search visits, which keeps it fast; a drawn
# composition of at most 6 data nodes has at most 3**6 = 729.
SEARCH_LIMIT = 1_000


def find_shared_enabling(comp, marking):
    """Search the markings reachable from marking, values left out, for one
    that enables two operators sharing a data node.

    Enablement is reference.py's, and consumption semantics.consumes's, as
    _outcomes takes it. Returns that marking, or None, and the
    number of markings visited. A None after SEARCH_LIMIT of them decides
    nothing.
    """
    hoods = [set(op.inputs) | set(op.outputs) for op in comp.operators]
    seen = {tuple(marking)}
    todo = [tuple(marking)]
    while todo and len(seen) < SEARCH_LIMIT:
        marking = todo.pop()
        enabled = [op for op in comp.operators if reference.can_fire(comp, op, marking)]
        if any(hoods[a.index] & hoods[b.index] for a, b in combinations(enabled, 2)):
            return marking, len(seen)
        for op in enabled:
            for after in _outcomes(comp, op, marking):
                if after not in seen:
                    seen.add(after)
                    todo.append(after)
    return None, len(seen)


def test_the_search_finds_a_shared_enabling_in_each_diverging_document():
    # The golden corpus's documents on which run and simulate end
    # differently each reach such a marking; the two flows reach none, in
    # 7 and 40 markings.
    for path in sorted((REPO / "tests" / "golden" / "docs").glob("diverge-*.flow")):
        comp, state, _ = parse_composition(path.read_text(encoding="utf-8"))
        assert find_shared_enabling(comp, state.marking)[0] is not None, path.name
    for name, count in (("c0_ifelse.flow", 7), ("c1_loop.flow", 40)):
        comp, state, _ = parse_composition((FLOWS / name).read_text(encoding="utf-8"))
        assert find_shared_enabling(comp, state.marking) == (None, count), name


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_composition_without_shared_enablings_ends_as_sequential(data):
    # When no reachable marking enables two operators that share a data
    # node, enabled operators commute, so every converged run of either
    # processor ends in one state, whatever the durations.
    comp = data.draw(small_compositions())
    state = data.draw(marked_states(comp))
    found, visited = find_shared_enabling(comp, state.marking)
    if found is not None or visited >= SEARCH_LIMIT:
        return
    durations = {
        op.index: data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]))
        for op in comp.operators
    }
    registry, limits = default_registry(), RunLimits(200)
    try:
        seq = run_to_convergence(comp, state, registry, limits)
        conc, _ = simulate_concurrent(comp, state, registry, durations, limits)
    except FlowError:
        return
    if seq.converged and conc.converged:
        for field in ("values", "marking", "exec_counts"):
            assert getattr(conc.final_state, field) == getattr(seq.final_state, field)


def test_non_unit_durations_still_converge():
    pattern = build_loop_pattern("add1")
    p1 = pattern.composition.operator_named("p1").index
    incr = pattern.composition.operator_named("incr").index
    _, result, schedule = sim_loop(10.0, durations={p1: 2.5, incr: 0.25})
    assert result.converged
    assert result.final_state.values[pattern.role_map["result"]] == 9.0
    for entry in schedule:
        if entry.event.op_index == p1:
            assert entry.end - entry.start == 2.5


def test_duration_must_be_positive():
    pattern = build_loop_pattern("add1")
    with pytest.raises(ValidationError):
        simulate_concurrent(
            pattern.composition,
            loop_state(pattern, 10.0, 0.0),
            default_registry(),
            durations={0: 0.0},
        )


@pytest.mark.parametrize(
    "durations, named",
    [
        ({0: float("nan")}, "'merge'"),
        ({0: float("inf")}, "'merge'"),
        ({0: 0}, "'merge'"),
        ({5: -1}, "'p1'"),
        ({0: "x"}, "'merge'"),
        ({6: 1.0}, "index 6"),
        ({True: 1.0}, "index True"),
    ],
    ids=["nan", "inf", "zero", "negative", "text", "unknown-index", "bool-index"],
)
def test_bad_durations_are_refused_before_the_run(durations, named):
    pattern = build_loop_pattern("add1")
    comp, state = pattern.composition, loop_state(pattern, 10.0, 0.0)
    with pytest.raises(ValidationError, match=named):
        simulate_concurrent(comp, state, default_registry(), durations, RunLimits(10))
    # documents refuse these values, so emission refuses them too
    with pytest.raises(ValidationError, match=named):
        emit_composition(comp, state, durations)


_CHAIN = (
    "data a\ndata b\ndata c\n"
    "op p1 process:add1 (a) -> (b)\nop p2 process:add1 (b) -> (c)\ninit a = 1\n"
)


def _p2_refused(durations, message):
    """simulate on _CHAIN with the given dur lines refuses p2 with message.

    Its error carries the run so far, p1 committed, with or without a hook;
    returns p1's end.
    """
    comp, state, durs = parse_composition(_CHAIN + durations)
    kept = []
    for hook in (kept.append, None):
        with pytest.raises(ValidationError, match=message) as failed:
            simulate_concurrent(comp, state, default_registry(), durs, on_commit=hook)
        result = failed.value.result
        assert type(result) is Run and result.final_state is result.state
        assert (result.converged, result.steps_taken) == (False, 1)
        assert result.final_state.values == [1.0, 2.0, None]
        assert [e.op_name for e in result.trace] == ([] if hook else ["p1"])
    ((start, end, op),) = [(e.start, e.end, e.event.op_name) for e in kept]
    assert (start, op) == (0.0, "p1")
    return end


def test_a_clock_passing_the_largest_float_is_refused_with_the_run_so_far():
    # Each duration is finite, but their sum is not: the run stops at the
    # instant the clock would reach inf, naming the operator that would end
    # then and its start, and no entry carries inf. A sum below the largest
    # float runs to the end.
    message = r"^operator 'p2', started at time 1e\+308, ends past the largest float$"
    assert _p2_refused("dur p1 = 1e308\ndur p2 = 1e308\n", message) == 1e308
    comp, state, durs = parse_composition(_CHAIN + "dur p1 = 1e308\ndur p2 = 7e307\n")
    result, schedule = simulate_concurrent(comp, state, default_registry(), durs)
    assert result.converged
    assert [entry.end for entry in schedule] == [1e308, 1e308 + 7e307]


def test_a_duration_lost_in_a_large_clock_is_refused_with_the_run_so_far():
    # 1e17 + 1 == 1e17: p2 would end at its start, a zero-length interval
    # that undercounts the makespan. The start pass refuses it, naming the
    # operator, its start and its duration. 16, one step of the float
    # spacing at 1e17, still runs.
    message = (r"^operator 'p2', started at time 1e\+17, ends at its start:"
               r" duration 1 is lost in the clock$")
    assert _p2_refused("dur p1 = 1e17\ndur p2 = 1\n", message) == 1e17
    comp, state, durs = parse_composition(_CHAIN + "dur p1 = 1e17\ndur p2 = 16\n")
    result, schedule = simulate_concurrent(comp, state, default_registry(), durs)
    assert result.converged
    assert [(entry.start, entry.end) for entry in schedule] == [(0, 1e17), (1e17, 1e17 + 16)]


def test_one_start_pass_at_time_zero_and_one_per_completion_instant(monkeypatch):
    # A start pass runs after all the completions of an instant, never
    # between them, and none is skipped: an exact count, so a change that
    # adds or drops a pass fails here.
    passes = []

    def counted(run, running, waiting):
        passes.append(bool(running))
        return startable_set(run, running, waiting)

    monkeypatch.setattr(concurrent, "startable_set", counted)
    comp, state, durations = parse_composition(
        (FLOWS / "c1_loop.flow").read_text(encoding="utf-8")
    )
    varied = {op.index: (0.5, 3.0, 1.0, 2.0)[op.index % 4] for op in comp.operators}
    for durs in (durations, varied):
        passes.clear()
        result, schedule = simulate_concurrent(comp, state, default_registry(), durs)
        assert result.converged
        assert len(passes) == 1 + len({entry.end for entry in schedule})
    assert any(passes)  # the varied durations start next to running operators


def test_simulation_truncates_at_the_step_limit():
    _, result, schedule = sim_loop(10.0, max_steps=7)
    assert not result.converged
    assert result.steps_taken == 7
    assert len(schedule) == 7


def test_exactly_enough_steps_still_converges():
    pattern = build_ifelse_pattern("add1", "identity")
    result, schedule = simulate_concurrent(
        pattern.composition,
        branch_state(pattern, True, 5.0),
        default_registry(),
        None,
        RunLimits(3),
    )
    assert result.converged
    assert result.steps_taken == len(schedule) == 3


def test_simulation_is_deterministic():
    _, first, sched_a = sim_loop(12.0)
    _, second, sched_b = sim_loop(12.0)
    assert schedule_tsv(sched_a) == schedule_tsv(sched_b)
    assert first.final_state.values == second.final_state.values


def test_empty_schedule_renders_empty():
    assert schedule_tsv([]) == ""


def test_schedule_rows_print_equal_clocks_by_their_own_text():
    # Clocks equal in value but distinct as objects, one pair printing
    # differently.
    row = concurrent.schedule_row
    event = TraceEvent(0, 0, "p", (), (("a", 1.0),))
    neg, pos = -0.0, float("0")
    clocks = [(neg, pos), (pos, neg), (0.5, 1.0 + 0.5), (1.5, 1.0 + 0.5)]
    clocks += [(k / 4, k / 4 + 0.25) for k in range(20)]
    for start, end in clocks:
        entry = ScheduleEntry(start, end, event)
        want = f"{format_value(start)}\t{format_value(end)}\tp\t{{a=1}}\n"
        assert row(entry) == want
        assert row(entry, "a=1") == want
    assert row(ScheduleEntry(neg, pos, event)) == "-0\t0\tp\t{a=1}\n"
