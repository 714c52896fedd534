"""Sequential scheduler: rotating scan, convergence, step limits."""
import re

import pytest

from tokenflow import (
    RunLimits,
    TokenState,
    ValidationError,
    build_composition,
    build_loop_pattern,
    default_registry,
    initial_state,
    run_to_convergence,
    serialize_trace,
    step,
)
from tokenflow.sequential import enabled_set, select_next
from conftest import (
    N,
    O,
    V,
    loop_oracle,
    loop_state,
    run_branch,
    run_loop,
    run_of,
    state_of,
)


def test_run_limits_validation():
    assert RunLimits().max_steps == 100_000
    for bad in (0, 1.5, True, "3"):
        with pytest.raises(ValidationError, match=f"got {re.escape(repr(bad))}$"):
            RunLimits(max_steps=bad)


def test_enabled_set_on_fresh_loop():
    pattern = build_loop_pattern("add1")
    state = loop_state(pattern, 10.0, 0.0)
    names = [pattern.composition.operators[i].name for i in
             enabled_set(pattern.composition, state)]
    assert names == ["merge", "incr"]


def test_select_next_scans_from_the_cursor():
    comp = build_composition(
        ["a", "b"],
        [("inc_a", "incr", (), ("a",)), ("inc_b", "incr", (), ("b",))],
    )
    run = run_of(comp, initial_state(comp, {}, {}))
    assert select_next(run) == 0
    run.state.scan_start = 1
    assert select_next(run) == 1
    state = initial_state(comp, {1: N}, {1: 1.0})  # inc_b blocked
    state.scan_start = 1  # so the scan wraps around
    assert select_next(run_of(comp, state)) == 0
    state.marking[0] = N
    state.values[0] = 1.0
    assert select_next(run_of(comp, state)) is None


def test_step_returns_none_at_convergence():
    comp = build_composition(["a"], [("inc", "incr", (), ("a",))])
    state = initial_state(comp, {0: N}, {0: 1.0})
    assert step(comp, state, default_registry()) is None


def test_step_advances_one_firing():
    pattern = build_loop_pattern("add1")
    state = loop_state(pattern, 10.0, 0.0)
    after, event = step(pattern.composition, state, default_registry())
    assert event.op_name == "merge"
    assert event.step == 0
    assert after.step == 1
    assert state.step == 0


def test_branch_runs_to_exclusive_sides():
    pattern, result = run_branch(True, 5.0)
    comp = pattern.composition
    assert [e.op_name for e in result.trace] == ["ifelse", "p1", "merge"]
    assert result.converged
    assert result.final_state.values[pattern.role_map["result"]] == 6.0
    assert result.final_state.marking[comp.data_named("d5").index] == V

    pattern, result = run_branch(False, 5.0)
    assert [e.op_name for e in result.trace] == ["ifelse", "p2", "merge"]
    assert result.final_state.values[pattern.role_map["result"]] == 5.0
    assert result.final_state.marking[pattern.composition.data_named("d4").index] == V


def test_loop_canonical_run():
    pattern, result = run_loop(10.0, 0.0)
    assert result.converged
    assert result.steps_taken == 62
    prefix = [e.op_name for e in result.trace[:10]]
    assert prefix == [
        "merge", "incr", "lt", "sync", "incr", "ifelse", "lt", "p1", "merge", "sync",
    ]
    final = result.final_state
    comp = pattern.composition
    assert final.values[pattern.role_map["result"]] == 9.0
    assert final.marking[pattern.role_map["result"]] == N
    assert final.exec_counts[comp.operator_named("p1").index] == 9
    assert final.values[comp.data_named("d1").index] == 12.0
    assert final.values[comp.data_named("d2").index] is False


def test_loop_matches_imperative_oracle():
    reg = default_registry()
    reg.register("double", lambda vals, count: [vals[0] * 2.0])
    for process, fn in (("add1", lambda v: v + 1.0), ("double", lambda v: v * 2.0)):
        for bound in range(1, 8):
            pattern, result = run_loop(float(bound), 3.0, process, reg)
            expected, count = loop_oracle(float(bound), 3.0, fn)
            assert result.converged
            final = result.final_state
            assert final.values[pattern.role_map["result"]] == expected
            p1 = pattern.composition.operator_named("p1").index
            assert final.exec_counts[p1] == count


def test_loop_body_can_transform_text():
    reg = default_registry()
    reg.register("shout", lambda vals, count: [vals[0] + "!"])
    pattern, result = run_loop(4.0, "go", "shout", reg)
    assert result.final_state.values[pattern.role_map["result"]] == "go!!!"


def test_step_limit_truncates_without_error():
    pattern, result = run_loop(10.0, 0.0, max_steps=5)
    assert not result.converged
    assert result.steps_taken == 5
    names = [e.op_name for e in result.trace]
    assert names == ["merge", "incr", "lt", "sync", "incr"]


def test_exactly_enough_steps_still_converges():
    pattern, result = run_branch(True, 5.0)
    assert result.steps_taken == 3
    comp = pattern.composition
    from conftest import branch_state

    result = run_to_convergence(
        comp, branch_state(pattern, True, 5.0), default_registry(), RunLimits(3)
    )
    assert result.converged
    assert result.steps_taken == 3


def test_runs_are_deterministic():
    _, first = run_loop(12.0, 2.0)
    _, second = run_loop(12.0, 2.0)
    assert serialize_trace(first.trace) == serialize_trace(second.trace)
    assert first.final_state.values == second.final_state.values
    assert first.final_state.marking == second.final_state.marking


def test_stalled_marking_converges_immediately():
    from conftest import branch_structure, stalled_marks

    comp = branch_structure()
    marks, values = stalled_marks()
    state = state_of(comp, marks, values)
    assert enabled_set(comp, state) == []
    result = run_to_convergence(comp, state, default_registry())
    assert result.converged
    assert result.trace == []
    assert result.final_state.marking == state.marking
