"""Acceptance gate: the externally observable guarantees, one test each.

Every test prints one `criterion N: PASS/FAIL` line on the real stdout so
the verdicts stay visible in captured pytest runs.
"""
import itertools
import subprocess
import sys
from contextlib import contextmanager

from hypothesis import given, settings
import hypothesis.strategies as st

import conftest

from tokenflow import (
    FlowError,
    build_composition,
    build_ifelse_pattern,
    build_loop_pattern,
    can_fire,
    default_registry,
    emit_composition,
    parse_composition,
    run_to_convergence,
    serialize_trace,
    simulate_concurrent,
)
from tokenflow.sequential import enabled_set
from reference import _touches
from conftest import (
    FLOWS,
    N,
    O,
    V,
    branch_state,
    branch_structure,
    loop_oracle,
    loop_state,
    marked_states,
    projections,
    run_branch,
    run_loop,
    run_of,
    small_compositions,
    stalled_marks,
    state_of,
)


@contextmanager
def criterion(number: int, description: str):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        conftest.ACCEPTANCE_VERDICTS.append((number, verdict, description))
        print(f"criterion {number}: {verdict} ({description})", flush=True)


# --------------------------------------------------------------- criterion 1


def test_criterion_1_loop_firing_counts():
    with criterion(1, "counted loop runs its body bound-1 times"):
        pattern, result = run_loop(10.0, 0.0)
        comp = pattern.composition
        assert result.converged
        assert result.final_state.exec_counts[comp.operator_named("p1").index] == 9
        assert result.final_state.values[pattern.role_map["result"]] == 9.0
        assert result.final_state.marking[pattern.role_map["result"]] == N

        reg = default_registry()
        reg.register("double", lambda vals, count: [vals[0] * 2.0])
        cases = (
            ("add1", lambda v: v + 1.0, 0.0),
            ("double", lambda v: v * 2.0, 2.0),
        )
        for process, fn, seed in cases:
            for bound in range(1, 21):
                pattern, result = run_loop(float(bound), seed, process, reg)
                expected, count = loop_oracle(float(bound), seed, fn)
                assert result.converged
                final = result.final_state
                assert final.values[pattern.role_map["result"]] == expected
                p1 = pattern.composition.operator_named("p1").index
                assert final.exec_counts[p1] == count


# --------------------------------------------------------------- criterion 2


def test_criterion_2_canonical_loop_trace():
    with criterion(2, "loop trace matches the published interleaving"):
        _, result = run_loop(10.0, 0.0)
        names = [e.op_name for e in result.trace]
        assert names[:10] == [
            "merge", "incr", "lt", "sync", "incr",
            "ifelse", "lt", "p1", "merge", "sync",
        ]
        assert result.trace[1].writes == (("d1", 1.0),)
        assert result.trace[4].writes == (("d1", 2.0),)
        assert result.trace[2].writes == (("d2", True),)
        assert result.trace[6].writes == (("d2", True),)
        assert len(result.trace) == 62

        golden = (FLOWS / "c1_loop.trace").read_text(encoding="utf-8")
        assert serialize_trace(result.trace) == golden


# --------------------------------------------------------------- criterion 3


def test_criterion_3_branch_exclusivity():
    with criterion(3, "if/else routes exactly one branch"):
        pattern, result = run_branch(True, 5.0)
        comp = pattern.composition
        assert [e.op_name for e in result.trace] == ["ifelse", "p1", "merge"]
        final = result.final_state
        assert final.values[pattern.role_map["result"]] == 6.0
        assert final.exec_counts[comp.operator_named("p1").index] == 1
        assert final.exec_counts[comp.operator_named("p2").index] == 0
        assert final.marking[comp.data_named("d3").index] == V
        assert final.marking[comp.data_named("d5").index] == V

        pattern, result = run_branch(False, 5.0)
        comp = pattern.composition
        assert [e.op_name for e in result.trace] == ["ifelse", "p2", "merge"]
        final = result.final_state
        assert final.values[pattern.role_map["result"]] == 5.0
        assert final.exec_counts[comp.operator_named("p1").index] == 0
        assert final.exec_counts[comp.operator_named("p2").index] == 1
        assert final.marking[comp.data_named("d2").index] == V
        assert final.marking[comp.data_named("d4").index] == V


# --------------------------------------------------------------- criterion 4

# Literal enablement tables over two input markings, with outputs non-New.
_GENERAL_TABLE = {
    (V, V): False, (V, O): False, (V, N): False,
    (O, V): False, (O, O): False, (O, N): True,
    (N, V): False, (N, O): True, (N, N): True,
}
_MERGE_TABLE = {
    (V, V): False, (V, O): False, (V, N): True,
    (O, V): False, (O, O): False, (O, N): True,
    (N, V): True, (N, O): True, (N, N): True,
}
_SYNC_TABLE = {
    (V, V): False, (V, O): False, (V, N): False,
    (O, V): False, (O, O): False, (O, N): False,
    (N, V): False, (N, O): False, (N, N): True,
}


def _predicate(kind: str, in_marks, out_marks) -> bool:
    n_in, n_out = len(in_marks), len(out_marks)
    names = [f"i{k}" for k in range(n_in)] + [f"o{k}" for k in range(n_out)]
    decl = ("op", kind, tuple(names[:n_in]), tuple(names[n_in:]))
    if kind == "process":
        decl += ("add",)
    comp = build_composition(names, [decl])
    marking = dict(enumerate(list(in_marks) + list(out_marks)))
    return can_fire(comp, 0, marking)


def test_criterion_4_predicate_truth_tables():
    with criterion(4, "enablement predicates match the truth tables"):
        shapes = {
            "process": (_GENERAL_TABLE, 1),
            "lt": (_GENERAL_TABLE, 1),
            "merge": (_MERGE_TABLE, 1),
            "sync": (_SYNC_TABLE, 2),
            "ifelse": (_GENERAL_TABLE, 2),
        }
        marks = (V, O, N)
        for kind, (table, n_out) in shapes.items():
            for ins in itertools.product(marks, repeat=2):
                for outs in itertools.product(marks, repeat=n_out):
                    expected = table[ins] and all(m != N for m in outs)
                    got = _predicate(kind, ins, outs)
                    assert got == expected, (kind, ins, outs)
        for outs in itertools.product(marks, repeat=1):
            expected = all(m != N for m in outs)
            assert _predicate("incr", (), outs) == expected

        # the three canonical configurations
        assert _predicate("process", (V, N), (V,)) is False  # tokenless input
        assert _predicate("process", (O, N), (V,)) is True  # ready to fire
        assert _predicate("process", (N, N), (N,)) is False  # unconsumed output
        # merge tolerates a void sibling; sync does not
        assert _predicate("merge", (V, N), (V,)) is True
        assert _predicate("sync", (O, N), (V, V)) is False


# --------------------------------------------------------------- criterion 5


def _assert_frame(comp, before, after, event):
    spec = comp.operators[event.op_index]
    written = {comp.data_named(name).index for name, _ in event.writes}
    ins, outs = set(spec.inputs), set(spec.outputs)
    assert written <= outs

    if spec.kind == "merge":
        chosen = comp.data_named(event.reads[0][0]).index
        demoted = {chosen}
    elif spec.kind == "ifelse":
        demoted = ins
    else:
        demoted = ins
        assert written == outs

    for node in comp.data:
        i = node.index
        if i in written:
            assert after.marking[i] == N
        elif i in demoted:
            assert after.marking[i] == O
        else:
            assert after.marking[i] == before.marking[i]
            assert after.values[i] == before.values[i]

    assert after.step == before.step + 1
    for op in comp.operators:
        expected = before.exec_counts[op.index] + (1 if op.index == spec.index else 0)
        assert after.exec_counts[op.index] == expected


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def _frame_property(data):
    comp = data.draw(small_compositions())
    state = data.draw(marked_states(comp))
    for idx in enabled_set(comp, state):
        snapshot = state.copy()
        run = run_of(comp, state)
        try:
            event = run.commit(idx)
        except FlowError:
            assert run.state == state == snapshot  # failed firings leave no residue
            continue
        assert state == snapshot
        _assert_frame(comp, state, run.state, event)


def test_criterion_5_firings_touch_only_their_neighborhood():
    with criterion(5, "a firing never disturbs data outside its reach"):
        _frame_property()


# --------------------------------------------------------------- criterion 6


def test_criterion_6_stalled_marking_has_no_enabled_operator():
    with criterion(6, "a marking without fireable operators is final"):
        comp = branch_structure()
        marks, values = stalled_marks()
        state = state_of(comp, marks, values)
        assert [state.marking[i] for i in range(7)] == [O, O, O, V, N, V, V]
        for op in comp.operators:
            assert not can_fire(comp, op.index, state.marking)
        assert enabled_set(comp, state) == []
        result = run_to_convergence(comp, state, default_registry())
        assert result.converged
        assert result.trace == []
        assert result.final_state.marking == state.marking
        assert result.final_state.values == state.values


# --------------------------------------------------------------- criterion 7


def _check_schedule(comp, initial, schedule):
    # overlapping intervals never share data
    ops = comp.operators
    for i, a in enumerate(schedule):
        for b in schedule[i + 1 :]:
            if a.start < b.end and b.start < a.end:
                assert not (
                    _touches(ops[a.event.op_index]) & _touches(ops[b.event.op_index])
                ), (a.event.op_name, b.event.op_name)

    # greedy maximality: whenever an operator is enabled on committed data
    # and touches nothing in flight, it is running
    times = sorted({e.start for e in schedule} | {e.end for e in schedule} | {0.0})
    for t in times:
        running = [e.event.op_index for e in schedule if e.start <= t < e.end]
        busy = set()
        for idx in running:
            busy |= _touches(ops[idx])
        # the committed marking: every firing due by t, replayed in commit
        # order, its reads made Old and its writes New
        marking = list(initial.marking)
        for e in schedule:
            if e.end <= t:
                for name, _ in e.event.reads:
                    marking[comp.data_named(name).index] = O
                for name, _ in e.event.writes:
                    marking[comp.data_named(name).index] = N
        for op in comp.operators:
            if op.index in running:
                continue
            startable = can_fire(comp, op.index, marking) and not (_touches(op) & busy)
            assert not startable, (t, op.name)


def test_criterion_7_concurrent_runs_match_sequential_results():
    with criterion(7, "overlapped execution preserves sequential results"):
        registry = default_registry()
        runs = []
        for bound in range(1, 13):
            pattern = build_loop_pattern("add1")
            runs.append(
                (pattern.composition, loop_state(pattern, float(bound), 0.0))
            )
        for cond in (True, False):
            pattern = build_ifelse_pattern("add1", "identity")
            runs.append((pattern.composition, branch_state(pattern, cond, 5.0)))

        for comp, initial in runs:
            conc, schedule = simulate_concurrent(comp, initial, registry)
            seq = run_to_convergence(comp, initial, registry)
            assert conc.converged and seq.converged
            assert conc.final_state.values == seq.final_state.values
            assert conc.final_state.marking == seq.final_state.marking
            assert conc.final_state.exec_counts == seq.final_state.exec_counts
            assert projections(comp, conc.trace) == projections(comp, seq.trace)
            _check_schedule(comp, initial, schedule)


# --------------------------------------------------------------- criterion 8


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def _round_trip_property(data):
    comp = data.draw(small_compositions())
    state = data.draw(marked_states(comp, with_text=True))
    text = emit_composition(comp, state)
    comp2, state2, _ = parse_composition(text)
    assert comp2 == comp
    assert state2 == state


def test_criterion_8_determinism_and_round_trip():
    with criterion(8, "byte-deterministic output, documents round-trip"):
        cmd = [sys.executable, "-m", "tokenflow", "run", str(FLOWS / "c1_loop.flow")]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.count(b"\n") == 63  # 62 firings plus the summary

        _round_trip_property()
