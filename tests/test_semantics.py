"""Firing predicates, value rules, and the atomic fire transition."""
import pytest

from tokenflow import (
    ExecutionState,
    NotEnabled,
    ProcessError,
    ProcessRegistry,
    RunLimits,
    TypeMismatch,
    ValidationError,
    build_composition,
    build_loop_pattern,
    can_fire,
    const,
    default_registry,
    fire,
    initial_state,
    run_to_convergence,
    simulate_concurrent,
)
from tokenflow import concurrent, semantics, sequential
from tokenflow.concurrent import startable_set
from tokenflow.sequential import EnabledIndex, enabled_set, select_next
from conftest import N, O, V, branch_structure, state_of


def _lone(kind: str, n_in: int, n_out: int, process: str | None = None):
    """A composition with one operator reading i0.. and writing o0.."""
    names = [f"i{k}" for k in range(n_in)] + [f"o{k}" for k in range(n_out)]
    decl = ("op", kind, tuple(names[:n_in]), tuple(names[n_in:]), process)
    return build_composition(names, [decl])


def _fire_lone(kind, marks, values, n_out=1, process=None):
    """Fire a lone operator whose inputs hold the given marks and values."""
    comp = _lone(kind, len(marks), n_out, process)
    state = initial_state(comp, dict(enumerate(marks)), dict(enumerate(values)))
    return fire(comp, 0, state, default_registry())


# ---------------------------------------------------------------- registry


def test_default_registry_contents():
    reg = default_registry()
    assert reg.names() == ["add", "add1", "identity", "mul", "not"]
    assert "add1" in reg
    assert "missing" not in reg
    assert reg.resolve("identity")([1.0, "x"], 0) == [1.0, "x"]
    assert reg.resolve("add1")([4.0], 0) == [5.0]
    assert reg.resolve("add")([2.0, 3.0, 4.0], 0) == [9.0]
    assert reg.resolve("add")([], 0) == [0]
    assert reg.resolve("mul")([2.0, 3.0], 0) == [6.0]
    assert reg.resolve("not")([True], 0) == [False]


def test_registry_register_and_resolve():
    reg = ProcessRegistry()
    with pytest.raises(ValidationError, match="no process registered under 'double'"):
        reg.resolve("double")
    reg.register("double", lambda vals, count: [vals[0] * 2.0])
    assert reg.resolve("double")([21.0], 0) == [42.0]


def test_builtins_reject_wrong_operand_types():
    reg = default_registry()
    with pytest.raises(TypeMismatch):
        reg.resolve("add1")([True], 0)
    with pytest.raises(TypeMismatch):
        reg.resolve("add")(["text"], 0)
    with pytest.raises(TypeMismatch):
        reg.resolve("not")([1.0], 0)


def test_const_factory():
    fn = const(7)
    assert fn([1.0, 2.0], 9) == [7.0]
    assert const("done")([], 0) == ["done"]


def test_apply_user_process_checks_output_arity():
    _, event = _fire_lone("process", (N, O), (1.0, 2.0), process="add")
    assert event.writes == (("o0", 3.0),)
    with pytest.raises(  # two values for one output
        ProcessError,
        match="^operator 'op' at step 0: process 'identity' returned 2 values,"
        " operator writes 1$",
    ):
        _fire_lone("process", (N, O), (1.0, 2.0), process="identity")
    with pytest.raises(
        ValidationError,
        match="^operator 'op' at step 0: no process registered under 'nope'$",
    ):
        _fire_lone("process", (N,), (1.0,), process="nope")


# --------------------------------------------------------------- predicate


def _pred(kind: str, in_marks, out_marks) -> bool:
    process = "add" if kind == "process" else None
    comp = _lone(kind, len(in_marks), len(out_marks), process)
    marking = dict(enumerate(list(in_marks) + list(out_marks)))
    return can_fire(comp, 0, marking)


def test_general_predicate_needs_all_tokens_and_one_new():
    assert _pred("process", (V, O), (V,)) is False
    assert _pred("process", (O, O), (V,)) is False
    assert _pred("process", (O, N), (V,)) is True
    assert _pred("process", (N, N), (O,)) is True
    assert _pred("process", (N, V), (V,)) is False


def test_new_output_always_blocks():
    assert _pred("process", (N, N), (N,)) is False
    assert _pred("merge", (N, N), (N,)) is False
    assert _pred("sync", (N, N), (N, V)) is False
    assert _pred("incr", (), (N,)) is False
    assert _pred("ifelse", (N, N), (O, N)) is False


def test_merge_fires_on_a_single_new_input():
    assert _pred("merge", (N, V), (V,)) is True
    assert _pred("merge", (V, N), (O,)) is True
    assert _pred("merge", (O, O), (V,)) is False
    assert _pred("merge", (V, V), (V,)) is False


def test_sync_needs_every_input_new():
    assert _pred("sync", (N, N), (V, O)) is True
    assert _pred("sync", (N, O), (V, V)) is False
    assert _pred("sync", (O, N), (V, V)) is False


def test_inputless_operator_waits_only_on_outputs():
    assert _pred("incr", (), (V,)) is True
    assert _pred("incr", (), (O,)) is True


# -------------------------------------------------------------- value rules


def test_eval_less_than():
    for a, b, want in ((1.0, 10.0, True), (10.0, 10.0, False), (11.0, 10.0, False)):
        _, event = _fire_lone("lt", (N, O), (a, b))
        assert event.writes == (("o0", want),)
    for a, b in ((True, 1.0), ("a", "b")):
        with pytest.raises(TypeMismatch):
            _fire_lone("lt", (N, O), (a, b))


def test_eval_increment_counts_from_one():
    comp = _lone("incr", 0, 1)
    state = initial_state(comp)
    after, event = fire(comp, 0, state, default_registry())
    assert event.writes == (("o0", 1.0),)
    assert isinstance(after.values[0], float)
    state.exec_counts[0] = 4
    _, event = fire(comp, 0, state, default_registry())
    assert event.writes == (("o0", 5.0),)


def test_eval_sync_is_positional_identity():
    _, event = _fire_lone("sync", (N, N), (True, 4.0), n_out=2)
    assert event.writes == (("o0", True), ("o1", 4.0))
    assert event.reads == (("i0", True), ("i1", 4.0))


def test_eval_ifelse_picks_branch_by_condition():
    _, event = _fire_lone("ifelse", (N, N), (5.0, True), n_out=2)
    assert event.writes == (("o0", 5.0),)
    _, event = _fire_lone("ifelse", (N, N), (5.0, False), n_out=2)
    assert event.writes == (("o1", 5.0),)
    with pytest.raises(TypeMismatch):
        _fire_lone("ifelse", (N, N), (5.0, 1.0), n_out=2)


def test_eval_merge_prefers_first_new():
    for marks, chosen in (((N, O), "i0"), ((O, N), "i1"), ((N, N), "i0")):
        _, event = _fire_lone("merge", marks, (1.0, 2.0))
        assert [name for name, _ in event.reads] == [chosen]
    with pytest.raises(NotEnabled):
        _fire_lone("merge", (O, O), (1.0, 2.0))


def test_update_general_touches_only_the_neighborhood():
    comp = branch_structure()
    state = state_of(comp, {"d0": N, "d1": N, "d4": O}, {"d0": 1.0, "d1": 2.0, "d4": 3.0})
    after, _ = fire(comp, 0, state, default_registry())
    assert after.marking == {0: O, 1: O, 2: N, 3: N, 4: O, 5: V, 6: V}
    assert state.marking[0] == N  # input untouched


# ------------------------------------------------------------------ firing


def test_fire_requires_enablement():
    comp = branch_structure()
    state = initial_state(comp, {}, {})
    with pytest.raises(NotEnabled):
        fire(comp, 0, state, default_registry())
    # inside a run the index is the test
    run = semantics.Run(comp, state, default_registry(), RunLimits())
    with pytest.raises(NotEnabled):
        run.commit(0)
    assert run.state == state and not run.trace


def test_fire_general_demotes_inputs_and_promotes_outputs():
    comp = branch_structure()
    state = state_of(comp, {"d0": N, "d1": O}, {"d0": 2.0, "d1": 3.0})
    after, event = fire(comp, 0, state, default_registry())
    assert after.marking[0] == O and after.marking[1] == O
    assert after.marking[2] == N and after.marking[3] == N
    assert after.values[2] == 2.0 and after.values[3] == 3.0
    assert after.exec_counts[0] == 1
    assert after.step == 1
    assert after.scan_start == 1
    assert event.op_name == "op0"
    assert event.reads == (("d0", 2.0), ("d1", 3.0))
    assert event.writes == (("d2", 2.0), ("d3", 3.0))
    assert event.marking_delta == ((0, O), (1, O), (2, N), (3, N))
    # the input state is untouched
    assert state.marking[0] == N and state.values[2] is None


def test_fire_accepts_spec_or_index():
    comp = branch_structure()
    state = state_of(comp, {"d0": N, "d1": N}, {"d0": 1.0, "d1": 1.0})
    by_index, _ = fire(comp, 0, state, default_registry())
    by_spec, _ = fire(comp, comp.operators[0], state, default_registry())
    assert by_index.marking == by_spec.marking
    assert by_index.values == by_spec.values


def test_fire_ifelse_leaves_untaken_branch_alone():
    comp = build_composition(
        ["v", "c", "t", "f"],
        [("br", "ifelse", ("v", "c"), ("t", "f"))],
    )
    state = initial_state(comp, {0: N, 1: N, 3: O}, {0: 9.0, 1: True, 3: 4.0})
    after, event = fire(comp, 0, state, default_registry())
    assert after.marking[2] == N and after.values[2] == 9.0
    assert after.marking[3] == O and after.values[3] == 4.0  # untaken: unchanged
    assert after.marking[0] == O and after.marking[1] == O
    assert event.writes == (("t", 9.0),)

    state = initial_state(comp, {0: N, 1: N, 3: O}, {0: 9.0, 1: False, 3: 4.0})
    after, event = fire(comp, 0, state, default_registry())
    assert after.marking[3] == N and after.values[3] == 9.0
    assert after.marking[2] == V and after.values[2] is None
    assert event.writes == (("f", 9.0),)


def test_fire_merge_demotes_only_the_chosen_input():
    comp = build_composition(
        ["a", "b", "out"],
        [("m", "merge", ("a", "b"), ("out",))],
    )
    state = initial_state(comp, {0: N, 1: N}, {0: 1.0, 1: 2.0})
    after, event = fire(comp, 0, state, default_registry())
    assert after.values[2] == 1.0  # tie goes to input 0
    assert after.marking[0] == O
    assert after.marking[1] == N  # the other New token survives
    assert event.reads == (("a", 1.0),)

    state = initial_state(comp, {0: O, 1: N}, {0: 1.0, 1: 2.0})
    after, event = fire(comp, 0, state, default_registry())
    assert after.values[2] == 2.0
    assert after.marking[0] == O and after.marking[1] == O
    assert event.reads == (("b", 2.0),)


def test_fire_merge_propagates_from_a_void_side():
    comp = build_composition(
        ["a", "b", "out"],
        [("m", "merge", ("a", "b"), ("out",))],
    )
    state = initial_state(comp, {1: N}, {1: 7.0})
    after, _ = fire(comp, 0, state, default_registry())
    assert after.values[2] == 7.0
    assert after.marking[0] == V  # the void side stays void


def test_fire_increment_writes_the_firing_ordinal():
    comp = build_composition(
        [("a", "num"), "b"],
        [
            ("inc", "incr", (), ("a",)),
            ("eat", "process", ("a",), ("b",), "identity"),
        ],
    )
    result = run_to_convergence(comp, initial_state(comp, {}, {}), default_registry())
    names = [e.op_name for e in result.trace]
    assert names == ["inc", "eat", "inc"]
    assert result.trace[0].writes == (("a", 1.0),)
    assert result.trace[2].writes == (("a", 2.0),)
    assert result.final_state.exec_counts[0] == 2


def test_fire_lt_writes_a_boolean():
    comp = build_composition(
        [("a", "num"), ("b", "num"), ("lt", "bool")],
        [("cmp", "lt", ("a", "b"), ("lt",))],
    )
    state = initial_state(comp, {0: N, 1: O}, {0: 3.0, 1: 10.0})
    after, event = fire(comp, 0, state, default_registry())
    assert after.values[2] is True
    assert event.writes == (("lt", True),)


def test_fire_rolls_back_on_transform_errors():
    comp = branch_structure()  # op1 is add1, which rejects text
    state = state_of(comp, {"d2": N}, {"d2": "oops"})
    before_marking = dict(state.marking)
    before_values = dict(state.values)
    with pytest.raises(TypeMismatch):
        fire(comp, 1, state, default_registry())
    # any other exception from a process function becomes a ProcessError
    registry = default_registry()
    registry.register("add1", lambda values, count: 1 / 0)
    with pytest.raises(ProcessError, match=r"operator 'op1' at step 0") as exc:
        fire(comp, 1, state, registry)
    assert isinstance(exc.value.__cause__, ZeroDivisionError)
    assert state.marking == before_marking
    assert state.values == before_values
    assert state.step == 0
    assert state.exec_counts[1] == 0


def test_fire_checks_declared_output_sort():
    comp = build_composition(
        ["raw", ("out", "num")],
        [("op", "process", ("raw",), ("out",), "identity")],
    )
    state = initial_state(comp, {0: N}, {0: "text"})
    with pytest.raises(TypeMismatch):
        fire(comp, 0, state, default_registry())
    assert state.values[1] is None and state.marking[1] == V


def test_fire_with_unknown_process_is_harmless():
    comp = build_composition(
        ["a", "b"],
        [("op", "process", ("a",), ("b",), "mystery")],
    )
    state = initial_state(comp, {0: N}, {0: 1.0})
    with pytest.raises(
        ValidationError,
        match="^operator 'op' at step 0: no process registered under 'mystery'$",
    ):
        fire(comp, 0, state, default_registry())
    assert state.marking[1] == V


def test_enabled_since_is_kept_across_unrelated_firings():
    pattern = build_loop_pattern("add1")
    comp = pattern.composition
    state = state_of(comp, {"d0": N, "d3": N}, {"d0": 10.0, "d3": 0.0})
    assert enabled_set(comp, state) == [0, 2]  # merge and incr
    after, _ = fire(comp, 0, state, default_registry())
    assert enabled_set(comp, after) == [2]  # incr stays enabled, merge does not
    # a waiting map stamped before the merge firing still orders incr first
    assert startable_set(EnabledIndex(comp, after), (), {2: 0.0, 0: 0.0}) == [2]


def _many_loops(count: int):
    """count independent copies of the counted loop, each seeded with bound 4."""
    base = build_loop_pattern("add1").composition
    data, ops, marks, values = [], [], {}, {}
    for j in range(count):
        def name(d, j=j):
            return f"l{j}.{base.data[d].name}"

        data += [(name(n.index), n.sort) for n in base.data]
        ops += [
            (f"l{j}.{op.name}", op.kind, tuple(map(name, op.inputs)),
             tuple(map(name, op.outputs)), op.process_name)
            for op in base.operators
        ]
        marks.update({name(0): N, name(3): N})
        values.update({name(0): 4.0, name(3): 0.0})
    comp = build_composition(data, ops)
    return comp, state_of(comp, marks, values)


def test_fire_checks_enablement_and_copies_the_state_once(monkeypatch):
    # Cost gate: no pass over every operator may come back into fire, and a
    # run copies the state once in all, not once per firing.
    calls = {"can_fire": 0, "copy": 0}
    real_can_fire, real_copy = semantics.can_fire, ExecutionState.copy

    def counting_can_fire(*args):
        calls["can_fire"] += 1
        return real_can_fire(*args)

    def counting_copy(self):
        calls["copy"] += 1
        return real_copy(self)

    monkeypatch.setattr(semantics, "can_fire", counting_can_fire)
    monkeypatch.setattr(ExecutionState, "copy", counting_copy)
    comp, initial = _many_loops(16)
    registry = default_registry()
    state, firings = initial, 0
    while (choice := select_next(state, EnabledIndex(comp, state))) is not None:
        calls.update(can_fire=0, copy=0)  # after the index's own scan
        state, _ = fire(comp, choice, state, registry)
        assert calls == {"can_fire": 1, "copy": 1}
        firings += 1
    assert firings == 16 * (6 * 4 + 2)
    for processor in (run_to_convergence, simulate_concurrent):
        calls.update(copy=0)
        result = processor(comp, initial, registry)
        trace = (result[0] if isinstance(result, tuple) else result).trace
        assert len(trace) == firings
        assert calls["copy"] == 1, processor.__name__


# Re-tests per firing allowed on top of one scan of every operator at the
# start of a run: the operators sharing a data node with the fired one (at
# most 4 in the counted loop). The run's index is its only enablement test.
RETESTS_PER_FIRING = 4


def test_processors_retest_only_the_neighbourhood_of_each_firing(monkeypatch):
    # Cost gate: enablement checks per firing must not grow with the number
    # of operators, in either processor.
    calls = 0
    real_can_fire = semantics.can_fire

    def counting_can_fire(*args):
        nonlocal calls
        calls += 1
        return real_can_fire(*args)

    for module in (semantics, sequential, concurrent):
        if getattr(module, "can_fire", None) is real_can_fire:
            monkeypatch.setattr(module, "can_fire", counting_can_fire)
    registry = default_registry()
    for loops in (1, 32):
        comp, state = _many_loops(loops)
        for processor in (run_to_convergence, simulate_concurrent):
            calls = 0
            result = processor(comp, state, registry)
            trace = (result[0] if isinstance(result, tuple) else result).trace
            assert len(trace) == loops * (6 * 4 + 2)
            bound = RETESTS_PER_FIRING * len(trace) + len(comp.operators)
            assert calls <= bound, (processor.__name__, loops, calls, bound)


def _third_call_fails(values, count):
    if count == 2:
        raise RuntimeError("third call")
    return [values[0] + 1.0]


def _sequential(comp, state, registry, limits=RunLimits()):
    return run_to_convergence(comp, state, registry, limits)


def _concurrent(comp, state, registry, limits=RunLimits()):
    return simulate_concurrent(comp, state, registry, None, limits)[0]


def test_a_run_never_touches_the_callers_state():
    comp, state = _many_loops(2)
    saved = state.copy()
    failing = default_registry()
    failing.register("add1", _third_call_fails)
    for processor in (_sequential, _concurrent):
        assert processor(comp, state, default_registry()).converged
        assert state == saved, processor.__name__
        result = processor(comp, state, default_registry(), RunLimits(7))
        assert not result.converged and len(result.trace) == 7
        assert state == saved, processor.__name__
        with pytest.raises(ProcessError, match="third call"):
            processor(comp, state, failing)
        assert state == saved, processor.__name__


def test_a_failing_run_keeps_its_partial_result():
    comp = build_loop_pattern("add1").composition
    body = comp.operator_named("p1").index
    failing = default_registry()
    failing.register("add1", _third_call_fails)
    # (seed, registry, error, message, firings of the body before the failure)
    cases = (
        (0.0, failing, ProcessError, "third call", 2),
        ("x", default_registry(), TypeMismatch, "add1 needs number operands", 0),
    )
    for seed, registry, error, message, done in cases:
        state = state_of(comp, {"d0": N, "d3": N}, {"d0": 10.0, "d3": seed})
        for processor in (_sequential, _concurrent):
            with pytest.raises(error, match=message) as exc:
                processor(comp, state, registry)
            result = exc.value.result
            assert str(exc.value).startswith(
                f"operator 'p1' at step {len(result.trace)}: "
            )
            assert not result.converged
            assert [e.op_index for e in result.trace].count(body) == done
            assert result.final_state.exec_counts[body] == done
            # the run up to the failing firing, as a run stopped just before it
            limits = RunLimits(len(result.trace))
            stopped = processor(comp, state, default_registry(), limits)
            assert result.final_state == stopped.final_state
            assert list(result.trace) == list(stopped.trace)
