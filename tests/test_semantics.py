"""Firing predicates, value rules, and the atomic firing of one operator."""
import copy
import pickle
import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tokenflow import (
    ExecutionState,
    FlowError,
    NotEnabled,
    ProcessError,
    ProcessRegistry,
    RunLimits,
    TypeMismatch,
    ValidationError,
    build_composition,
    build_loop_pattern,
    can_fire,
    default_registry,
    emit_composition,
    initial_state,
    parse_composition,
    run_to_convergence,
    serialize_trace,
    simulate_concurrent,
)
from tokenflow import concurrent, semantics, sequential
from tokenflow.concurrent import startable_set
from tokenflow.sequential import enabled_set
from tokenflow.model import Composition
from tokenflow.semantics import Run, consumes, fire
from conftest import (
    FLOWS, N, O, V, branch_structure, marked_states, run_of, small_compositions, state_of,
)


def _lone(kind: str, n_in: int, n_out: int, process: str | None = None):
    """A composition with one operator reading i0.. and writing o0.."""
    names = [f"i{k}" for k in range(n_in)] + [f"o{k}" for k in range(n_out)]
    decl = ("op", kind, tuple(names[:n_in]), tuple(names[n_in:]), process)
    return build_composition(names, [decl])


def _commit(comp, op, state):
    """Fire operator op as a library caller does, through Run.commit on a
    fresh run of state: the state after and the event. state never changes."""
    run = run_of(comp, state)
    event = run.commit(op)
    return run.state, event


def _fails_alike(comp, op, state, registry, error, match=None):
    """Fire op both ways, by fire() on a copy of state and by Run.commit on
    a fresh run, each raising error and leaving its state exactly as it
    was. Returns the error fire() raised."""
    owned = state.copy()
    with pytest.raises(error, match=match) as fired:
        fire(comp, op, owned, registry)
    assert owned == state
    run = Run(comp, state, registry, RunLimits())
    with pytest.raises(error, match=match) as committed:
        run.commit(op)
    assert str(committed.value) == str(fired.value)
    assert committed.value.result is run  # the run is the failure's result
    assert run.state == state and not run.trace
    return fired.value


def _fire_lone(kind, marks, values, n_out=1, process=None):
    """Fire a lone operator whose inputs hold the given marks and values."""
    comp = _lone(kind, len(marks), n_out, process)
    state = initial_state(comp, dict(enumerate(marks)), dict(enumerate(values)))
    return _commit(comp, 0, state)


# ---------------------------------------------------------------- registry


def test_default_registry_contents():
    reg = default_registry()
    assert reg.names() == ["add", "add1", "identity", "mul", "not"]
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


# Each effect with float, bool and text operands: what it writes, or the
# error it raises, with the operator and step that fire() puts before it.
_OPERANDS = [
    ("lt", None, 1, (1.0, 2.0), (("o0", True),)),
    ("lt", None, 1, (1.0, True), (TypeMismatch, "less-than needs number operands, got True")),
    ("lt", None, 1, ("x", 2.0), (TypeMismatch, "less-than needs number operands, got 'x'")),
    ("lt", None, 1, (True, "x"), (TypeMismatch, "less-than needs number operands, got True")),
    ("ifelse", None, 2, ("x", True), (("o0", "x"),)),
    ("ifelse", None, 2, (1.0, False), (("o1", 1.0),)),
    ("ifelse", None, 2, (True, 1.0), (TypeMismatch, "if/else condition must be a boolean, got 1.0")),
    ("ifelse", None, 2, (1.0, "x"), (TypeMismatch, "if/else condition must be a boolean, got 'x'")),
    ("sync", None, 2, (1.0, True), (("o0", 1.0), ("o1", True))),
    ("sync", None, 2, ("x", -0.0), (("o0", "x"), ("o1", -0.0))),
    ("process", "add1", 1, (1.5,), (("o0", 2.5),)),
    ("process", "add1", 1, (True,), (TypeMismatch, "add1 needs number operands, got True")),
    ("process", "add1", 1, ("x",), (TypeMismatch, "add1 needs number operands, got 'x'")),
    # add1 wired to two inputs names a non-number before it counts them
    ("process", "add1", 1, (1.0, "x"), (TypeMismatch, "add1 needs number operands, got 'x'")),
    ("process", "add1", 1, (1.0, 2.0), (
        ProcessError, "process 'add1' raised ValueError: too many values to unpack (expected 1)"
    )),
    ("process", "add", 1, (1.0, 2.5), (("o0", 3.5),)),
    ("process", "add", 1, (1.0, False), (TypeMismatch, "add needs number operands, got False")),
    ("process", "add", 1, ("x", 1.0), (TypeMismatch, "add needs number operands, got 'x'")),
]


@pytest.mark.parametrize("kind, process, n_out, values, want", _OPERANDS)
def test_each_effect_writes_or_names_its_operands(kind, process, n_out, values, want):
    marks = (N,) * len(values)
    if isinstance(want[0], tuple):
        _, event = _fire_lone(kind, marks, values, n_out, process)
        assert event.writes == want
        for (_, got), (_, wanted) in zip(event.writes, want):
            assert type(got) is type(wanted) and repr(got) == repr(wanted)
        return
    error, message = want
    with pytest.raises(error) as exc:
        _fire_lone(kind, marks, values, n_out, process)
    assert type(exc.value) is error
    assert str(exc.value) == f"operator 'op' at step 0: {message}"


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
    after, event = _commit(comp, 0, state)
    assert event.writes == (("o0", 1.0),)
    assert isinstance(after.values[0], float)
    state.exec_counts[0] = 4
    _, event = _commit(comp, 0, state)
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
    after, _ = _commit(comp, 0, state)
    assert after.marking == [O, O, N, N, O, V, V]
    assert state.marking[0] == N  # input untouched


# ------------------------------------------------------------------ firing


def test_fire_requires_enablement():
    comp = branch_structure()
    state = initial_state(comp, {}, {})
    # fire() is handed only enabled operators: Run.commit checks its index
    # against the run's set of enabled operators
    run = run_of(comp, state)
    with pytest.raises(NotEnabled, match="^operator 'op0' is not enabled$"):
        run.commit(0)
    assert run.state == state and not run.trace


def _assert_reads_old_and_writes_new(comp, event, state):
    """The marking change an event records holds in the state after it."""
    for name, _ in event.reads:
        assert state.marking[comp.data_named(name).index] == O, (event, name)
    for name, _ in event.writes:
        assert state.marking[comp.data_named(name).index] == N, (event, name)


def test_fire_general_demotes_inputs_and_promotes_outputs():
    comp = branch_structure()
    state = state_of(comp, {"d0": N, "d1": O}, {"d0": 2.0, "d1": 3.0})
    after, event = _commit(comp, 0, state)
    assert after.marking[0] == O and after.marking[1] == O
    assert after.marking[2] == N and after.marking[3] == N
    assert after.values[2] == 2.0 and after.values[3] == 3.0
    assert after.exec_counts[0] == 1
    assert after.step == 1
    assert after.scan_start == 1
    assert event.op_name == "op0"
    assert event.reads == (("d0", 2.0), ("d1", 3.0))
    assert event.writes == (("d2", 2.0), ("d3", 3.0))
    _assert_reads_old_and_writes_new(comp, event, after)
    # the input state is untouched
    assert state.marking[0] == N and state.values[2] is None


def test_operators_come_from_build_composition_and_are_named_by_index():
    # A Composition is never built by hand, so every operator the engine
    # sees has passed build_composition's checks; one is named by index.
    comp = branch_structure()
    for args in ((), (comp.data, comp.operators)):
        with pytest.raises(TypeError, match="^a Composition is made only by build_composition$"):
            Composition(*args)
    # a copy or a pickle of a built one is made without calling Composition
    for clone in (copy.copy(comp), copy.deepcopy(comp), pickle.loads(pickle.dumps(comp))):
        assert clone == comp and clone.operator_named("op1") == comp.operators[1]
    state = state_of(comp, {"d0": N, "d1": N}, {"d0": 1.0, "d1": 1.0})
    # an object of another type is unequal to either, not compared slot by slot
    assert comp != comp.data and state != state.marking
    spec = comp.operators[0]
    message = r"^no operator with index OperatorSpec\("
    with pytest.raises(ValidationError, match=message):
        run_of(comp, state).commit(spec)
    with pytest.raises(ValidationError, match=message):
        can_fire(comp, spec, state.marking)


def test_an_index_naming_no_operator_is_refused_not_aliased():
    # A negative index would alias an operator from the end, True and 2.0
    # the operators 1 and 2 they equal (operator 2, incr, is enabled), and
    # 99 none at all. [0] and {} cannot even be looked up in a set.
    comp, state, _ = parse_composition((FLOWS / "c1_loop.flow").read_text(encoding="utf-8"))
    assert run_of(comp, state).commit(2).op_name == "incr"  # enabled
    for bad in (-4, -1, 6, 99, True, 2.0, "2", None, comp.operators[2], [0], {}):
        message = f"^no operator with index {re.escape(repr(bad))}$"
        run = run_of(comp, state)
        with pytest.raises(ValidationError, match=message):
            run.commit(bad)
        assert run.state == state and not run.trace
        with pytest.raises(ValidationError, match=message):
            can_fire(comp, bad, state.marking)
    # An index of an operator that is not enabled is still NotEnabled.
    with pytest.raises(NotEnabled, match="^operator 'p1' is not enabled$"):
        run_of(comp, state).commit(5)


def test_fire_ifelse_leaves_untaken_branch_alone():
    comp = build_composition(
        ["v", "c", "t", "f"],
        [("br", "ifelse", ("v", "c"), ("t", "f"))],
    )
    state = initial_state(comp, {0: N, 1: N, 3: O}, {0: 9.0, 1: True, 3: 4.0})
    after, event = _commit(comp, 0, state)
    assert after.marking[2] == N and after.values[2] == 9.0
    assert after.marking[3] == O and after.values[3] == 4.0  # untaken: unchanged
    assert after.marking[0] == O and after.marking[1] == O
    assert event.writes == (("t", 9.0),)

    state = initial_state(comp, {0: N, 1: N, 3: O}, {0: 9.0, 1: False, 3: 4.0})
    after, event = _commit(comp, 0, state)
    assert after.marking[3] == N and after.values[3] == 9.0
    assert after.marking[2] == V and after.values[2] is None
    assert event.writes == (("f", 9.0),)


def test_fire_merge_demotes_only_the_chosen_input():
    comp = build_composition(
        ["a", "b", "out"],
        [("m", "merge", ("a", "b"), ("out",))],
    )
    state = initial_state(comp, {0: N, 1: N}, {0: 1.0, 1: 2.0})
    after, event = _commit(comp, 0, state)
    assert after.values[2] == 1.0  # tie goes to input 0
    assert after.marking[0] == O
    assert after.marking[1] == N  # the other New token survives
    assert event.reads == (("a", 1.0),)

    state = initial_state(comp, {0: O, 1: N}, {0: 1.0, 1: 2.0})
    after, event = _commit(comp, 0, state)
    assert after.values[2] == 2.0
    assert after.marking[0] == O and after.marking[1] == O
    assert event.reads == (("b", 2.0),)


def test_fire_merge_propagates_from_a_void_side():
    comp = build_composition(
        ["a", "b", "out"],
        [("m", "merge", ("a", "b"), ("out",))],
    )
    state = initial_state(comp, {1: N}, {1: 7.0})
    after, _ = _commit(comp, 0, state)
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
    after, event = _commit(comp, 0, state)
    assert after.values[2] is True
    assert event.writes == (("lt", True),)


def test_fire_rolls_back_on_transform_errors():
    comp = branch_structure()  # op1 is add1, which rejects text
    state = state_of(comp, {"d2": N}, {"d2": "oops"})
    _fails_alike(comp, 1, state, default_registry(), TypeMismatch)
    # any other exception from a process function becomes a ProcessError
    registry = default_registry()
    registry.register("add1", lambda values, count: 1 / 0)
    error = _fails_alike(comp, 1, state, registry, ProcessError, r"operator 'op1' at step 0")
    assert isinstance(error.__cause__, ZeroDivisionError)


def test_a_process_returning_no_value_fails_before_writing():
    # A New token holds a value, and a process function that returns None
    # gives none: the firing fails, naming the process and the data node,
    # and leaves the state as it was, so the run's state is a document again.
    registry = ProcessRegistry({"nothing": lambda values, count: [None]})
    comp, state, _ = parse_composition(
        "data a num\ndata b\nop p process:nothing (a) -> (b)\ninit a = 1\n"
    )
    message = "^operator 'p' at step 0: process 'nothing' returned no value for data 'b'$"
    _fails_alike(comp, 0, state, registry, ProcessError, message)
    for processor in (run_to_convergence, simulate_concurrent):
        with pytest.raises(ProcessError, match=message) as exc:
            processor(comp, state, registry)
        result = exc.value.result
        assert (result.final_state, list(result.trace), result.converged) == (state, [], False)
        text = emit_composition(comp, result.final_state)
        assert text.endswith("init a = 1\n") and "init b" not in text
        assert parse_composition(text)[:2] == (comp, result.final_state)
    # the value checked is the one written: None for the second output of two
    registry.register("half", lambda values, count: [1.0, None])
    comp, state, _ = parse_composition(
        "data a\ndata b\ndata c\nop q process:half (a) -> (b, c)\ninit a = 1\n"
    )
    with pytest.raises(ProcessError, match="process 'half' returned no value for data 'c'$"):
        run_to_convergence(comp, state, registry)


def test_a_process_function_gets_a_list_of_its_own():
    # The list a process function is handed is its own to change: the
    # event's reads, its trace line and the run's values keep the inputs.
    def scribble(values, count):
        total = values[0] + values[1]
        values.clear()
        values.append("scribbled")
        return [total]

    registry = ProcessRegistry({"scribble": scribble})
    comp, state, _ = parse_composition(
        "data a num\ndata b num\ndata c num\n"
        "op p process:scribble (a, b) -> (c)\ninit a = 1\ninit b = 2\n"
    )
    for run in (
        run_to_convergence(comp, state, registry),
        simulate_concurrent(comp, state, registry)[0],
    ):
        assert run.trace[0].reads == (("a", 1.0), ("b", 2.0))
        assert serialize_trace(run.trace) == (
            "step=0 op=p reads={a=1,b=2} writes={c=3} marking=a:O,b:O,c:N\n"
        )
        assert run.final_state.values == [1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "returned, type_name",
    [
        ("hi", "str"),  # would write "h" and "i"
        (b"hi", "bytes"),
        ({"x": 1.0, "y": 2.0}, "dict"),  # would write its keys
        ({"left", "right"}, "set"),  # would write in hash order
        (5.0, "float"),  # not iterable, though the process raised nothing
        ((v for v in (1.0, 2.0)), "generator"),
    ],
)
def test_a_process_result_that_is_no_list_or_tuple_is_refused(returned, type_name):
    # One value per output comes as a list or a tuple; any other result is
    # refused whole, naming the process and the type, and nothing is written.
    registry = ProcessRegistry({"two": lambda values, count: returned})
    comp, state, _ = parse_composition(
        "data a\ndata x\ndata y\nop p process:two (a) -> (x, y)\ninit a = 1\n"
    )
    message = (
        f"^operator 'p' at step 0: process 'two' returned {type_name},"
        " not a list or tuple$"
    )
    _fails_alike(comp, 0, state, registry, ProcessError, message)
    with pytest.raises(ProcessError, match=message) as exc:
        run_to_convergence(comp, state, registry)
    assert exc.value.result.final_state == state and not exc.value.result.converged
    for fits in ([1.0, 2.0], (1.0, 2.0)):
        registry.register("two", lambda values, count: fits)
        run = run_to_convergence(comp, state, registry)
        assert run.converged and run.final_state.values == [1.0, 1.0, 2.0]


def test_fire_checks_declared_output_sort():
    comp = build_composition(
        ["raw", ("out", "num")],
        [("op", "process", ("raw",), ("out",), "identity")],
    )
    state = initial_state(comp, {0: N}, {0: "text"})
    _fails_alike(comp, 0, state, default_registry(), TypeMismatch)
    assert state.values[1] is None and state.marking[1] == V


def test_fire_with_unknown_process_is_harmless():
    comp = build_composition(
        ["a", "b"],
        [("op", "process", ("a",), ("b",), "mystery")],
    )
    state = initial_state(comp, {0: N}, {0: 1.0})
    message = "^operator 'op' at step 0: no process registered under 'mystery'$"
    _fails_alike(comp, 0, state, default_registry(), ValidationError, message)
    assert state.marking[1] == V


def test_enabled_since_is_kept_across_unrelated_firings():
    pattern = build_loop_pattern("add1")
    comp = pattern.composition
    state = state_of(comp, {"d0": N, "d3": N}, {"d0": 10.0, "d3": 0.0})
    assert enabled_set(comp, state) == [0, 2]  # merge and incr
    after, _ = _commit(comp, 0, state)
    assert enabled_set(comp, after) == [2]  # incr stays enabled, merge does not
    # a waiting map stamped before the merge firing still orders incr first
    assert startable_set(run_of(comp, after), (), {2: 0.0, 0: 0.0}) == [2]


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


# Enablement tests of one counted loop run to its end: a scan of its 6
# operators at the start of the run, then 50 re-tests over its 26 firings.
# A firing re-tests the operators sharing a data node with the fired one,
# but not the fired one, which its own New output disables untested. The
# run's set of enabled operators is its only enablement test.
CAN_FIRE_PER_LOOP = 6 + 50


def test_processors_retest_only_the_neighbourhood_of_each_firing(monkeypatch):
    # Cost gate: enablement checks per firing must not grow with the number
    # of operators, in either processor, and must not exceed the neighbourhood
    # of the fired operator: the count is exact, for 1 loop and for 32. A
    # run copies the state once in all, not once per firing.
    calls = {"can_fire": 0, "copy": 0}
    real_can_fire, real_copy = semantics.can_fire, ExecutionState.copy

    def counting_can_fire(*args):
        calls["can_fire"] += 1
        return real_can_fire(*args)

    def counting_copy(self):
        calls["copy"] += 1
        return real_copy(self)

    for module in (semantics, sequential, concurrent):
        if getattr(module, "can_fire", None) is real_can_fire:
            monkeypatch.setattr(module, "can_fire", counting_can_fire)
    monkeypatch.setattr(ExecutionState, "copy", counting_copy)
    registry = default_registry()
    for loops in (1, 32):
        comp, state = _many_loops(loops)
        for processor in (run_to_convergence, simulate_concurrent):
            calls.update(can_fire=0, copy=0)
            result = processor(comp, state, registry)
            trace = (result[0] if isinstance(result, tuple) else result).trace
            assert len(trace) == loops * (6 * 4 + 2)
            assert calls == {"can_fire": CAN_FIRE_PER_LOOP * loops, "copy": 1}, (
                processor.__name__, loops, calls
            )


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
        # each processor returns its run, which is its own result
        assert type(result) is Run and result.final_state is result.state
        assert not result.converged and len(result.trace) == 7
        assert result.steps_taken == 7 and result.final_state.step == 7
        assert state == saved, processor.__name__
        with pytest.raises(ProcessError, match="third call"):
            processor(comp, state, failing)
        assert state == saved, processor.__name__


def test_a_failing_run_keeps_its_partial_result():
    loop = build_loop_pattern("add1").composition
    lone = build_composition(["a", "b"], [("p", "process", ("a",), ("b",), "nest")])
    failing = default_registry()
    failing.register("add1", _third_call_fails)
    nesting = ProcessRegistry({"nest": lambda values, count: [[1.0]]})

    def seeded(seed):
        return state_of(loop, {"d0": N, "d3": N}, {"d0": 10.0, "d3": seed})

    # (composition, seed state, registry, error, message, failing operator,
    #  its firings before the failure)
    cases = (
        (loop, seeded(0.0), failing, ProcessError, "third call", "p1", 2),
        (loop, seeded("x"), default_registry(), TypeMismatch,
         "add1 needs number operands", "p1", 0),
        (lone, state_of(lone, {"a": N}, {"a": 1.0}), nesting, TypeMismatch,
         "unsupported value type 'list'", "p", 0),
    )
    for comp, state, registry, error, message, op, done in cases:
        index = comp.operator_named(op).index
        for processor in (_sequential, _concurrent):
            with pytest.raises(error, match=message) as exc:
                processor(comp, state, registry)
            result = exc.value.result
            assert str(exc.value).startswith(
                f"operator {op!r} at step {len(result.trace)}: "
            )
            # the failing run itself, its failing operator still enabled
            assert type(result) is Run and result.final_state is result.state
            assert not result.converged and index in result.order
            assert result.steps_taken == len(result.trace)
            assert [e.op_index for e in result.trace].count(index) == done
            assert result.final_state.exec_counts[index] == done
            if not result.trace:  # failed at the first firing
                assert result.final_state == state
                continue
            # the run up to the failing firing, as a run stopped just before it
            limits = RunLimits(len(result.trace))
            stopped = processor(comp, state, default_registry(), limits)
            assert result.final_state == stopped.final_state
            assert list(result.trace) == list(stopped.trace)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_run_keeps_each_neighbourhood_and_an_owned_firing_commits_in_place(data):
    # run.affects holds what a brute-force search over every pair of
    # operators gives. fire() commits to the very state it is handed, a copy
    # the test owns, with the event and the state Run.commit gives, and a
    # run that commits in a drawn order, as the concurrent processor may,
    # gives both at every firing. Each event reads exactly the inputs
    # consumes() names under the marking before the firing, with their
    # values then. The process fails at a drawn firing count, or on text:
    # then both fail alike, naming the operator and the step, and leave the
    # state as it was.
    comp = data.draw(small_compositions())
    state = data.draw(marked_states(comp, with_text=True))
    saved = state.copy()
    fail_at = data.draw(st.integers(0, 4))

    def add(values, count):
        if count == fail_at:
            raise RuntimeError(f"firing {count}")
        return default_registry().resolve("add")(values, count)

    registry = ProcessRegistry({"add": add})
    run = Run(comp, state, registry, RunLimits())
    ops = comp.operators
    for i, op in enumerate(ops):
        touches = set(op.inputs) | set(op.outputs)
        assert run.affects[i] == [
            j for j, other in enumerate(ops)
            if touches & (set(other.inputs) | set(other.outputs))
        ]
        assert i in run.affects[i]
    for _ in range(30):
        if not run.order:
            break
        idx = data.draw(st.sampled_from(run.order))
        owned = run.state.copy()
        reads = tuple(
            (comp.data[d].name, owned.values[d]) for d in consumes(comp, idx, owned.marking)
        )
        try:
            event = fire(comp, idx, owned, registry)
        except FlowError as exc:
            assert owned == run.state
            assert str(exc).startswith(f"operator {ops[idx].name!r} at step {owned.step}: ")
            before = run.state.copy()
            with pytest.raises(type(exc)) as failed:
                run.commit(idx)
            assert str(failed.value) == str(exc)
            assert run.state == before
            break
        assert run.commit(idx) == event
        assert run.state == owned
        assert event.reads == reads
        _assert_reads_old_and_writes_new(comp, event, owned)
    assert state == saved  # the run never touched it
