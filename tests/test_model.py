"""Structure building, validation, graph views, and state construction."""
import ast
import itertools
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tokenflow import (
    RunLimits,
    TokenState,
    TypeMismatch,
    ValidationError,
    build_composition,
    build_ifelse_pattern,
    default_registry,
    initial_state,
    parse_composition,
    run_to_convergence,
)
from tokenflow.model import (
    KINDS,
    NAME,
    DataNode,
    admit_seed,
    coerce_value,
)
from tokenflow.semantics import can_fire, consumes
from tokenflow.sequential import enabled_set

from conftest import FLOWS, N, O, REPO, V, branch_structure, state_of


def test_token_state_codes():
    assert TokenState.VOID.code == "V"
    assert TokenState.OLD.code == "O"
    assert TokenState.NEW.code == "N"
    assert int(TokenState.VOID) == 0
    assert int(TokenState.OLD) == 1
    assert int(TokenState.NEW) == 2


class _Text(str):
    """A str subclass, which a node stores as a plain str."""


def test_admit_seed_checks_the_declared_sort():
    for sort, value in (("bool", True), ("num", 3.0), ("text", "hi"), ("any", 3.0)):
        assert admit_seed(DataNode(0, "x", sort), value) == value
    for sort, value, stored in (("num", 5, 5.0), ("text", _Text("hi"), "hi")):
        admitted = admit_seed(DataNode(0, "x", sort), value)
        assert (type(admitted), admitted) == (type(stored), stored)
    for sort, value, actual in (
        ("num", True, "bool"), ("bool", 1.0, "num"), ("text", 2, "num"), ("num", "1", "text")
    ):
        with pytest.raises(
            TypeMismatch, match=f"^data 'x' is declared {sort} but got a {actual} value$"
        ):
            admit_seed(DataNode(0, "x", sort), value)


def test_admit_seed_names_the_node_in_every_error():
    node = DataNode(0, "x", "any")
    with pytest.raises(ValidationError, match="^data 'x' holds a token but no value$"):
        admit_seed(node, None)
    for value, message in (
        (object(), "unsupported value type 'object'"),
        ([1.0], "unsupported value type 'list'"),
        (math.nan, "number nan is not finite"),
        (10**400, "number inf is not finite"),
        ("\ud800", "text '\\ud800' holds a lone surrogate, which UTF-8 cannot encode"),
    ):
        with pytest.raises(TypeMismatch) as exc:
            admit_seed(node, value)
        assert str(exc.value) == f"data 'x': {message}"


def test_coerce_value_normalizes_ints():
    assert coerce_value(5) == 5.0
    assert isinstance(coerce_value(5), float)
    assert coerce_value(True) is True
    assert coerce_value(None) is None
    assert coerce_value("t") == "t"
    assert type(coerce_value(_Text("t"))) is str


def test_coerce_value_rejects_non_finite_numbers():
    for bad in (float("inf"), float("-inf"), float("nan"), 10**400):
        with pytest.raises(TypeMismatch):
            coerce_value(bad)


def test_coerce_value_rejects_lone_surrogates():
    for bad in ("\ud800", "a\udfffb", "\udc80"):
        with pytest.raises(TypeMismatch, match="lone surrogate"):
            coerce_value(bad)
    assert coerce_value("\U0001f600") == "\U0001f600"


def test_build_basic_lookup():
    comp = branch_structure()
    assert [n.name for n in comp.data] == ["d0", "d1", "d2", "d3", "d4", "d5", "d6"]
    assert comp.data_named("d4").index == 4
    assert comp.operator_named("op2").inputs == (2,)
    assert comp.operator_named("op3").outputs == (6,)
    with pytest.raises(ValidationError, match="no data node named 'nope'"):
        comp.data_named("nope")


def test_build_accepts_typed_data():
    comp = build_composition(
        [("flag", "bool"), ("x", "num")],
        [("op", "process", ("flag",), ("x",), "identity")],
    )
    assert comp.data_named("flag").sort == "bool"
    assert comp.data_named("x").sort == "num"
    with pytest.raises(ValidationError):
        build_composition([("flag", "truthy")], [])


def test_names_must_fit_a_document_line():
    for data, ops in (
        (["a b"], []),
        (['q"'], []),
        (["a\n"], []),
        (["a"], [("bad op", "incr", (), ("a",))]),
        (["a"], [("op", "process", (), ("a",), "my proc")]),
        (["a"], [("op", "process", (), ("a",), "f(x)")]),
    ):
        with pytest.raises(ValidationError):
            build_composition(data, ops)
    comp = build_composition(["x.1", "_y-2"], [("op.z", "incr", (), ("x.1",))])
    assert [n.name for n in comp.data] == ["x.1", "_y-2"]


# Text at the edges of NAME: ASCII identifiers, names with . and -, and
# non-ASCII letters, digits and marks, which \w and isidentifier judge apart.
_NAME_LIKE = st.text(
    st.sampled_from("aZ_09.-\u00e9\u0663\u2168\u00b7\u1885\u2118\u0301 \n"), max_size=6
)


@settings(max_examples=500, deadline=None)
@given(name=st.one_of(st.text(), _NAME_LIKE, st.from_regex(NAME, fullmatch=True)))
def test_name_checks_accept_exactly_what_NAME_matches(name):
    matches = NAME.fullmatch(name) is not None
    for check in (
        lambda: build_composition([name], []),
        lambda: build_composition(["a"], [("op", "process", (), ("a",), name)]),
    ):
        try:
            check()
        except ValidationError:
            assert not matches
        else:
            assert matches


def test_duplicate_data_name_rejected():
    with pytest.raises(ValidationError, match="data name 'a' declared twice"):
        build_composition(["a", "a"], [])


def test_duplicate_operator_name_rejected():
    with pytest.raises(ValidationError, match="operator name 'op' declared twice"):
        build_composition(
            ["a", "b"],
            [
                ("op", "incr", (), ("a",)),
                ("op", "incr", (), ("b",)),
            ],
        )


def test_unknown_data_reference_rejected():
    with pytest.raises(
        ValidationError,
        match="operator 'op' input references unknown data 'missing'",
    ):
        build_composition(["a"], [("op", "process", ("missing",), ("a",), "identity")])


def test_declarations_that_are_not_strings_are_rejected():
    for data, ops, culprit in (
        (["a"], [("x", ["incr"], (), ("a",))], "'x'"),
        (["a"], [("x", "incr", (), (["a"],))], "'x'"),
        (["a"], [("x", "process", (), ("a",), ["identity"])], "'x'"),
        ([("a", ["num"])], [], "'a'"),
    ):
        with pytest.raises(ValidationError, match=culprit):
            build_composition(data, ops)


def test_declarations_of_the_wrong_shape_are_rejected():
    for data, ops, message in (
        (["a"], [("x", "incr")], "bad operator declaration"),
        ([5], [], "bad data declaration 5"),
        (["a"], [("x", "incr", (), 5)], "operator 'x': outputs 5 are not"),
        # a bare string is not split into one-letter names
        (["a", "b", "ab"], [("x", "sync", ("a", "b"), "ab")], "outputs 'ab' are not"),
    ):
        with pytest.raises(ValidationError, match=message):
            build_composition(data, ops)


def test_operator_named_rejects_a_missing_operator():
    with pytest.raises(ValidationError, match="no operator named 'nope'"):
        branch_structure().operator_named("nope")


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError, match="operator 'op': unknown kind 'frobnicate'"):
        build_composition(["a"], [("op", "frobnicate", (), ("a",))])


def test_arity_enforced_for_special_kinds():
    with pytest.raises(
        ValidationError, match="operator 'bad': kind 'lt' takes 2 inputs, got 1"
    ):
        build_composition(["a", "c"], [("bad", "lt", ("a",), ("c",))])
    with pytest.raises(
        ValidationError, match="operator 'bad': kind 'sync' writes 2 outputs, got 1"
    ):
        build_composition(
            ["a", "b", "c"],
            [("bad", "sync", ("a", "b"), ("c",))],
        )
    with pytest.raises(
        ValidationError, match="operator 'bad': kind 'incr' takes 0 inputs, got 1"
    ):
        build_composition(["a", "b"], [("bad", "incr", ("a",), ("b",))])


def test_operator_needs_an_output():
    with pytest.raises(ValidationError, match="operator 'op': needs at least one output"):
        build_composition(["a"], [("op", "process", ("a",), (), "identity")])


def test_input_output_overlap_rejected():
    with pytest.raises(
        ValidationError, match="operator 'op' reads and writes the same data: a"
    ):
        build_composition(
            ["a", "b"],
            [("op", "process", ("a", "b"), ("a",), "identity")],
        )


def test_duplicate_outputs_rejected():
    with pytest.raises(ValidationError):
        build_composition(
            ["a", "b", "c"],
            [("op", "sync", ("a", "b"), ("c", "c"))],
        )


def test_process_name_required_only_for_process_kind():
    with pytest.raises(ValidationError):
        build_composition(["a"], [("op", "process", (), ("a",))])
    with pytest.raises(ValidationError):
        build_composition(["a"], [("op", "incr", (), ("a",), "identity")])


def test_declarations_are_frozen():
    comp = branch_structure()
    with pytest.raises(AttributeError):
        comp.data[0].name = "renamed"
    with pytest.raises(AttributeError):
        comp.operators[0].kind = "merge"
    assert comp.data[0].name == "d0"
    assert comp.operators[0].kind == "process"


def test_initial_state_defaults_to_void():
    comp = branch_structure()
    state = initial_state(comp, {}, {})
    assert state.marking == [V] * 7
    assert state.values == [None] * 7
    assert state.step == 0
    assert state.scan_start == 0
    assert enabled_set(comp, state) == []
    assert state.exec_counts == [0, 0, 0, 0]


def test_initial_state_tracks_enabled():
    pattern = build_ifelse_pattern("add1", "identity")
    state = state_of(
        pattern.composition, {"d0": N, "d1": N}, {"d0": True, "d1": 5.0}
    )
    assert enabled_set(pattern.composition, state) == [0]


def test_initial_state_requires_value_for_token():
    comp = branch_structure()
    with pytest.raises(ValidationError, match="data 'd0' holds a token but no value"):
        initial_state(comp, {0: O}, {})


def test_initial_state_rejects_value_on_void():
    comp = branch_structure()
    with pytest.raises(ValidationError):
        initial_state(comp, {}, {0: 1.0})
    # a marking that is not a TokenState names the data node
    with pytest.raises(ValidationError, match="data 'd0'"):
        initial_state(comp, {0: 7}, {0: 1.0})


def test_initial_state_takes_a_token_state_or_an_int_marking():
    comp = branch_structure()
    for mark in (O, N, 1, 2):
        assert initial_state(comp, {0: mark}, {0: 1.0}).marking[0] is TokenState(mark)
    assert initial_state(comp, {0: 0}, {}).marking[0] is V
    # True == 1 and 2.0 == 2, but neither is a marking
    for mark in (True, False, 2.0, 1.5, -1, 3, "N", None):
        with pytest.raises(ValidationError) as exc:
            initial_state(comp, {0: mark}, {0: 1.0})
        assert str(exc.value) == f"data 'd0': {mark!r} is not a marking"


def test_initial_state_rejects_bad_index():
    comp = branch_structure()
    with pytest.raises(ValidationError, match="no data node with index 99"):
        initial_state(comp, {99: N}, {99: 1.0})
    # the state is a list indexed by data index, so an index is an int, and
    # not a bool
    for idx in (-1, 1.0, "d1", True):
        with pytest.raises(ValidationError, match=f"^no data node with index {idx}$"):
            initial_state(comp, {idx: N}, {idx: 1.0})


def test_initial_state_takes_a_states_own_lists():
    comp, seed, _ = parse_composition((FLOWS / "c1_loop.flow").read_text(encoding="utf-8"))
    later = run_to_convergence(comp, seed, default_registry(), RunLimits(7)).final_state
    assert later.step == 7
    for state in (seed, later):
        for marking, values in (
            (state.marking, state.values),
            (tuple(state.marking), tuple(state.values)),
        ):
            again = initial_state(comp, marking, values)
            assert (again.marking, again.values) == (state.marking, state.values)
            assert (again.step, again.scan_start) == (0, 0)
            assert again.exec_counts == [0] * len(comp.operators)
    # a list indexed past the last data node names the index
    with pytest.raises(ValidationError, match=f"^no data node with index {len(comp.data)}$"):
        initial_state(comp, [V] * (len(comp.data) + 1))
    # any other argument that is not a mapping is named
    for markings, values, role in ((7, None, "markings"), ({}, "ab", "values"), ({0, 1}, {}, "markings")):
        with pytest.raises(ValidationError, match=f"^initial_state {role} must be a mapping or a list"):
            initial_state(comp, markings, values)


def test_initial_state_checks_declared_sort():
    comp = build_composition(
        [("flag", "bool"), ("out", "num")],
        [("op", "process", ("flag",), ("out",), "identity")],
    )
    with pytest.raises(TypeMismatch):
        initial_state(comp, {0: N}, {0: 3.0})


def test_initial_state_normalizes_ints():
    comp = branch_structure()
    state = initial_state(comp, {1: N}, {1: 5})
    assert state.values[1] == 5.0
    assert isinstance(state.values[1], float)


def test_state_copy_is_independent():
    comp = branch_structure()
    state = initial_state(comp, {0: N}, {0: True})
    clone = state.copy()
    assert clone == state
    for field in ("marking", "values", "exec_counts"):  # it shares no list
        assert type(getattr(clone, field)) is list, field
        assert getattr(clone, field) is not getattr(state, field), field
    clone.marking[0] = V
    clone.values[0] = None
    clone.exec_counts[0] = 7
    assert state.marking[0] == N
    assert state.values[0] is True
    assert state.exec_counts[0] == 0


# ------------------------------------------------------------ firing rules

# The firing rules as the paper states them, over the list of input
# markings in port order: the specification can_fire, which reads the
# marking in place, is held to. _RULE_SPECS is keyed by the tag KINDS holds.
def _ready_spec(marks):
    return not marks or (V not in marks and N in marks)


def _any_new_spec(marks):
    return N in marks


def _all_new_spec(marks):
    return marks.count(N) == len(marks)


_RULE_SPECS = {"ready": _ready_spec, "any_new": _any_new_spec, "all_new": _all_new_spec}
_KIND_SPECS = {
    "process": _ready_spec,
    "ifelse": _ready_spec,
    "merge": _any_new_spec,
    "sync": _all_new_spec,
    "incr": _ready_spec,
    "lt": _ready_spec,
}
# A marking as a TokenState member and as the raw int a caller may pass.
_MARKS = (V, O, N, 0, 1, 2)


def _markings(k):
    """Every marking of k nodes, each mark a TokenState or a raw int."""
    return itertools.product(_MARKS, repeat=k)


def test_each_kind_tags_the_rule_its_specification_gives():
    assert set(KINDS) == set(_KIND_SPECS)
    for kind, entry in KINDS.items():
        assert entry.rule in _RULE_SPECS, (kind, entry.rule)
        assert _RULE_SPECS[entry.rule] is _KIND_SPECS[kind], kind


def _lone_shapes():
    """(composition, spec rule) for one operator of every kind and arity the
    rule test covers.

    Data is declared as a node no rule reads, the inputs in reverse port
    order, another such node, then the outputs: can_fire must read each
    input by its index.
    """
    shapes = [("process", n_in, n_out) for n_in in range(5) for n_out in (1, 2)]
    shapes += [
        (kind, entry.inputs, entry.outputs)
        for kind, entry in KINDS.items()
        if entry.inputs is not None
    ]
    for kind, n_in, n_out in shapes:
        ins = [f"i{k}" for k in range(n_in)]
        outs = [f"o{k}" for k in range(n_out)]
        decl = ("op", kind, tuple(ins), tuple(outs))
        if kind == "process":
            decl += ("add",)
        names = ["below", *reversed(ins), "above", *outs]
        yield build_composition(names, [decl]), _KIND_SPECS[kind]


def _consumes_spec(op, marking):
    """The inputs a firing of op consumes: a merge its first New input in
    port order, any other kind all of them."""
    if op.kind == "merge":
        return (next(d for d in op.inputs if marking[d] == N),)
    return op.inputs


def test_can_fire_agrees_with_the_specification_on_every_marking():
    # and, on every marking that enables the operator, consumes with the
    # specification of what its firing consumes
    for comp, spec in _lone_shapes():
        (op,) = comp.operators
        n_in = len(op.inputs)
        assert op.inputs == tuple(range(n_in, 0, -1))
        for marks in _markings(len(comp.data) - 2):
            ins, outs = marks[:n_in], marks[n_in:]
            # the nodes no rule reads: New below the inputs, Void above them
            marking = [N, *reversed(ins), V, *outs]
            assert [marking[d] for d in op.inputs] == list(ins)
            want = N not in outs and spec(list(ins))
            assert can_fire(comp, 0, marking) == want, (op.kind, ins, outs)
            assert can_fire(comp, op.index, dict(enumerate(marking))) == want, (op.kind, ins, outs)
            if want:
                consumed = _consumes_spec(op, marking)
                assert consumes(comp, 0, marking) == consumed, (op.kind, ins, outs)
                assert consumes(comp, 0, dict(enumerate(marking))) == consumed, (op.kind, ins)


class _RecordingMarking(list):
    """A marking that records each data index it is asked for."""

    def __init__(self, marks):
        super().__init__(marks)
        self.asked = []

    def __getitem__(self, d):
        self.asked.append(d)
        return super().__getitem__(d)


def test_can_fire_returns_as_soon_as_its_answer_is_known():
    comp = build_composition(
        ["i0", "i1", "o0", "o1"],
        [
            ("p", "process", ("i0", "i1"), ("o0",), "add"),
            ("m", "merge", ("i0", "i1"), ("o0",)),
            ("s", "sync", ("i0", "i1"), ("o0", "o1")),
        ],
    )
    p, m, s = comp.operators
    for op, marks, want, read in (
        # a New output: no input is read
        (p, (N, N, N, V), False, []),
        (m, (N, N, N, V), False, []),
        (s, (N, N, N, V), False, []),
        # ready with input 0 Void, any_new with it New, all_new with it Old
        (p, (V, N, V, V), False, [0]),
        (m, (N, V, V, V), True, [0]),
        (s, (O, N, V, V), False, [0]),
    ):
        marking = _RecordingMarking(marks)
        assert can_fire(comp, op.index, marking) == want, (op.kind, marks)
        assert [d for d in marking.asked if d in op.inputs] == read, (op.kind, marks)


def test_a_rule_tag_is_read_in_semantics_alone_and_no_effect_reads_a_marking():
    # Markings are the rule's and values the effect's: outside KINDS, a rule
    # tag appears in src/tokenflow only in a comparison in semantics.py
    # (can_fire and consumes), and no effect in model.py takes the state or
    # reads a marking.
    tags = {"ready", "any_new", "all_new"}
    src = REPO / "src" / "tokenflow"
    found = {}  # file name -> the kinds of node a tag appears in, outside KINDS
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        kinds_table = [
            node.value for node in tree.body
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["KINDS"]
        ]
        in_kinds = {id(n) for table in kinds_table for n in ast.walk(table)}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Constant) and child.value in tags and id(child) not in in_kinds:
                    found.setdefault(path.name, set()).add(type(node).__name__)
    assert found == {"semantics.py": {"Compare"}}

    tree = ast.parse((src / "model.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    effects = {entry.effect.__name__ for entry in KINDS.values()}
    assert len(effects) == len(KINDS) and effects <= set(functions)
    for name in sorted(effects):
        params = [a.arg for a in functions[name].args.args]
        assert params == ["spec", "consumed", "values", "count", "registry"], name
        read = [
            node.lineno for node in ast.walk(functions[name])
            if isinstance(node, ast.Attribute) and node.attr == "marking"
        ]
        assert read == [], f"effect {name} reads a marking at line(s) {read}"
