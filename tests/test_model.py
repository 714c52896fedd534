"""Structure building, validation, graph views, and state construction."""
import pytest

from tokenflow import (
    TokenState,
    TypeMismatch,
    ValidationError,
    build_composition,
    build_ifelse_pattern,
    initial_state,
    neighborhood,
)
from tokenflow.model import coerce_value, value_sort
from tokenflow.sequential import enabled_set

from conftest import N, O, V, branch_structure, state_of


def test_token_state_codes():
    assert TokenState.VOID.code == "V"
    assert TokenState.OLD.code == "O"
    assert TokenState.NEW.code == "N"
    assert int(TokenState.VOID) == 0
    assert int(TokenState.OLD) == 1
    assert int(TokenState.NEW) == 2


def test_value_sorts():
    assert value_sort(True) == "bool"
    assert value_sort(3.0) == "num"
    assert value_sort("hi") == "text"
    assert value_sort(None) is None
    with pytest.raises(TypeMismatch):
        value_sort(object())


def test_coerce_value_normalizes_ints():
    assert coerce_value(5) == 5.0
    assert isinstance(coerce_value(5), float)
    assert coerce_value(True) is True
    assert coerce_value(None) is None
    assert coerce_value("t") == "t"


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


def test_neighborhood_is_inputs_and_outputs():
    comp = branch_structure()
    assert neighborhood(comp, comp.operator_named("op0")) == frozenset({0, 1, 2, 3})
    assert neighborhood(comp, 1) == frozenset({2, 4})


def test_initial_state_defaults_to_void():
    comp = branch_structure()
    state = initial_state(comp, {}, {})
    assert all(m == V for m in state.marking.values())
    assert all(v is None for v in state.values.values())
    assert state.step == 0
    assert state.scan_start == 0
    assert enabled_set(comp, state) == []
    assert state.exec_counts == {0: 0, 1: 0, 2: 0, 3: 0}


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


def test_initial_state_rejects_bad_index():
    comp = branch_structure()
    with pytest.raises(ValidationError, match="no data node with index 99"):
        initial_state(comp, {99: N}, {99: 1.0})


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
    clone.marking[0] = V
    clone.values[0] = None
    clone.exec_counts[0] = 7
    assert state.marking[0] == N
    assert state.values[0] is True
    assert state.exec_counts[0] == 0
