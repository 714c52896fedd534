"""Pattern builders and their golden document counterparts."""
import pytest

from tokenflow import (
    ValidationError,
    build_ifelse_pattern,
    build_loop_pattern,
    default_registry,
    parse_composition,
)
from conftest import FLOWS, N


def test_branch_pattern_shape():
    pattern = build_ifelse_pattern("add1", "identity")
    comp = pattern.composition
    assert [n.name for n in comp.data] == [f"d{i}" for i in range(7)]
    assert comp.data_named("d0").sort == "bool"
    assert [op.name for op in comp.operators] == ["ifelse", "p1", "p2", "merge"]
    branch = comp.operator_named("ifelse")
    # value rides input 0, the condition input 1
    assert branch.inputs == (1, 0)
    assert branch.outputs == (2, 3)
    assert comp.operator_named("p1").process_name == "add1"
    assert comp.operator_named("p2").process_name == "identity"
    assert pattern.role_map == {"condition": 0, "value": 1, "result": 6}


def test_loop_pattern_shape():
    pattern = build_loop_pattern("add1")
    comp = pattern.composition
    assert len(comp.data) == 10
    assert [op.name for op in comp.operators] == [
        "merge", "sync", "incr", "ifelse", "lt", "p1",
    ]
    assert comp.operator_named("merge").inputs == (3, 8)
    assert comp.operator_named("lt").inputs == (1, 0)  # counter < bound
    assert comp.operator_named("ifelse").inputs == (6, 5)
    assert comp.operator_named("ifelse").outputs == (7, 9)
    assert pattern.role_map == {"loop-bound": 0, "seed": 3, "result": 9}


def test_patterns_check_the_registry_when_given():
    reg = default_registry()
    assert build_ifelse_pattern("add1", "identity", reg)
    assert build_loop_pattern("mul", reg)
    with pytest.raises(ValidationError, match="no process registered under 'missing'"):
        build_ifelse_pattern("add1", "missing", reg)
    with pytest.raises(ValidationError, match="no process registered under 'missing'"):
        build_loop_pattern("missing", reg)
    # without a registry the names are taken on faith
    assert build_loop_pattern("missing").composition


def test_branch_golden_document_matches_builder():
    comp, state, durs = parse_composition(
        (FLOWS / "c0_ifelse.flow").read_text(encoding="utf-8")
    )
    assert comp == build_ifelse_pattern("add1", "identity").composition
    assert durs == {}
    assert state.marking[0] == N and state.values[0] is True
    assert state.marking[1] == N and state.values[1] == 5.0
    assert all(state.marking[i] == 0 for i in range(2, 7))


def test_loop_golden_document_matches_builder():
    comp, state, durs = parse_composition(
        (FLOWS / "c1_loop.flow").read_text(encoding="utf-8")
    )
    assert comp == build_loop_pattern("add1").composition
    assert state.marking[0] == N and state.values[0] == 10.0
    assert state.marking[3] == N and state.values[3] == 0.0
