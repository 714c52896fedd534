"""Document parsing, canonical emission, and trace serialization."""
import math
import re

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from tokenflow import (
    CompositionDocument,
    FlowError,
    ParseError,
    TokenState,
    ValidationError,
    build_composition,
    default_registry,
    emit_composition,
    format_value,
    initial_state,
    parse_composition,
    run_to_convergence,
    serialize_trace,
)
from tokenflow.dsl import format_number
from conftest import FLOWS, N, O, V, marked_states, small_compositions


# -------------------------------------------------------------- formatting


def test_format_number():
    assert format_number(2.0) == "2"
    assert format_number(-7.0) == "-7"
    assert format_number(1.5) == "1.5"
    assert format_number(0.0) == "0"
    assert format_number(-0.0) == "-0"
    assert format_number(1e16) == "1e+16"
    assert format_number(float("inf")) == "inf"


def test_format_value():
    assert format_value(None) == "-"
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(5.0) == "5"
    assert format_value('say "hi"') == '"say \\"hi\\""'
    # every character str.splitlines breaks at is escaped, so text round-trips
    text = "a\x85b\u2028c\u2029d\ne"
    assert format_value(text) == '"a\\u0085b\\u2028c\\u2029d\\ne"'
    comp = build_composition([("t", "text")], [])
    state = initial_state(comp, {0: N}, {0: text})
    assert parse_composition(emit_composition(comp, state))[1] == state


# ----------------------------------------------------------------- parsing


def test_parse_full_document():
    comp, state, durs = parse_composition(
        """
        # counting rig
        data a num
        data b            # defaults to any
        op inc incr () -> (a)
        op eat process:identity (a) -> (b)
        init a = 3 old
        dur eat = 2.5
        """
    )
    assert [n.sort for n in comp.data] == ["num", "any"]
    assert comp.operator_named("eat").process_name == "identity"
    assert state.marking[0] == O and state.values[0] == 3.0
    assert durs == {1: 2.5}


def test_parse_literal_forms():
    doc = CompositionDocument.parse(
        'data t text\n'
        'data f bool\n'
        'data x num\n'
        'data y num\n'
        'init t = "a#b \\"quoted\\"" old\n'
        'init f = false\n'
        'init x = -1.5e3\n'
        'init y = .5\n'
        'data h text\n'
        'data q text\n'
        'init h = "x # y"  # a comment after a # inside text\n'
        'init q = "\\"#"  # an escaped quote before a #\n'
    )
    assert doc.inits["t"] == ('a#b "quoted"', True)
    assert doc.inits["f"] == (False, False)
    assert doc.inits["x"] == (-1500.0, False)
    assert doc.inits["y"] == (0.5, False)
    assert doc.inits["h"] == ("x # y", False)
    assert doc.inits["q"] == ('"#', False)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse("data a\n\ninit a =\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse("data a\ninit a = 5 extra\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse('init t = "unterminated\n')
    assert exc.value.line == 1
    # a literal left open runs to the end of the line, past a # or a backslash
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse('data t\ninit t = "open # not a comment\n')
    assert exc.value.line == 2 and "unterminated text literal" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse('data t\ninit t = "open\\\n')
    assert exc.value.line == 2 and "unterminated text literal" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse('data t\ninit t = "a"b old\n')
    assert exc.value.line == 2 and "unexpected trailing 'b old'" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse("init a = maybe\n")
    assert "bad literal" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse("data a num\ninit a = -1e999\n")
    assert exc.value.line == 2 and "not finite" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse("data a\ndur x = -1\n")
    assert "positive" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse("data a\ndur x = 1e999\n")
    assert "positive" in str(exc.value)
    # faults in names, sorts and kinds are found when the document is built
    with pytest.raises(ParseError):
        parse_composition("data a weird\n")
    with pytest.raises(ParseError):
        parse_composition("data a\nop x process () -> (a)\n")
    with pytest.raises(ParseError):
        parse_composition("data a\nop x lt:foo (a, a) -> (a)\n")
    with pytest.raises(ParseError):
        CompositionDocument.parse("bogus stuff\n")
    with pytest.raises(ParseError):
        parse_composition("data a\nop x incr (a b) -> (a)\n")
    with pytest.raises(ParseError) as exc:
        parse_composition("data a\nop x process:f(x) () -> (a)\n")
    assert exc.value.line == 2 and "bad process name" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse('data t\n\ninit t = "ok\\ud800"\n')
    assert exc.value.line == 3 and "lone surrogate" in str(exc.value)
    # an escaped surrogate pair is one code point, not a lone surrogate
    doc = CompositionDocument.parse('data t\ninit t = "\\ud83d\\ude00"\n')
    assert doc.inits["t"] == ("\U0001f600", False)


def test_parse_unknown_kind():
    with pytest.raises(ParseError) as exc:
        parse_composition("data a\nop x frob () -> (a)\n")
    assert exc.value.line == 2
    cause = exc.value.__cause__
    assert isinstance(cause, ValidationError)
    assert str(cause) == "operator 'x': unknown kind 'frob'"


def test_parse_duplicate_init_and_dur():
    with pytest.raises(ParseError, match="^line 3: duplicate init for 'a'$") as exc:
        CompositionDocument.parse("data a\ninit a = 1\ninit a = 2\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError, match="^line 4: duplicate dur for 'i'$") as exc:
        CompositionDocument.parse(
            "data a\nop i incr () -> (a)\ndur i = 1\ndur i = 2\n"
        )
    assert exc.value.line == 4


def test_build_rejects_unknown_names():
    with pytest.raises(ParseError) as exc:
        parse_composition("data a\ndata a\n")
    assert exc.value.line == 2
    assert isinstance(exc.value.__cause__, ValidationError)
    assert str(exc.value.__cause__) == "data name 'a' declared twice"
    with pytest.raises(ParseError) as exc:
        parse_composition("data a\ninit ghost = 1\n")
    assert exc.value.line == 2
    assert isinstance(exc.value.__cause__, ValidationError)
    assert str(exc.value.__cause__) == "no data node named 'ghost'"
    with pytest.raises(ParseError) as exc:
        parse_composition("data a\nop i incr () -> (a)\ndur ghost = 1\n")
    assert exc.value.line == 3
    assert isinstance(exc.value.__cause__, ValidationError)


def test_override_keeps_the_old_flag():
    doc = CompositionDocument.parse("data a\ndata b\ninit a = 1 old\n")
    doc.override("a", 9.0)
    doc.override("b", 2.0)
    assert doc.inits["a"] == (9.0, True)
    assert doc.inits["b"] == (2.0, False)
    _, state, _ = doc.build()
    assert state.marking[0] == O and state.values[0] == 9.0
    assert state.marking[1] == N


# ---------------------------------------------------------------- emission


def test_emit_is_canonical():
    comp = build_composition(
        [("a", "num"), "b"],
        [
            ("inc", "incr", (), ("a",)),
            ("eat", "process", ("a",), ("b",), "identity"),
        ],
    )
    state = initial_state(comp, {0: O}, {0: 3.0})
    text = emit_composition(comp, state, {1: 2.5})
    assert text == (
        "data a num\n"
        "data b any\n"
        "op inc incr () -> (a)\n"
        "op eat process:identity (a) -> (b)\n"
        "init a = 3 old\n"
        "dur eat = 2.5\n"
    )


def test_emit_reproduces_the_golden_documents():
    for name in ("c0_ifelse.flow", "c1_loop.flow"):
        text = (FLOWS / name).read_text(encoding="utf-8")
        comp, state, durs = parse_composition(text)
        assert emit_composition(comp, state, durs) == text


@settings(deadline=None)
@given(data=st.data())
def test_emit_parse_round_trip(data):
    comp = data.draw(small_compositions())
    state = data.draw(marked_states(comp, with_text=True))
    text = emit_composition(comp, state)
    comp2, state2, durs2 = parse_composition(text)
    assert comp2 == comp
    assert state2 == state
    assert durs2 == {}
    # emitting again is a fixed point
    assert emit_composition(comp2, state2) == text


def _same_number(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=-0.0)
@example(x=1e16)
@example(x=5e-324)
def test_numbers_round_trip_through_documents_and_traces(x):
    comp = build_composition(
        [("a", "num"), ("b", "num")],
        [("p", "process", ("a",), ("b",), "identity")],
    )
    text = emit_composition(comp, initial_state(comp, {0: N}, {0: x}))
    _, state, _ = parse_composition(text)
    assert _same_number(state.values[0], x)
    trace = serialize_trace(run_to_convergence(comp, state, default_registry()).trace)
    written = re.fullmatch(r"step=0 op=p reads=\{a=(\S+)\} writes=\{b=(\S+)\} .*\n", trace)
    assert _same_number(float(written.group(1)), x)
    assert _same_number(float(written.group(2)), x)


@settings(deadline=None)
@given(text=st.text(max_size=200))
def test_parse_rejects_garbage_with_flow_errors(text):
    try:
        CompositionDocument.parse(text)
    except FlowError:
        pass


# ------------------------------------------------------------------ traces


def test_serialize_trace_line_shape():
    comp, state, _ = parse_composition(
        "data a num\ndata b any\n"
        "op inc incr () -> (a)\n"
        "op eat process:identity (a) -> (b)\n"
    )
    result = run_to_convergence(comp, state, default_registry())
    lines = serialize_trace(result.trace).splitlines()
    assert lines[0] == "step=0 op=inc reads={} writes={a=1} marking=a:N,b:V"
    assert lines[1] == "step=1 op=eat reads={a=1} writes={b=1} marking=a:O,b:N"
    assert serialize_trace([]) == ""
    # events carry marking deltas only: without its start marking a list of
    # them cannot be printed
    with pytest.raises(TypeError):
        serialize_trace(list(result.trace))
