"""Document parsing, canonical emission, and trace serialization."""
import importlib.util
import json
import math
import re
import sys

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from tokenflow import (
    CompositionDocument,
    FlowError,
    ParseError,
    RunLimits,
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
    simulate_concurrent,
)
from tokenflow import dsl, model
from tokenflow.dsl import _CODE, format_pairs, trace_renderer
from tokenflow.errors import TypeMismatch
from tokenflow.model import SORTS, check_duration, coerce_value
from tokenflow.semantics import TraceEvent
from conftest import FLOWS, N, O, REPO, V, marked_states, small_compositions


# -------------------------------------------------------------- formatting


def test_format_number():
    assert format_value(2.0) == "2"
    assert format_value(-7.0) == "-7"
    assert format_value(1.5) == "1.5"
    assert format_value(0.0) == "0"
    assert format_value(-0.0) == "-0"
    assert format_value(1e16) == "1e+16"


def _format_number_rule(x: float) -> str | None:
    """The rule format_value prints a number by, written plainly; None for
    inf and nan, which it refuses, as no literal reads them back."""
    if not math.isfinite(x):
        return None
    if x == int(x) and abs(x) < 1e16:
        return str(int(x)) if x or math.copysign(1.0, x) > 0 else "-0"
    return repr(x)


_EDGES = [
    0.0, 2.0**53, 2.0**53 - 1, 2.0**53 + 2, 5e-324, 2.2250738585072014e-308, 1e-310,
    1e-300, 1e16, 1e16 - 1, 1e16 + 1, 1e16 - 2, math.nextafter(1e16, 0),
    math.nextafter(1e16, math.inf), 9999999999999998.0, 0.5, 1.5, 1e300, 1e308,
    math.inf, math.nan,
]


@settings(max_examples=500)
@given(x=st.floats())
def test_format_number_follows_its_rule(x):
    # format_value prints a number by the rule, or refuses it as
    # coerce_value does
    for v in (x, *_EDGES, *(-e for e in _EDGES)):
        want = _format_number_rule(v)
        if want is None:
            with pytest.raises(TypeMismatch, match=f"^number {re.escape(repr(v))} is not finite$"):
                format_value(v)
        else:
            assert format_value(v) == want, v


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
    # a state built by hand may hold a number no literal reads back: the
    # document is refused, not written for its own parser to refuse
    comp = build_composition(["x"], [])
    with pytest.raises(TypeMismatch, match="^number inf is not finite$"):
        emit_composition(comp, model.ExecutionState([N], [math.inf], []))
    # any other value prints as coerce_value stores it, or is refused as it
    assert format_value(3) == "3" and format_value(-0) == "0"
    assert format_value(2**53 + 1) == "9007199254740992"
    for bad, message in (
        ([1.0], "unsupported value type 'list'"),
        (b"x", "unsupported value type 'bytes'"),
        (10**400, "number inf is not finite"),
        (math.inf, "number inf is not finite"),
        (-math.inf, "number -inf is not finite"),
        (math.nan, "number nan is not finite"),
        ("\ud800", "text '\\ud800' holds a lone surrogate, which UTF-8 cannot encode"),
        ("a\udfffb", "text 'a\\udfffb' holds a lone surrogate, which UTF-8 cannot encode"),
    ):
        with pytest.raises(TypeMismatch, match=f"^{re.escape(message)}$"):
            format_value(bad)


# Text literals are JSON strings, read and written without the json module;
# json, imported here only, is the oracle. Characters are drawn from every
# code point, lone surrogates included, and from those JSON escapes.
_JSON_LINE_BREAKS = str.maketrans({c: f"\\u{ord(c):04x}" for c in "\x85\u2028\u2029"})
_TEXT_CHARS = st.characters(exclude_categories=()) | st.sampled_from(
    '"\\/\b\f\n\r\t\x00\x1f\x7f\x85\xa0\u2028\u2029\ufeffé😀'
)
# Pieces of a literal's body: escapes JSON has and ones it has not, with
# surrogate pairs that are and are not whole, and characters it refuses raw.
_ESCAPE_PIECES = st.sampled_from([
    '\\"', "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u00e9", "\\u00C9",
    "\\ud83d", "\\ude00", "\\uD83D", "\\uDE00", "\\udbff", "\\udfff", "\\u0000",
    "\\u001f", "\\u2028", "\\ufeff", "\\x", "\\u12", "\\uZZZZ", "\\U0041", "\\", '"',
    "\t", "\x00", "\x7f", "\ud83d", "\ude00", "a", " ", "é", "😀",
])


def _json_literal(token):
    """What parse_literal makes of a quoted token, as json reads it."""
    try:
        value = json.loads(token)
    except ValueError:
        return ValueError, f"bad text literal {token}"
    try:
        return coerce_value(value)
    except TypeMismatch as exc:
        return ValueError, str(exc)


def _literal(token):
    try:
        return dsl.parse_literal(token)
    except ValueError as exc:
        return ValueError, str(exc)


@settings(max_examples=500)
@given(text=st.text(_TEXT_CHARS))
@example(text="".join(map(chr, range(0x21))) + '"\\\x7f\x85\u2028\u2029')
def test_text_prints_as_json_writes_it_with_every_line_break_escaped(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate: no output could carry it
        message = f"text {text!r} holds a lone surrogate, which UTF-8 cannot encode"
        with pytest.raises(TypeMismatch, match=f"^{re.escape(message)}$"):
            format_value(text)
        return
    want = json.dumps(text, ensure_ascii=False).translate(_JSON_LINE_BREAKS)
    assert format_value(text) == want


@settings(max_examples=500)
@given(
    text=st.text(_TEXT_CHARS),
    pieces=st.lists(_ESCAPE_PIECES | _TEXT_CHARS, max_size=8),
    open_end=st.booleans(),
)
@example(text="", pieces=["\\ud83d", "\\ude00"], open_end=False)
@example(text="", pieces=["\\ud83d", "\ude00"], open_end=False)
@example(text="", pieces=["\ud83d", "\\ude00"], open_end=False)
@example(text="", pieces=["\\ud83d", "\\u0041"], open_end=False)
@example(text="", pieces=["\\"], open_end=False)
@example(text="", pieces=[], open_end=True)
def test_a_text_literal_reads_as_json_reads_it(text, pieces, open_end):
    # Quoted and escaped forms of drawn text, and bodies made of pieces,
    # each with and without its closing quote; parse_literal must give the
    # value json.loads and coerce_value give, or the same error.
    body = "".join(pieces)
    for token in (
        json.dumps(text),
        json.dumps(text, ensure_ascii=False),
        f'"{text}"',
        f'"{body}"',
        f'"{body}' if open_end else f'"{text}{body}"',
    ):
        assert _literal(token) == _json_literal(token), token


def _joined(pairs):
    return ",".join(f"{name}={format_value(value)}" for name, value in pairs)


# The marking column as a join of every node's cell, rebuilt for each line:
# what trace_renderer's column updated in place must print.
def _joined_lines(trace):
    marking = dict(trace.start)
    for event in trace:
        marking.update((node, O) for node, _ in event.reads)
        marking.update((node, N) for node, _ in event.writes)
        cells = ",".join(f"{name}:{m.code}" for name, m in marking.items())
        yield (
            f"step={event.step} op={event.op_name} reads={{{_joined(event.reads)}}}"
            f" writes={{{_joined(event.writes)}}} marking={cells}\n"
        )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_trace_lines_equal_a_renderer_that_joins_every_cell(data):
    # Data names of one to four UTF-8 bytes a letter, so that the byte
    # offsets of the column differ from the character offsets.
    comp = data.draw(small_compositions(max_data=8, max_ops=6))
    prefix = "".join(data.draw(st.lists(st.sampled_from(["d", "é", "名", "𝔡"]), max_size=3)))
    names = [f"d{prefix}{n.name}" for n in comp.data]
    comp = build_composition(
        [(name, n.sort) for name, n in zip(names, comp.data)],
        [
            (
                op.name, op.kind, tuple(names[i] for i in op.inputs),
                tuple(names[i] for i in op.outputs), op.process_name,
            )
            for op in comp.operators
        ],
    )
    state = data.draw(marked_states(comp, with_text=True))
    registry, limits = default_registry(), RunLimits(40)
    for processor in (
        lambda: run_to_convergence(comp, state, registry, limits),
        lambda: simulate_concurrent(comp, state, registry, None, limits)[0],
    ):
        try:
            trace = processor().trace
        except FlowError as exc:  # a firing failed: the lines up to it
            trace = exc.result.trace
        kept = []
        render = trace_renderer(trace.start, kept.append)
        assert [render(event) for event in trace] == list(_joined_lines(trace))
        assert kept == [format_pairs(event.writes) for event in trace]


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
    assert doc.inits["t"] == ('a#b "quoted"', True, 5)
    assert doc.inits["f"] == (False, False, 6)
    assert doc.inits["x"] == (-1500.0, False, 7)
    assert doc.inits["y"] == (0.5, False, 8)
    assert doc.inits["h"] == ("x # y", False, 11)
    assert doc.inits["q"] == ('"#', False, 12)


def test_a_number_or_a_boolean_literal_is_exactly_its_token():
    # white space around the token is refused, a final line break included
    for token in ("5\n", "5 ", " 5", "-1.5e3\n", "true\n", "false "):
        with pytest.raises(ValueError, match="^bad literal "):
            dsl.parse_literal(token)
    # text follows JSON: white space may follow its closing quote
    assert dsl.parse_literal('"a" \n') == "a"


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
        CompositionDocument.parse('data t\ninit t = "\\q"\n')
    assert exc.value.line == 2 and str(exc.value) == 'line 2: bad text literal "\\q"'
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse("init a = maybe\n")
    assert "bad literal" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse("data a num\ninit a = -1e999\n")
    # a number is named as written, not as the float it would be stored as
    assert str(exc.value) == "line 2: number -1e999 is not finite"
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse("data a\ndur x = -1\n")
    assert str(exc.value) == "line 2: operator 'x': duration -1 is not a positive finite number"
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse("data a\ndur x = 1e999\n")
    assert str(exc.value) == (
        "line 2: operator 'x': duration 1e999 is not a positive finite number"
    )
    with pytest.raises(ParseError) as exc:
        CompositionDocument.parse("data a\ndur x = 0.0e5\n")
    assert str(exc.value) == (
        "line 2: operator 'x': duration 0.0e5 is not a positive finite number"
    )
    with pytest.raises(ParseError) as exc:  # a word is named by its repr
        CompositionDocument.parse("data a\ndur x = 5x\n")
    assert str(exc.value) == (
        "line 2: operator 'x': duration '5x' is not a positive finite number"
    )
    with pytest.raises(ValueError, match=r"^number 1E\+999 is not finite$"):
        dsl.parse_literal("1E+999")
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
    assert doc.inits["t"] == ("\U0001f600", False, 2)


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
    assert doc.inits["a"] == (9.0, True, None)
    assert doc.inits["b"] == (2.0, False, None)
    _, state, _ = doc.build()
    assert state.marking[0] == O and state.values[0] == 9.0
    assert state.marking[1] == N
    # an override with no source leaves the model's error as it is
    doc.override("zz", 1.0)
    with pytest.raises(ValidationError) as exc:
        doc.build()
    assert type(exc.value) is ValidationError
    assert str(exc.value) == "no data node named 'zz'"


class _Text(str):
    """A str subclass; a data node stores it as a plain str."""


# Every kind of value a caller may hand in as a seed, storable or not.
_SEEDS = (
    st.integers()
    | st.floats()
    | st.booleans()
    | st.text(st.characters(exclude_categories=()), max_size=4)
    | st.text(st.characters(categories=["Cs"]), min_size=1, max_size=2)
    | st.text(max_size=4).map(_Text)
    | st.none()
    | st.lists(st.floats(0, 1), max_size=2)
)


@settings(max_examples=300, deadline=None)
@given(value=_SEEDS)
@example(value=5)
@example(value=10**400)
@example(value=-0.0)
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value="\ud800")
@example(value=_Text("t"))
@example(value=None)
@example(value=[1.0])
def test_a_document_override_admits_a_seed_as_initial_state_does(value):
    # Both store an equal value of the same exact type, or both refuse it
    # with the same message, the document's naming the override's source.
    for sort in SORTS:
        comp = build_composition([("x", sort)], [])
        doc = CompositionDocument.parse(f"data x {sort}\n")
        doc.override("x", value, "src")
        try:
            want = initial_state(comp, {0: N}, {0: value}).values[0]
        except FlowError as exc:
            with pytest.raises(ValidationError) as got:
                doc.build()
            assert str(got.value) == f"src: {exc}", sort
            assert type(got.value.__cause__) is type(exc), sort
        else:
            assert type(want) in (bool, float, str), sort
            got = doc.build()[1].values[0]
            assert (type(got), repr(got)) == (type(want), repr(want)), sort


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


# Whitespace that may or must stand between tokens, and trailing comments
# holding the characters that open text literals and comments.
_GAP = st.text(" \t", max_size=3)
_SPACE = st.text(" \t", min_size=1, max_size=3)
_COMMENT = st.text('#" \\a\t', max_size=8).map("#".__add__)


def _decorated(draw, text: str) -> str:
    """text with spaces and tabs around its tokens, blank and comment lines,
    trailing comments and CRLF line ends; text literals are left whole."""
    lines = []
    for line in text.splitlines():
        literal = ""
        if line.startswith("init "):
            line, literal = line.split(" = ", 1)
            line += " = "
            if literal.endswith(" old"):
                literal = literal[:-4] + draw(_SPACE) + "old"
        line = re.sub("[(),]", lambda m: draw(_GAP) + m.group() + draw(_GAP), line)
        line = re.sub(" ", lambda m: draw(_SPACE), line)
        line = draw(_GAP) + line + literal + draw(_GAP)
        if draw(st.booleans()):
            line += draw(_COMMENT)
        lines += draw(st.lists(_GAP | _COMMENT, max_size=2))
        lines.append(line)
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


@settings(deadline=None)
@given(data=st.data())
def test_formatting_does_not_change_what_a_document_means(data):
    comp = data.draw(small_compositions())
    state = data.draw(marked_states(comp, with_text=True))
    values = {  # some text seeds hold the characters comments are found by
        i: data.draw(st.text('#" \\a', max_size=5) | st.just(v)) if isinstance(v, str) else v
        for i, v in enumerate(state.values)
    }
    state = initial_state(comp, dict(enumerate(state.marking)), values)
    durations = data.draw(
        st.dictionaries(st.integers(0, len(comp.operators) - 1), st.floats(0.5, 9.5))
    )
    text = emit_composition(comp, state, durations)
    assert parse_composition(_decorated(data.draw, text)) == (comp, state, durations)


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


# The line readers as they were before each became one regex: the
# specification CompositionDocument.parse is held to, line for line.
_OLD_NUMBER = re.compile(r"-?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_OLD_OP = re.compile(
    r"op\s+(\S+)\s+([A-Za-z_][\w-]*)(?::(\S+))?\s*"
    r"\(\s*([^()]*?)\s*\)\s*->\s*\(\s*([^()]*?)\s*\)\s*$"
)
_OLD_INIT = re.compile(r"init\s+(\S+)\s*=\s*(.+?)\s*$")
_OLD_DUR = re.compile(r"dur\s+(\S+)\s*=\s*(\S+)\s*$")
_OLD_LITERAL = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*(?P<end>"?)|\S*', re.S)


def _old_literal(token):
    if token in ("true", "false"):
        return token == "true"
    if _OLD_NUMBER.match(token):
        value = float(token)
    elif token.startswith('"'):
        try:
            value = json.loads(token)
        except ValueError:
            raise ValueError(f"bad text literal {token}") from None
    else:
        raise ValueError(f"bad literal {token!r}")
    try:
        return coerce_value(value)
    except TypeMismatch as exc:  # a number is named as written: 1e999, not inf
        if isinstance(value, float):
            raise ValueError(f"number {token} is not finite") from None
        raise ValueError(str(exc)) from None


def _old_parse(text):
    doc = CompositionDocument()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = _CODE.match(raw).group()
        words = code.split()
        if not words:
            continue
        head = words[0]
        if head == "data":
            if not 1 < len(words) < 4:
                raise ParseError(lineno, f"bad data declaration: {raw.strip()}")
            doc.data_decls.append((lineno, (words[1], words[2] if len(words) == 3 else "any")))
        elif head == "op":
            m = _OLD_OP.match(code.strip())
            if not m:
                raise ParseError(lineno, f"bad operator declaration: {raw.strip()}")
            name, kind, process, ins, outs = m.groups()
            ins = tuple(map(str.strip, ins.split(","))) if ins else ()
            outs = tuple(map(str.strip, outs.split(","))) if outs else ()
            doc.op_decls.append((lineno, (name, kind, ins, outs, process)))
        elif head == "init":
            m = _OLD_INIT.match(code.strip())
            if not m:
                raise ParseError(lineno, f"bad init line: {raw.strip()}")
            name, rhs = m.groups()
            if name in doc.inits:
                raise ParseError(lineno, f"duplicate init for {name!r}")
            m = _OLD_LITERAL.match(rhs)
            if m["end"] == "":
                raise ParseError(lineno, "unterminated text literal")
            rest = rhs[m.end() :].strip()
            if rest and rest != "old":
                raise ParseError(lineno, f"unexpected trailing {rest!r}")
            try:
                doc.inits[name] = (_old_literal(m.group()), rest == "old", lineno)
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
        elif head == "dur":
            m = _OLD_DUR.match(code.strip())
            if not m:
                raise ParseError(lineno, f"bad dur line: {raw.strip()}")
            name, token = m.groups()
            if name in doc.durations:
                raise ParseError(lineno, f"duplicate dur for {name!r}")
            number = _OLD_NUMBER.match(token)
            try:
                duration = check_duration(name, float(token) if number else token)
            except ValidationError as exc:
                message = str(exc)
                if number:  # a number is named as written: 1e999, not inf
                    message = (
                        f"operator {name!r}: duration {token} is not a positive finite number"
                    )
                raise ParseError(lineno, message) from exc
            doc.durations[name] = (duration, lineno)
        else:
            raise ParseError(lineno, f"unknown declaration {head!r}")
    return doc


def _reading(parse, text):
    """What parse makes of text: its declarations, or its error and line."""
    try:
        doc = parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line
    # repr tells -0.0 from 0.0 and 1.0 from True
    return repr((doc.data_decls, doc.op_decls, doc.inits, doc.durations))


# Line text: names, the grammar's punctuation, number and text literal
# characters, and ASCII and Unicode whitespace; \x1c to \x1e also end a line.
_PIECES = st.sampled_from(
    ["a", "x", "d", "incr", "process", "add", "old", "true", "e", "E", "->", "1e999"]
    + list(':(),="\\#0123456789.-+_')
    + [" ", " ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\u00a0", "\u2003"]
)
_BITS = st.lists(_PIECES, max_size=3).map("".join)
_SEP = st.text(" \t\x1f\u00a0\u2003", min_size=1, max_size=2) | _BITS  # mostly a gap
# Free text after a declaration word, or text around the grammar's own
# words, so that lines just inside and just outside the grammar are drawn.
_SHAPES = [
    ("op ", _BITS, _BITS), ("init ", _BITS, _BITS), ("dur ", _BITS, _BITS), ("", _BITS),
    ("op", _SEP, "a", _SEP, "incr", _BITS, "(", _BITS, ")", _BITS, "->", _BITS, "(", _BITS, ")", _BITS),
    ("op", _SEP, "a", _SEP, "process:", _BITS, "(", _BITS, ")", _SEP, "->", _SEP, "(d)", _BITS),
    ("init", _SEP, "x", _BITS, "=", _BITS, _SEP, _BITS),
    ("init", _SEP, "x", _SEP, "=", _SEP, '"', _BITS, '"', _BITS, _SEP, _BITS),
    ("dur", _SEP, "a", _BITS, "=", _BITS, _SEP, _BITS),
]
_LINES = st.sampled_from(_SHAPES).flatmap(
    lambda shape: st.tuples(*(st.just(p) if isinstance(p, str) else p for p in shape)).map("".join)
)


@settings(max_examples=500, deadline=None)
@given(lines=st.lists(_LINES, min_size=1, max_size=3))
@example(lines=["init x=1"])
@example(lines=["init x==1"])
@example(lines=["op a incr()->(d)"])
@example(lines=["op a incr (,) -> (d)"])
@example(lines=["dur a=2"])
@example(lines=["dur a = 0x10"])
@example(lines=["init x = 1_0"])
@example(lines=['init x = "a b" old'])
@example(lines=["op a process:f(x)->(y) (a) -> (b)"])
@example(lines=["op b process:f(x) () -> (d)"])
@example(lines=["op a incr () -> (d) x"])
@example(lines=["init x = 1e999"])
@example(lines=["init y = -.5e+3 old"])
@example(lines=["init x =  "])
@example(lines=['init t = "open # \\'])
@example(lines=['init t = "a"b old'])
@example(lines=["init x = 1", "init x = 2"])
@example(lines=["dur a = 1e999"])
@example(lines=["dur a =", "dur a = 1 2"])
@example(lines=["dur a = 1 2"])
def test_line_readers_agree_with_the_old_regexes(lines):
    text = "\n".join(lines)
    assert _reading(CompositionDocument.parse, text) == _reading(_old_parse, text)


def test_a_document_admits_each_seed_once(monkeypatch):
    # Cost gate: build admits every seed as it stores it, and initial_state
    # is not handed the seeds to admit them again.
    spec = importlib.util.spec_from_file_location("bench_gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclass looks itself up
    spec.loader.exec_module(gen)
    calls = 0
    real_admit_seed = model.admit_seed

    def counting_admit_seed(*args):
        nonlocal calls
        calls += 1
        return real_admit_seed(*args)

    for module in (model, dsl):
        monkeypatch.setattr(module, "admit_seed", counting_admit_seed)
    comp, state, _ = parse_composition(gen.tree("tree", 1, 8).text)
    assert sum(1 for mark in state.marking if mark) == 256
    assert calls == 256
    # initial_state, called on its own, admits each of its seeds once too
    calls = 0
    assert initial_state(comp, state.marking, state.values) == state
    assert calls == 256


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
    # events carry what each firing read and wrote only: without its start
    # marking a list of them cannot be printed
    with pytest.raises(TypeError):
        serialize_trace(list(result.trace))


# ---------------------------------------------------------- equal values


def _line_prefix(event) -> str:
    """A trace line up to its marking column, built from format_pairs."""
    return (
        f"step={event.step} op={event.op_name} reads={{{format_pairs(event.reads)}}}"
        f" writes={{{format_pairs(event.writes)}}} marking="
    )


def test_trace_lines_print_equal_values_by_their_own_text():
    # Events as a run of p (writing a and b) and q (reading a) would make
    # them. Each pair of values below is equal but prints differently, and
    # the second is a fresh object, so a renderer that reused text by value
    # would print it as the first.
    start = (("a", V), ("b", V))
    neg, pos = -0.0, float("0")
    one = 1.0 + 0.0
    shared = 2.5 + 0.0  # one object, written to two nodes
    events, step = [], 0
    for first, second in ((neg, pos), (True, one), (shared, shared)):
        events.append(TraceEvent(step, 0, "p", (), (("a", first), ("b", second))))
        events.append(TraceEvent(step + 1, 1, "q", (("a", first),), ()))
        events.append(TraceEvent(step + 2, 1, "q", (("b", second),), ()))
        step += 3
    render = trace_renderer(start)
    lines = [render(event) for event in events]
    for event, line in zip(events, lines):
        assert line.startswith(_line_prefix(event)), line
    assert lines[0].startswith("step=0 op=p reads={} writes={a=-0,b=0} ")
    assert lines[2].startswith("step=2 op=q reads={b=0} ")
    assert lines[3].startswith("step=3 op=p reads={} writes={a=true,b=1} ")
    assert lines[5].startswith("step=5 op=q reads={b=1} ")
    assert lines[6].startswith("step=6 op=p reads={} writes={a=2.5,b=2.5} ")
    # The writes text handed to keep_writes is the one each line holds.
    kept = []
    again = trace_renderer(start, kept.append)
    assert [again(event) for event in events] == lines
    assert kept == [format_pairs(event.writes) for event in events]
    assert kept[0] == "a=-0,b=0"


@pytest.mark.parametrize(
    "written, read, text", [(True, 1.0, "true"), (0.0, -0.0, "0")]
)
def test_a_node_read_as_an_equal_value_prints_the_value_read(written, read, text):
    # a is written one value, then read back as an equal value that prints
    # differently (True == 1.0, 0.0 == -0.0). Every line must print each
    # event's own values, whatever was written to the node before.
    start = (("a", V), ("b", V))
    events = [
        TraceEvent(0, 0, "p", (), (("a", written),)),
        TraceEvent(1, 1, "q", (("a", read),), (("b", written),)),
        TraceEvent(2, 2, "r", (("b", written),), (("a", read),)),
        TraceEvent(3, 1, "q", (("a", written),), (("b", read),)),
    ]
    render = trace_renderer(start)
    lines = [render(event) for event in events]
    for event, line in zip(events, lines):
        assert line.startswith(_line_prefix(event)), line
    assert lines[0] == f"step=0 op=p reads={{}} writes={{a={text}}} marking=a:N,b:V\n"
    assert lines[1].startswith(f"step=1 op=q reads={{a={format_value(read)}}} ")
    assert lines[3].startswith(f"step=3 op=q reads={{a={text}}} ")
