"""Line-oriented composition documents and trace serialization.

Document grammar, one declaration per line, # starts a comment:

    data <name> [bool|num|text|any]
    op <name> <kind>[:<process>] ( <inputs> ) -> ( <outputs> )
    init <name> = <literal> [old]
    dur <name> = <positive number>

Kinds: process (needs :name), ifelse, merge, sync, incr, lt. Literals are
true, false, decimal numbers, or double-quoted text. init grants a New token
unless suffixed with old. Declaration order of op lines is the scheduler's
scan order.
"""
from __future__ import annotations

import math
import re
from typing import Sequence

from .errors import FlowError, ParseError, TypeMismatch, ValidationError
from .model import (
    NEW,
    OLD,
    Composition,
    ExecutionState,
    TokenState,
    Value,
    admit_seed,
    build_composition,
    check_duration,
    coerce_value,
    initial_state,
)
# The grammar of a number literal, composed into the readers below.
_NUM = r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NUMBER = re.compile(_NUM + "$")
# A double-quoted text literal with backslash escapes. Group "end" holds its
# closing quote and is empty for a literal left open, which runs to the end
# of the line.
_TEXT = r'"[^"\\]*(?:\\.[^"\\]*)*(?P<end>"?)'
_CODE = re.compile(rf'[^"#]*(?:{_TEXT}[^"#]*)*', re.S)  # a line up to its comment
# One regex per declaration, matched once against the line up to its comment.
_OP = re.compile(
    r"\s*op\s+(\S+)\s+([A-Za-z_][\w-]*)(?::(\S+))?\s*"
    r"\(\s*([^()]*)\)\s*->\s*\(\s*([^()]*)\)\s*$"
)
# The literal is a number (group num) when its whole word is one, else text
# or any other word (group lit); the last group holds what follows it.
_INIT = re.compile(
    rf"\s*init\s+(\S+)\s*=\s*(?=\S)(?:(?P<num>{_NUM})(?!\S)|(?P<lit>{_TEXT}|\S*))"
    r"\s*(.*?)\s*$"
)
_DUR = re.compile(r"\s*dur\s+(\S+)\s*=\s*(\S+)\s*$")  # _NUMBER reads the value
# Each declaration's regex, and what a line it does not match is called.
_READERS = {
    "op": (_OP, "bad operator declaration"),
    "init": (_INIT, "bad init line"),
    "dur": (_DUR, "bad dur line"),
}


# Characters str.splitlines breaks lines at that JSON leaves unescaped.
_LINE_BREAKS = str.maketrans({c: f"\\u{ord(c):04x}" for c in "\x85\u2028\u2029"})


def format_value(value: Value) -> str:
    """A value as documents and traces print it.

    A number takes its shortest decimal form, and an integral one below
    1e16 in size prints without a point.
    """
    if isinstance(value, float):  # the common case, tested first
        if value.is_integer() and -1e16 < value < 1e16:
            return str(int(value)) if value or math.copysign(1.0, value) > 0 else "-0"
        return repr(value)
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    import json  # only text needs it, and many runs carry none

    return json.dumps(value, ensure_ascii=False).translate(_LINE_BREAKS)


def parse_literal(token: str) -> Value:
    """The value of one literal; ValueError when the token is none."""
    if token in ("true", "false"):
        return token == "true"
    if _NUMBER.match(token):
        value = float(token)
    elif token.startswith('"'):
        import json

        try:
            value = json.loads(token)
        except ValueError:
            raise ValueError(f"bad text literal {token}") from None
    else:
        raise ValueError(f"bad literal {token!r}")
    try:
        return coerce_value(value)  # refuses lone surrogates, and 1e999
    except TypeMismatch as exc:  # a number is named as written
        raise ValueError(
            f"number {token} is not finite" if type(value) is float else str(exc)
        ) from None


class CompositionDocument:
    """Parsed document: declarations plus seed values and durations.

    parse() checks the grammar only. build() assembles the composition, the
    initial state, and the duration map (operator index -> duration); the
    model's errors there become ParseErrors naming the declaration's line,
    chained to the model's error. Every entry carries the line it came from:
    data_decls and op_decls list (line, declaration) pairs in document
    order, inits maps a data name to (value, old flag, where) and durations
    maps an operator name to (duration, line). The where of an overridden
    seed is the source its override names, or None, and errors about it
    name that instead of a line.
    """

    __slots__ = ("data_decls", "op_decls", "inits", "durations")

    def __init__(self):
        self.data_decls = []
        self.op_decls = []
        self.inits = {}
        self.durations = {}

    @classmethod
    def parse(cls, text: str) -> "CompositionDocument":
        doc = cls()
        data, ops, inits, durations = doc.data_decls, doc.op_decls, doc.inits, doc.durations
        for lineno, raw in enumerate(text.splitlines(), start=1):
            # only a # can start a comment, and a line without one is code
            code = _CODE.match(raw).group() if "#" in raw else raw
            words = code.split()
            if not words:
                continue
            head = words[0]
            if head == "data":
                if not 1 < len(words) < 4:
                    raise ParseError(lineno, f"bad data declaration: {raw.strip()}")
                data.append((lineno, (words[1], words[2] if len(words) == 3 else "any")))
                continue
            if head not in _READERS:
                raise ParseError(lineno, f"unknown declaration {head!r}")
            reader, what = _READERS[head]
            m = reader.match(code)
            if not m:
                raise ParseError(lineno, f"{what}: {raw.strip()}")
            if head == "op":
                name, kind, process, ins, outs = m.groups()
                ins = tuple(map(str.strip, ins.split(","))) if ins else ()
                outs = tuple(map(str.strip, outs.split(","))) if outs else ()
                ops.append((lineno, (name, kind, ins, outs, process)))
            elif head == "init":
                name, num, lit, end, rest = m.groups()
                if name in inits:
                    raise ParseError(lineno, f"duplicate init for {name!r}")
                if end == "":
                    raise ParseError(lineno, "unterminated text literal")
                if rest and rest != "old":
                    raise ParseError(lineno, f"unexpected trailing {rest!r}")
                try:
                    value = parse_literal(lit) if num is None else coerce_value(float(num))
                except TypeMismatch:  # a number beyond binary64, named as written
                    raise ParseError(lineno, f"number {num} is not finite") from None
                except ValueError as exc:
                    raise ParseError(lineno, str(exc)) from None
                inits[name] = (value, rest == "old", lineno)
            else:
                name, token = m.groups()
                value = float(token) if _NUMBER.match(token) else token
                if name in durations:
                    raise ParseError(lineno, f"duplicate dur for {name!r}")
                try:
                    # a number is named as written (1e999, not inf)
                    duration = check_duration(name, value, None if value is token else token)
                except ValidationError as exc:
                    raise ParseError(lineno, str(exc)) from exc
                durations[name] = (duration, lineno)
        return doc

    def override(self, name: str, value: Value, source: str | None = None) -> None:
        """Replace a seed value, keeping its old flag; new entries are New.

        build() admits the value as initial_state admits every seed (see
        model.admit_seed). source says where the value came from, such as a
        command-line argument; build() errors about this seed name it.
        """
        _, old, _ = self.inits.get(name, (None, False, None))
        self.inits[name] = (value, old, source)

    def build(self) -> tuple[Composition, ExecutionState, dict[int, float]]:
        line = None  # where the declaration in hand came from, if known

        def handed(decls):
            nonlocal line
            for line, decl in decls:
                yield decl

        try:
            comp = build_composition(handed(self.data_decls), handed(self.op_decls))
            # a Void state, given each seed as admit_seed admits it
            state = initial_state(comp)
            for name, (value, old, line) in self.inits.items():
                node = comp.data_named(name)
                state.marking[node.index] = OLD if old else NEW
                state.values[node.index] = admit_seed(node, value)
            durs = {}
            for name, (d, line) in self.durations.items():
                durs[comp.operator_named(name).index] = d
        except FlowError as exc:
            if line is None:
                raise
            if isinstance(line, str):
                raise ValidationError(f"{line}: {exc}") from exc
            raise ParseError(line, str(exc)) from exc
        return comp, state, durs


def parse_composition(
    text: str,
) -> tuple[Composition, ExecutionState, dict[int, float]]:
    """Parse a document into (composition, initial state, durations)."""
    return CompositionDocument.parse(text).build()


def format_pairs(pairs) -> str:
    """(name, value) pairs as traces and schedules print them: a=1,b="x"."""
    # Text added to in a loop: for the one or two pairs of a firing, a list
    # and its join, let alone a comprehension's own frame, cost more.
    text = sep = ""
    for name, value in pairs:
        text += f"{sep}{name}={format_value(value)}"
        sep = ","
    return text


def trace_renderer(start: Sequence[tuple[str, TokenState]], keep_writes=None):
    """A function rendering the events of one run, in firing order, as lines.

    start is the marking the run began from, as (data name, marking) pairs
    in declaration order (Trace.start). Each call takes the next event and
    returns its line, newline included:

    step=<n> op=<name> reads={...} writes={...} marking=<name:V|O|N,...>

    reads and writes print as format_pairs prints them. keep_writes, when
    given, receives each line's writes text before the line is returned, so
    that a caller printing it again need not format it twice. The marking
    column is the post-firing marking of every data node, rebuilt over
    start from each event's reads (now Old) and writes (New).

    Each data node has one slot: the value the renderer last printed as
    written to it, and that text. A read whose value is that very object
    reuses the text, with no format_value call; any other read, such as an
    equal value of another type or sign (1.0 after True, -0.0 after 0.0),
    or a seed, is formatted.
    """
    index = {name: d for d, (name, _) in enumerate(start)}  # data name -> index
    # each data node's marking cell, and its cell under an Old and a New token
    cells = [f"{name}:{m.code}" for name, m in start]
    olds, news = ([f"{name}:{m.code}" for name, _ in start] for m in (OLD, NEW))
    held = [None] * len(start)  # each node's slot: a value, and name=its text
    texts = [f"{name}=-" for name, _ in start]
    join = ",".join

    def render(event):
        step, _, name, reads, wrote = event
        read = write = ""
        for node, value in reads:
            d = index[node]
            cells[d] = olds[d]
            text = texts[d] if value is held[d] else f"{node}={format_value(value)}"
            read = f"{read},{text}" if read else text
        for node, value in wrote:
            d = index[node]
            cells[d] = news[d]
            held[d] = value
            texts[d] = text = f"{node}={format_value(value)}"
            write = f"{write},{text}" if write else text
        if keep_writes is not None:
            keep_writes(write)
        return (
            f"step={step} op={name} reads={{{read}}} writes={{{write}}}"
            f" marking={join(cells)}\n"
        )

    return render


def serialize_trace(trace) -> str:
    """One deterministic line per firing of trace, a semantics.Trace; see
    trace_renderer."""
    from .semantics import Trace

    if not trace:
        return ""
    if not isinstance(trace, Trace):
        raise TypeError("serialize_trace needs a Trace, which holds the start marking")
    return "".join(map(trace_renderer(trace.start), trace))
