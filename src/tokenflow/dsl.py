"""Line-oriented composition documents and trace serialization.

Document grammar, one declaration per line, # starts a comment:

    data <name> [bool|num|text|any]
    op <name> <kind>[:<process>] ( <inputs> ) -> ( <outputs> )
    init <name> = <literal> [old]
    dur <name> = <positive number>

Kinds: process (needs :name), ifelse, merge, sync, incr, lt. Literals are
true, false, decimal numbers, or double-quoted text, a JSON string read and
written here without the json module. init grants a New token unless
suffixed with old. Declaration order of op lines is the scheduler's
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
_NUMBER = re.compile(_NUM + r"\Z")  # the whole token, no final line break
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


# What text escapes: what json.dumps(text, ensure_ascii=False) escapes, the
# quote, the backslash and each character below U+0020, and also those that
# str.splitlines breaks lines at. A character with a short escape takes it.
_ESCAPES = {c: f"\\u{c:04x}" for c in (*range(32), 0x85, 0x2028, 0x2029)} | dict(
    zip(b'"\\\b\f\n\r\t', ['\\"', "\\\\", "\\b", "\\f", "\\n", "\\r", "\\t"])
)


def _unescape(m):
    """The text one escape of a text literal stands for.

    Each escape reads as the same escape in Python source, but \\/, which
    is a slash. A \\u escape is matched together with a \\u escape of a low
    surrogate after it, so that a high and a low surrogate so written read
    as one character, as json.loads reads them; a surrogate written as a
    character stays alone.
    """
    escape = m[0]
    if len(escape) == 1:  # a quote, a lone backslash or a control character
        raise ValueError
    return (
        escape.replace("\\/", "/").encode().decode("unicode_escape")
        .encode("utf-16", "surrogatepass").decode("utf-16", "surrogatepass")
    )


def _read_text(token):
    """The text a literal token starting with a quote stands for, read by
    the JSON string grammar as json.loads(token) reads it; ValueError when
    the token is not one such string."""
    text, quote, rest = token[1:].rpartition('"')
    if rest.strip(" \t\n\r") or not quote:  # JSON white space may follow
        raise ValueError
    if "\\" not in text and '"' not in text and text.isprintable():
        return text  # nothing to unescape and nothing to refuse
    # each escape, and each character the text may not hold raw; re compiles
    # the pattern on first use and keeps it in its cache
    return re.sub(
        r'\\(?:u[0-9a-fA-F]{4}(?:\\u[dD][c-fC-F][0-9a-fA-F]{2})?|["\\/bfnrt])'
        r'|["\\\x00-\x1f]',
        _unescape,
        text,
    )


def format_value(value: Value) -> str:
    """A value as documents and traces print it.

    A number takes its shortest decimal form, and an integral one below
    1e16 in size prints without a point. Any other value prints as
    coerce_value stores it (an int as a number), or raises its TypeMismatch,
    as for a number that is not finite or text holding a lone surrogate.
    """
    if isinstance(value, float):  # the common case, tested first
        if value.is_integer() and -1e16 < value < 1e16:
            return str(int(value)) if value or math.copysign(1.0, value) > 0 else "-0"
        return repr(coerce_value(value))  # refuses inf and nan, which no literal reads
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        if not value.isascii():  # O(1); only other text can hold a lone surrogate
            coerce_value(value)
        return f'"{value.translate(_ESCAPES)}"'
    return format_value(coerce_value(value))


def parse_literal(token: str) -> Value:
    """The value of one literal; ValueError when the token is none.

    A boolean or a number is exactly its token. Text follows JSON, which
    allows white space after the closing quote.
    """
    if token in ("true", "false"):
        return token == "true"
    if _NUMBER.match(token):
        value = float(token)
    elif token.startswith('"'):
        try:
            value = _read_text(token)
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
    column is the post-firing marking of every data node. It is held as
    one bytearray of UTF-8, first written from start, in which each event
    sets only the codes of its reads (now Old) and writes (New), at byte
    offsets fixed for the run; it is decoded once a line.

    Each data node has one slot: the offset of its code in the column, the
    value the renderer last printed as written to it, and that text. A read
    whose value is that very object reuses the text, with no format_value
    call; any other read, such as an equal value of another type or sign
    (1.0 after True, -0.0 after 0.0), or a seed, is formatted.
    """
    column = bytearray()
    slots = {}  # data name -> [offset of its code in column, value, name=its text]
    for name, m in start:
        column += f",{name}:{m.code}".encode()
        slots[name] = [len(column) - 2, None, f"{name}=-"]  # less the first comma
    del column[:1]

    def render(event):
        step, _, name, reads, wrote = event
        read = write = ""
        for node, value in reads:
            slot = slots[node]
            column[slot[0]] = 79  # O
            text = slot[2] if value is slot[1] else f"{node}={format_value(value)}"
            read = f"{read},{text}" if read else text
        for node, value in wrote:
            slot = slots[node]
            column[slot[0]] = 78  # N
            slot[1] = value
            slot[2] = text = f"{node}={format_value(value)}"
            write = f"{write},{text}" if write else text
        if keep_writes:
            keep_writes(write)
        return (
            f"step={step} op={name} reads={{{read}}} writes={{{write}}}"
            f" marking={column.decode()}\n"
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
