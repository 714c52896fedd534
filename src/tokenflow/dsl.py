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
from typing import Iterator, Mapping

from .errors import FlowError, ParseError, TypeMismatch, ValidationError
from .model import (
    Composition,
    ExecutionState,
    TokenState,
    Value,
    build_composition,
    check_duration,
    check_durations,
    check_sort,
    coerce_value,
    initial_state,
)
from .semantics import Trace

_NUMBER = re.compile(r"-?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_DATA = re.compile(r"data\s+(\S+)(?:\s+(\S+))?\s*$")
_OP = re.compile(
    r"op\s+(\S+)\s+([A-Za-z_][\w-]*)(?::(\S+))?\s*"
    r"\(\s*([^()]*?)\s*\)\s*->\s*\(\s*([^()]*?)\s*\)\s*$"
)
_INIT = re.compile(r"init\s+(\S+)\s*=\s*(.+?)\s*$")
_DUR = re.compile(r"dur\s+(\S+)\s*=\s*(\S+)\s*$")
# A double-quoted text literal with backslash escapes. Group "end" holds its
# closing quote and is empty for a literal left open, which runs to the end
# of the line.
_TEXT = r'"(?:[^"\\]|\\.)*(?P<end>"?)'
_CODE = re.compile(rf'(?:[^"#]|{_TEXT})*', re.S)  # a line up to its comment
_LITERAL = re.compile(rf"{_TEXT}|\S*", re.S)  # the literal of an init line


# Characters str.splitlines breaks lines at that JSON leaves unescaped.
_LINE_BREAKS = str.maketrans({c: f"\\u{ord(c):04x}" for c in "\x85\u2028\u2029"})


def format_number(x: float) -> str:
    """Shortest decimal form; integral values print without a point."""
    if math.isfinite(x) and x == int(x) and abs(x) < 1e16:
        return str(int(x)) if x or math.copysign(1.0, x) > 0 else "-0"
    return repr(x)


def format_value(value: Value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    import json  # only text needs it, and many runs carry none

    return json.dumps(value, ensure_ascii=False).translate(_LINE_BREAKS)


def parse_literal(token: str) -> Value:
    """The value of one literal; ValueError when the token is none."""
    if token == "true":
        return True
    if token == "false":
        return False
    if _NUMBER.match(token):
        value = float(token)
        if math.isfinite(value):  # the common case, without a call per seed
            return value
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
    except TypeMismatch as exc:
        raise ValueError(str(exc)) from None


def _split_init_rhs(rhs: str, lineno: int) -> tuple[str, bool]:
    """Split an init right-hand side into (literal token, old flag)."""
    rhs = rhs.strip()
    m = _LITERAL.match(rhs)
    if m["end"] == "":
        raise ParseError(lineno, "unterminated text literal")
    rest = rhs[m.end() :].strip()
    if rest not in ("", "old"):
        raise ParseError(lineno, f"unexpected trailing {rest!r}")
    return m.group(), rest == "old"


class CompositionDocument:
    """Parsed document: declarations plus seed values and durations.

    parse() checks the grammar only. build() assembles the composition, the
    initial state, and the duration map (operator index -> duration); the
    model's errors there become ParseErrors naming the declaration's line,
    chained to the model's error. Seed entries map a data name to its value
    and an old flag. lines maps ("data" or "op", position) and ("init" or
    "dur", name) to document lines; an overridden seed maps to the source
    its override names, or None, and errors about it name that instead.
    """

    __slots__ = ("data_decls", "op_decls", "inits", "durations", "lines")

    def __init__(self):
        self.data_decls: list[tuple[str, str]] = []
        self.op_decls: list[tuple] = []
        self.inits: dict[str, tuple[Value, bool]] = {}
        self.durations: dict[str, float] = {}
        self.lines: dict[tuple[str, int | str], int | str | None] = {}

    @classmethod
    def parse(cls, text: str) -> "CompositionDocument":
        doc = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = _CODE.match(raw).group().strip()
            if not line:
                continue
            head = line.split(None, 1)[0]
            if head == "data":
                m = _DATA.match(line)
                if not m:
                    raise ParseError(lineno, f"bad data declaration: {raw.strip()}")
                doc.lines["data", len(doc.data_decls)] = lineno
                doc.data_decls.append((m.group(1), m.group(2) or "any"))
            elif head == "op":
                m = _OP.match(line)
                if not m:
                    raise ParseError(lineno, f"bad operator declaration: {raw.strip()}")
                name, kind, process, *refs = m.groups()
                ins, outs = (
                    tuple(map(str.strip, r.split(","))) if r else () for r in refs
                )
                doc.lines["op", len(doc.op_decls)] = lineno
                doc.op_decls.append((name, kind, ins, outs, process))
            elif head == "init":
                m = _INIT.match(line)
                if not m:
                    raise ParseError(lineno, f"bad init line: {raw.strip()}")
                name = m.group(1)
                if name in doc.inits:
                    raise ParseError(lineno, f"duplicate init for {name!r}")
                literal, old = _split_init_rhs(m.group(2), lineno)
                try:
                    doc.inits[name] = (parse_literal(literal), old)
                except ValueError as exc:
                    raise ParseError(lineno, str(exc)) from None
                doc.lines["init", name] = lineno
            elif head == "dur":
                m = _DUR.match(line)
                if not m:
                    raise ParseError(lineno, f"bad dur line: {raw.strip()}")
                name, token = m.groups()
                if name in doc.durations:
                    raise ParseError(lineno, f"duplicate dur for {name!r}")
                try:
                    doc.durations[name] = check_duration(
                        name, float(token) if _NUMBER.match(token) else token
                    )
                except ValidationError as exc:
                    raise ParseError(lineno, str(exc)) from exc
                doc.lines["dur", name] = lineno
            else:
                raise ParseError(lineno, f"unknown declaration {head!r}")
        return doc

    def override(self, name: str, value: Value, source: str | None = None) -> None:
        """Replace a seed value, keeping its old flag; new entries are New.

        source says where the value came from, such as a command-line
        argument; build() errors about this seed name it.
        """
        _, old = self.inits.get(name, (None, False))
        self.inits[name] = (value, old)
        self.lines["init", name] = source

    def build(self) -> tuple[Composition, ExecutionState, dict[int, float]]:
        line = None  # where the declaration in hand came from, if known

        def handed(kind: str, decls: list) -> Iterator:
            nonlocal line
            for pos, decl in enumerate(decls):
                line = self.lines.get((kind, pos))
                yield decl

        try:
            comp = build_composition(
                handed("data", self.data_decls), handed("op", self.op_decls)
            )
            marks: dict[int, TokenState] = {}
            values: dict[int, Value] = {}
            for name, (value, old) in self.inits.items():
                line = self.lines.get(("init", name))
                node = comp.data_named(name)
                check_sort(node, value)
                marks[node.index] = TokenState.OLD if old else TokenState.NEW
                values[node.index] = value
            durs: dict[int, float] = {}
            for name, d in self.durations.items():
                line = self.lines.get(("dur", name))
                durs[comp.operator_named(name).index] = d
        except FlowError as exc:
            if line is None:
                raise
            if isinstance(line, str):
                raise ValidationError(f"{line}: {exc}") from exc
            raise ParseError(line, str(exc)) from exc
        return comp, initial_state(comp, marks, values), durs


def parse_composition(
    text: str,
) -> tuple[Composition, ExecutionState, dict[int, float]]:
    """Parse a document into (composition, initial state, durations)."""
    return CompositionDocument.parse(text).build()


def emit_composition(
    comp: Composition,
    seed: ExecutionState | None = None,
    durations: Mapping[int, float] | None = None,
) -> str:
    """Canonical document for a composition, inverse of parse_composition."""
    lines = [f"data {node.name} {node.sort}" for node in comp.data]
    for op in comp.operators:
        kind = f"{op.kind}:{op.process_name}" if op.process_name else op.kind
        ins = ", ".join(comp.data[d].name for d in op.inputs)
        outs = ", ".join(comp.data[d].name for d in op.outputs)
        lines.append(f"op {op.name} {kind} ({ins}) -> ({outs})")
    if seed is not None:
        for node in comp.data:
            mark = seed.marking[node.index]
            if mark == TokenState.VOID:
                continue
            suffix = " old" if mark == TokenState.OLD else ""
            lines.append(
                f"init {node.name} = {format_value(seed.values[node.index])}{suffix}"
            )
    for idx, d in sorted(check_durations(comp, durations).items()):
        lines.append(f"dur {comp.operators[idx].name} = {format_number(d)}")
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_trace(trace: Trace) -> str:
    """One deterministic line per firing.

    step=<n> op=<name> reads={...} writes={...} marking=<name:V|O|N,...>
    The marking column is the post-firing marking of every data node,
    rebuilt by replaying each event's marking delta over trace.start.
    """
    if not trace:
        return ""
    if not isinstance(trace, Trace):
        raise TypeError("serialize_trace needs a Trace, which holds the start marking")
    names = [n for n, _ in trace.start]
    cells = [f"{n}:{m.code}" for n, m in trace.start]
    lines = []
    for event in trace:
        for d, m in event.marking_delta:
            cells[d] = f"{names[d]}:{m.code}"
        reads = ",".join(f"{n}={format_value(v)}" for n, v in event.reads)
        writes = ",".join(f"{n}={format_value(v)}" for n, v in event.writes)
        lines.append(
            f"step={event.step} op={event.op_name}"
            f" reads={{{reads}}} writes={{{writes}}} marking={','.join(cells)}"
        )
    return "\n".join(lines) + "\n"
