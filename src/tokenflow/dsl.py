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

import json
import math
import re
from dataclasses import dataclass, field
from typing import Mapping

from .errors import (
    DuplicateName,
    ParseError,
    TypeMismatch,
    UnknownKind,
    ValidationError,
)
from .model import (
    NAME,
    SORTS,
    Composition,
    ExecutionState,
    TokenState,
    Value,
    build_composition,
    check_kind,
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
    return json.dumps(value, ensure_ascii=False).translate(_LINE_BREAKS)


def _strip_comment(line: str) -> str:
    in_text = False
    escaped = False
    for pos, ch in enumerate(line):
        if in_text:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_text = False
        elif ch == '"':
            in_text = True
        elif ch == "#":
            return line[:pos]
    return line


def _parse_literal(token: str, lineno: int) -> Value:
    if token == "true":
        return True
    if token == "false":
        return False
    if token.startswith('"'):
        try:
            text = json.loads(token)
        except ValueError:
            raise ParseError(lineno, f"bad text literal {token}") from None
        try:
            return coerce_value(text)
        except TypeMismatch as exc:
            raise ParseError(lineno, str(exc)) from None
    if _NUMBER.match(token):
        return float(token)
    raise ParseError(lineno, f"bad literal {token!r}")


def _split_init_rhs(rhs: str, lineno: int) -> tuple[str, bool]:
    """Split an init right-hand side into (literal token, old flag)."""
    rhs = rhs.strip()
    if rhs.startswith('"'):
        escaped = False
        for pos in range(1, len(rhs)):
            ch = rhs[pos]
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                literal, rest = rhs[: pos + 1], rhs[pos + 1 :].strip()
                break
        else:
            raise ParseError(lineno, "unterminated text literal")
    else:
        parts = rhs.split(None, 1)
        literal, rest = parts[0], parts[1].strip() if len(parts) > 1 else ""
    if rest == "old":
        return literal, True
    if rest:
        raise ParseError(lineno, f"unexpected trailing {rest!r}")
    return literal, False


@dataclass
class CompositionDocument:
    """Parsed document: declarations plus seed values and durations.

    build() assembles the composition, the initial state, and the duration
    map (operator index -> duration). Seed entries map a data name to its
    value and an old flag.
    """

    data_decls: list[tuple[str, str]] = field(default_factory=list)
    op_decls: list[tuple] = field(default_factory=list)
    inits: dict[str, tuple[Value, bool]] = field(default_factory=dict)
    durations: dict[str, float] = field(default_factory=dict)

    @classmethod
    def parse(cls, text: str) -> "CompositionDocument":
        doc = cls()
        seen_init: set[str] = set()
        seen_dur: set[str] = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = _strip_comment(raw).strip()
            if not line:
                continue
            head = line.split(None, 1)[0]
            if head == "data":
                m = _DATA.match(line)
                if not m:
                    raise ParseError(lineno, f"bad data declaration: {raw.strip()}")
                name, sort = m.group(1), m.group(2) or "any"
                if not NAME.fullmatch(name):
                    raise ParseError(lineno, f"bad data name {name!r}")
                if sort not in SORTS:
                    raise ParseError(lineno, f"unknown sort {sort!r}")
                doc.data_decls.append((name, sort))
            elif head == "op":
                m = _OP.match(line)
                if not m:
                    raise ParseError(lineno, f"bad operator declaration: {raw.strip()}")
                name, kind, process, ins, outs = m.groups()
                if not NAME.fullmatch(name):
                    raise ParseError(lineno, f"bad operator name {name!r}")
                try:
                    check_kind(name, kind, process)
                except UnknownKind as exc:
                    raise UnknownKind(f"line {lineno}: {exc}") from None
                except ValidationError as exc:
                    raise ParseError(lineno, str(exc)) from None

                def names(csv: str) -> tuple[str, ...]:
                    if not csv.strip():
                        return ()
                    parts = [p.strip() for p in csv.split(",")]
                    if any(not NAME.fullmatch(p) for p in parts):
                        raise ParseError(lineno, f"bad data reference in {csv!r}")
                    return tuple(parts)

                doc.op_decls.append((name, kind, names(ins), names(outs), process))
            elif head == "init":
                m = _INIT.match(line)
                if not m:
                    raise ParseError(lineno, f"bad init line: {raw.strip()}")
                name = m.group(1)
                if name in seen_init:
                    raise DuplicateName(f"line {lineno}: duplicate init for {name!r}")
                seen_init.add(name)
                literal, old = _split_init_rhs(m.group(2), lineno)
                doc.inits[name] = (_parse_literal(literal, lineno), old)
            elif head == "dur":
                m = _DUR.match(line)
                if not m:
                    raise ParseError(lineno, f"bad dur line: {raw.strip()}")
                name = m.group(1)
                if name in seen_dur:
                    raise DuplicateName(f"line {lineno}: duplicate dur for {name!r}")
                seen_dur.add(name)
                token = m.group(2)
                if not _NUMBER.match(token) or not 0 < float(token) < math.inf:
                    raise ParseError(lineno, "duration must be a positive number")
                doc.durations[name] = float(token)
            else:
                raise ParseError(lineno, f"unknown declaration {head!r}")
        return doc

    def override(self, name: str, value: Value) -> None:
        """Replace a seed value, keeping its old flag; new entries are New."""
        _, old = self.inits.get(name, (None, False))
        self.inits[name] = (value, old)

    def build(self) -> tuple[Composition, ExecutionState, dict[int, float]]:
        comp = build_composition(self.data_decls, self.op_decls)
        marks: dict[int, TokenState] = {}
        values: dict[int, Value] = {}
        for name, (value, old) in self.inits.items():
            node = comp.data_named(name)
            marks[node.index] = TokenState.OLD if old else TokenState.NEW
            values[node.index] = value
        durs: dict[int, float] = {}
        for name, d in self.durations.items():
            durs[comp.operator_named(name).index] = d
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
    for idx, d in sorted((durations or {}).items()):
        if d <= 0:
            raise ValidationError("durations must be positive")
        lines.append(f"dur {comp.operators[idx].name} = {format_number(float(d))}")
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
