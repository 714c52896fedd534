"""Core composition model.

A composition is a bipartite structure: data nodes that hold a value and a
token, and operators wired to read some data nodes and write others. All
structural types are immutable once built; the mutable part of an execution
lives in ExecutionState. KINDS describes every operator kind once: its arity,
its firing rule over input markings, and its effect on values.
"""
from __future__ import annotations

import math
import re
from enum import IntEnum
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import FlowError, ProcessError, TypeMismatch, ValidationError


class TokenState(IntEnum):
    """Marking of a single data node.

    The numeric codes are meaningful: a data node carries a token iff its
    marking is greater than VOID, and only NEW tokens trigger firings.
    """

    VOID = 0
    OLD = 1
    NEW = 2

    @property
    def code(self) -> str:
        return _CODES[self]


_CODES = {TokenState.VOID: "V", TokenState.OLD: "O", TokenState.NEW: "N"}

# Module-level names for the markings: the firing rules read them on every
# enablement test, and a global is much cheaper than an enum attribute.
VOID, OLD, NEW = TokenState

# Values carried by data nodes: booleans, binary64 numbers, text.
# None stands for "no value" (a node that never held a token).
Value = bool | float | str | None

SORTS = ("bool", "num", "text", "any")

# Data and operator names: what a document line can carry as one name.
NAME = re.compile(r"[A-Za-z_][\w.-]*")


def value_sort(value: Value) -> str | None:
    """Sort tag of a value, or None for the absent value."""
    if value is None:
        return None
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, float):
        return "num"
    if isinstance(value, str):
        return "text"
    raise TypeMismatch(f"unsupported value type {type(value).__name__!r}")


def coerce_value(value) -> Value:
    """Normalize a value for storage; plain ints become binary64 numbers.

    Numbers must be finite: documents and traces have no literal for the
    others. Text must be encodable as UTF-8, so lone surrogates are refused.
    """
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise TypeMismatch(
                f"text {value!r} holds a lone surrogate, which UTF-8 cannot encode"
            ) from None
        return value
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float)):
        try:
            value = float(value)
        except OverflowError:  # an int beyond binary64 range
            value = math.inf
        if not math.isfinite(value):
            raise TypeMismatch(f"number {value!r} is not finite")
        return value
    raise TypeMismatch(f"unsupported value type {type(value).__name__!r}")


def check_sort(node: "DataNode", value: Value) -> None:
    if node.sort == "any" or value is None:
        return
    actual = value_sort(value)
    if actual != node.sort:
        raise TypeMismatch(
            f"data {node.name!r} is declared {node.sort} but got a {actual} value"
        )


class DataNode(NamedTuple):
    index: int
    name: str
    sort: str = "any"


class OperatorSpec(NamedTuple):
    index: int
    name: str
    kind: str
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    process_name: str | None = None


class Composition:
    """Data nodes and operators, each in declaration order.

    Two compositions are equal when their declarations are.
    """

    __slots__ = ("data", "operators", "_data_by_name", "_operator_by_name")

    def __init__(self, data, operators):
        self.data: tuple[DataNode, ...] = data
        self.operators: tuple[OperatorSpec, ...] = operators
        self._data_by_name = {node.name: node for node in data}
        self._operator_by_name = {op.name: op for op in operators}

    def __eq__(self, other):
        if not isinstance(other, Composition):
            return NotImplemented
        return self.data == other.data and self.operators == other.operators

    def data_named(self, name: str) -> DataNode:
        node = self._data_by_name.get(name)
        if node is None:
            raise ValidationError(f"no data node named {name!r}")
        return node

    def operator_named(self, name: str) -> OperatorSpec:
        op = self._operator_by_name.get(name)
        if op is None:
            raise ValidationError(f"no operator named {name!r}")
        return op


# ------------------------------------------------------------ operator kinds


def want_numbers(values: Iterable[Value], ctx: str) -> list[float]:
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, float):
            raise TypeMismatch(f"{ctx} needs number operands, got {v!r}")
        out.append(v)
    return out


def _ready(marks: list[TokenState]) -> bool:
    """Every input holds a token and one is New; true without inputs."""
    return not marks or (VOID not in marks and NEW in marks)


def _any_new(marks: list[TokenState]) -> bool:
    return NEW in marks


def _all_new(marks: list[TokenState]) -> bool:
    return marks.count(NEW) == len(marks)


def _inputs(spec: OperatorSpec, state: ExecutionState) -> list[Value]:
    return [state.values[d] for d in spec.inputs]


def _process(spec: OperatorSpec, state: ExecutionState, registry):
    """Run the registered function over the inputs; it writes every output."""
    fn = registry.resolve(spec.process_name)
    try:
        result = list(fn(_inputs(spec, state), state.exec_counts[spec.index]))
    except FlowError:
        raise
    except Exception as exc:
        raise ProcessError(
            f"process {spec.process_name!r} raised {type(exc).__name__}: {exc}"
        ) from exc
    if len(result) != len(spec.outputs):
        raise ProcessError(
            f"process {spec.process_name!r} returned {len(result)} values,"
            f" operator writes {len(spec.outputs)}"
        )
    return spec.inputs, tuple(zip(spec.outputs, map(coerce_value, result)))


def _ifelse(spec: OperatorSpec, state: ExecutionState, registry):
    """Input 0 goes to output 0 when input 1 holds, else to output 1."""
    value, condition = _inputs(spec, state)
    if not isinstance(condition, bool):
        raise TypeMismatch(f"if/else condition must be a boolean, got {condition!r}")
    return spec.inputs, ((spec.outputs[0 if condition else 1], value),)


def _merge(spec: OperatorSpec, state: ExecutionState, registry):
    """Forward and consume the New input, input 0 on a tie."""
    first, second = spec.inputs
    src = first if state.marking[first] == NEW else second
    return (src,), ((spec.outputs[0], state.values[src]),)


def _sync(spec: OperatorSpec, state: ExecutionState, registry):
    return spec.inputs, tuple(zip(spec.outputs, _inputs(spec, state)))


def _incr(spec: OperatorSpec, state: ExecutionState, registry):
    return (), ((spec.outputs[0], float(state.exec_counts[spec.index] + 1)),)


def _lt(spec: OperatorSpec, state: ExecutionState, registry):
    x, y = want_numbers(_inputs(spec, state), "less-than")
    return spec.inputs, ((spec.outputs[0], x < y),)


class Kind(NamedTuple):
    """One operator kind: its arity, firing rule and effect.

    inputs/outputs are arities, None for any count (every operator still
    needs an output). rule decides enablement from the input markings in
    port order; can_fire adds that no output may hold a New token.
    effect(spec, state, registry) returns the data indices the firing
    consumes and the (output index, value) pairs it writes; fire() makes
    the consumed inputs Old and the written outputs New.
    """

    inputs: int | None
    outputs: int | None
    rule: Callable[[list[TokenState]], bool]
    effect: Callable[..., tuple]
    takes_process: bool = False


KINDS: dict[str, Kind] = {
    "process": Kind(None, None, _ready, _process, takes_process=True),
    "ifelse": Kind(2, 2, _ready, _ifelse),
    "merge": Kind(2, 1, _any_new, _merge),
    "sync": Kind(2, 2, _all_new, _sync),
    "incr": Kind(0, 1, _ready, _incr),
    "lt": Kind(2, 1, _ready, _lt),
}


def _check_name(role: str, name) -> None:
    if not (isinstance(name, str) and NAME.fullmatch(name)):
        raise ValidationError(f"bad {role} name {name!r}")


def build_composition(data_decls: Iterable, op_decls: Iterable) -> Composition:
    """Validate declarations and assemble a Composition.

    data_decls: names, or (name,) or (name, sort) tuples.
    op_decls: (name, kind, input_names, output_names[, process_name]) tuples,
    where input_names and output_names are tuples (or lists) of data names.
    Declaration order is preserved and defines the operator scan order.
    Each declaration is checked fully as it is taken from its iterable, all
    data before any operator, so when an error is raised the declaration
    taken last is the one at fault.
    """
    nodes: list[DataNode] = []
    by_name: dict[str, int] = {}
    for decl in data_decls:
        if isinstance(decl, str):
            decl = (decl,)
        try:
            name, sort = decl if len(decl) == 2 else (*decl, "any")
        except (TypeError, ValueError):
            raise ValidationError(
                f"bad data declaration {decl!r}: want a name or (name, sort)"
            ) from None
        _check_name("data", name)
        if sort not in SORTS:
            raise ValidationError(f"data {name!r}: unknown sort {sort!r}")
        if name in by_name:
            raise ValidationError(f"data name {name!r} declared twice")
        by_name[name] = len(nodes)
        nodes.append(DataNode(len(nodes), name, sort))

    ops: list[OperatorSpec] = []
    op_names: set[str] = set()
    for decl in op_decls:
        try:
            name, kind, in_names, out_names, process_name = (
                decl if len(decl) == 5 else (*decl, None)
            )
        except (TypeError, ValueError):
            raise ValidationError(
                f"bad operator declaration {decl!r}: want"
                " (name, kind, inputs, outputs[, process name])"
            ) from None
        _check_name("operator", name)
        if name in op_names:
            raise ValidationError(f"operator name {name!r} declared twice")
        op_names.add(name)
        if not (isinstance(kind, str) and kind in KINDS):
            raise ValidationError(f"operator {name!r}: unknown kind {kind!r}")
        entry = KINDS[kind]
        if entry.takes_process != bool(process_name):
            takes = "needs" if entry.takes_process else "does not take"
            raise ValidationError(
                f"operator {name!r}: kind {kind!r} {takes} a process name"
            )
        if process_name and not (
            isinstance(process_name, str) and NAME.fullmatch(process_name)
        ):
            raise ValidationError(
                f"operator {name!r}: bad process name {process_name!r}"
            )

        def resolve(names: Sequence[str], role: str) -> tuple[int, ...]:
            if isinstance(names, str):  # not to be split into letters
                raise ValidationError(
                    f"operator {name!r}: {role}s {names!r} are not a list of names"
                )
            out = []
            try:
                for ref in names:
                    if not isinstance(ref, str):
                        raise ValidationError(
                            f"operator {name!r} {role} reference {ref!r} is not a name"
                        )
                    if ref not in by_name:
                        raise ValidationError(
                            f"operator {name!r} {role} references unknown data {ref!r}"
                        )
                    out.append(by_name[ref])
            except TypeError:  # from iterating something that is not a list
                raise ValidationError(
                    f"operator {name!r}: {role}s {names!r} are not a list of names"
                ) from None
            return tuple(out)

        inputs = resolve(in_names, "input")
        outputs = resolve(out_names, "output")
        if entry.inputs is not None and len(inputs) != entry.inputs:
            raise ValidationError(
                f"operator {name!r}: kind {kind!r} takes {entry.inputs} inputs, got {len(inputs)}"
            )
        if entry.outputs is not None and len(outputs) != entry.outputs:
            raise ValidationError(
                f"operator {name!r}: kind {kind!r} writes {entry.outputs} outputs, got {len(outputs)}"
            )
        if not outputs:
            raise ValidationError(f"operator {name!r}: needs at least one output")
        if len(set(outputs)) != len(outputs):
            raise ValidationError(f"operator {name!r}: duplicate output data node")
        overlap = set(inputs) & set(outputs)
        if overlap:
            names = ", ".join(nodes[i].name for i in sorted(overlap))
            raise ValidationError(
                f"operator {name!r} reads and writes the same data: {names}"
            )
        ops.append(OperatorSpec(len(ops), name, kind, inputs, outputs, process_name))

    return Composition(tuple(nodes), tuple(ops))


def check_duration(op_name: str, d) -> float:
    """A duration in virtual time units: a real number with 0 < d < inf."""
    try:
        x = coerce_value(d)
    except TypeMismatch:
        x = None
    if not isinstance(x, float) or x <= 0:
        raise ValidationError(
            f"operator {op_name!r}: duration {d!r} is not a positive finite number"
        )
    return x


def check_durations(comp: Composition, durations: Mapping | None) -> dict[int, float]:
    """Validate an operator index -> duration map; see check_duration."""
    out: dict[int, float] = {}
    for idx, d in (durations or {}).items():
        if not (isinstance(idx, int) and 0 <= idx < len(comp.operators)):
            raise ValidationError(f"duration for unknown operator index {idx!r}")
        out[idx] = check_duration(comp.operators[idx].name, d)
    return out


def neighborhood(comp: Composition, op: OperatorSpec | int) -> frozenset[int]:
    """All data indices an operator touches: inputs plus outputs."""
    spec = comp.operators[op] if isinstance(op, int) else op
    return frozenset(spec.inputs) | frozenset(spec.outputs)


class ExecutionState:
    """Mutable execution snapshot: markings, values, firing counters.

    scan_start is the declaration index at which the sequential scheduler
    begins its next scan. Two states are equal when all five fields are.
    """

    __slots__ = ("marking", "values", "exec_counts", "step", "scan_start")

    def __init__(self, marking, values, exec_counts, step=0, scan_start=0):
        self.marking: dict[int, TokenState] = marking
        self.values: dict[int, Value] = values
        self.exec_counts: dict[int, int] = exec_counts
        self.step = step
        self.scan_start = scan_start

    def __eq__(self, other):
        if not isinstance(other, ExecutionState):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def copy(self) -> "ExecutionState":
        return ExecutionState(
            dict(self.marking),
            dict(self.values),
            dict(self.exec_counts),
            self.step,
            self.scan_start,
        )


def initial_state(
    comp: Composition,
    markings: Mapping[int, TokenState] | None = None,
    values: Mapping[int, Value] | None = None,
) -> ExecutionState:
    """Build the step-0 state. Unlisted data nodes start Void with no value.

    Every tokened node needs a value of its declared sort; putting a value on
    a Void node is rejected.
    """
    markings = dict(markings or {})
    values = dict(values or {})
    n = len(comp.data)
    for idx in list(markings) + list(values):
        if not (0 <= idx < n):
            raise ValidationError(f"no data node with index {idx}")

    marking = {node.index: TokenState.VOID for node in comp.data}
    vals: dict[int, Value] = {node.index: None for node in comp.data}
    for idx, mark in markings.items():
        try:
            marking[idx] = TokenState(mark)
        except ValueError:
            raise ValidationError(
                f"data {comp.data[idx].name!r}: {mark!r} is not a marking"
            ) from None
    for idx, value in values.items():
        node = comp.data[idx]
        value = coerce_value(value)
        if marking[idx] == TokenState.VOID:
            if value is not None:
                raise ValidationError(
                    f"data {node.name!r} is Void and cannot carry a value"
                )
            continue
        check_sort(node, value)
        vals[idx] = value
    for idx, mark in marking.items():
        if mark != TokenState.VOID and vals[idx] is None:
            raise ValidationError(
                f"data {comp.data[idx].name!r} holds a token but no value"
            )

    return ExecutionState(marking, vals, {op.index: 0 for op in comp.operators})
