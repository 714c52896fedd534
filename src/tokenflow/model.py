"""Core composition model.

A composition is a bipartite structure: data nodes that hold a value and a
token, and operators wired to read some data nodes and write others. All
structural types are immutable once built; the mutable part of an execution
lives in ExecutionState. KINDS describes every operator kind once: its arity,
the tag of its firing rule over input markings, and its effect on values.
"""
from __future__ import annotations

import math
import re
from collections import namedtuple
from enum import IntEnum
from typing import Iterable, Mapping, Sequence

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
        return "VON"[self]


# Module-level names for the markings: can_fire reads them on every
# enablement test, and a global is much cheaper than an enum attribute.
VOID, OLD, NEW = TokenState

# Values carried by data nodes: booleans, binary64 numbers, text.
# None stands for "no value" (a node that never held a token).
Value = bool | float | str | None

SORTS = ("bool", "num", "text", "any")

# Data and operator names: what a document line can carry as one name.
NAME = re.compile(r"[A-Za-z_][\w.-]*")

_SORT_OF = {bool: "bool", float: "num", str: "text"}  # stored type -> sort tag


def coerce_value(value) -> Value:
    """Normalize a value for storage as a bool, float, str or None of exactly
    that type: ints become binary64 numbers, and a str subclass a plain str.

    Numbers must be finite: documents and traces have no literal for the
    others. Text must be encodable as UTF-8, so lone surrogates are refused.
    """
    if type(value) is float and math.isfinite(value):  # the common case
        return value
    if isinstance(value, str):
        value = str.__str__(value)  # a plain str, also for a subclass
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
    """Refuse a value, as coerce_value stores it, whose exact type is not of
    the sort node declares; None is of no sort. Any value on an `any` node
    passes."""
    sort = node.sort
    if sort == "any":
        return
    actual = _SORT_OF.get(type(value))
    if actual != sort:
        raise TypeMismatch(
            f"data {node.name!r} is declared {sort} but got a {actual} value"
        )


def admit_seed(node: "DataNode", value) -> Value:
    """The value that node, a data node holding a token, stores for a seed:
    value as coerce_value makes it, not None and of node's sort. Every
    error names node."""
    try:
        value = coerce_value(value)
    except TypeMismatch as exc:
        raise TypeMismatch(f"data {node.name!r}: {exc}") from None
    if value is None:
        raise ValidationError(f"data {node.name!r} holds a token but no value")
    check_sort(node, value)
    return value


def _same_slots(self, other):
    """__eq__ of a __slots__ class: same class, and every slot equal."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)


# The record types are collections.namedtuple classes: a process builds one
# in a fraction of the time a named tuple class from typing takes.
DataNode = namedtuple("DataNode", "index name sort", defaults=("any",))
DataNode.__doc__ = """One data node: index (int), its place in declaration order;
name (str); and sort (str), one of SORTS."""

OperatorSpec = namedtuple(
    "OperatorSpec", "index name kind inputs outputs process_name", defaults=(None,)
)
OperatorSpec.__doc__ = """One operator: index (int), its place in declaration and scan
order; name (str); kind (str), a key of KINDS; inputs and outputs (tuples
of int), the data indices it reads and writes, in port order; and
process_name (str or None), the function a process operator runs."""


class Composition:
    """Data nodes and operators, each in declaration order: data is a tuple
    of DataNode, and operators a tuple of OperatorSpec.

    Only build_composition makes one, so every operator in it has passed
    its checks; Composition(...) raises TypeError. Two compositions are
    equal when their declarations are.
    """

    __slots__ = ("data", "operators", "_data_by_name", "_operator_by_name")

    __eq__ = _same_slots

    def __init__(self, *args, **kwargs):  # copy and pickle make one without it
        raise TypeError("a Composition is made only by build_composition")

    def data_named(self, name: str) -> DataNode:
        index = self._data_by_name.get(name)  # data name -> index
        if index is None:
            raise ValidationError(f"no data node named {name!r}")
        return self.data[index]

    def operator_named(self, name: str) -> OperatorSpec:
        op = self._operator_by_name.get(name)
        if op is None:
            raise ValidationError(f"no operator named {name!r}")
        return op


# ------------------------------------------------------------ operator kinds


def want_numbers(values, ctx):
    """The sequence values, once each is found to be a number: a float, not
    a bool. The error names ctx, the operation that wanted them."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, float):
            raise TypeMismatch(f"{ctx} needs number operands, got {v!r}")
    return values


def _process(spec, consumed, state, registry):
    """Run the registered function over the inputs; it writes every output."""
    fn = registry.resolve(spec.process_name)
    try:
        result = fn([*map(state.values.__getitem__, consumed)], state.exec_counts[spec.index])
    except FlowError:
        raise
    except Exception as exc:
        raise ProcessError(
            f"process {spec.process_name!r} raised {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(result, (list, tuple)):  # text or a set would be split up
        raise ProcessError(
            f"process {spec.process_name!r} returned {type(result).__name__},"
            " not a list or tuple"
        )
    if len(result) != len(spec.outputs):
        raise ProcessError(
            f"process {spec.process_name!r} returned {len(result)} values,"
            f" operator writes {len(spec.outputs)}"
        )
    return tuple(zip(spec.outputs, map(coerce_value, result)))


def _ifelse(spec, consumed, state, registry):
    """Input 0 goes to output 0 when input 1 holds, else to output 1."""
    d, c = consumed
    condition = state.values[c]
    if type(condition) is not bool:
        raise TypeMismatch(f"if/else condition must be a boolean, got {condition!r}")
    return ((spec.outputs[0 if condition else 1], state.values[d]),)


def _merge(spec, consumed, state, registry):
    """Forward the one input the firing consumes."""
    return ((spec.outputs[0], state.values[consumed[0]]),)


def _sync(spec, consumed, state, registry):
    """Input i goes to output i."""
    (a, b), (x, y), values = consumed, spec.outputs, state.values
    return ((x, values[a]), (y, values[b]))


def _incr(spec, consumed, state, registry):
    return ((spec.outputs[0], float(state.exec_counts[spec.index] + 1)),)


def _lt(spec, consumed, state, registry):
    a, b = consumed
    x, y = state.values[a], state.values[b]
    if type(x) is not float or type(y) is not float:
        want_numbers((x, y), "less-than")
    return ((spec.outputs[0], x < y),)


Kind = namedtuple("Kind", "inputs outputs rule effect takes_process", defaults=(False,))
Kind.__doc__ = """One operator kind: its arity, firing rule and effect.

inputs/outputs (int or None) are arities, None for any count (every operator
still needs an output). rule names one of three firing rules over the
markings of the inputs: "ready", every input holds a token and one is New
(true without inputs); "any_new", some input is New; "all_new", every input
is New. semantics.can_fire evaluates it, adding that no output may hold a New
token, and semantics.consumes gives the inputs a firing consumes: the first
New one under "any_new", else all. effect(spec, consumed, state, registry)
returns only the (output index, value) pairs the firing writes, and fire()
makes the consumed inputs Old and the written outputs New. takes_process
(bool) says whether an operator of the kind names a process function.

An effect reads state.values in place at consumed, every input in port order
but under "any_new", and never a marking. A kind of fixed arity unpacks
them, as many as build_composition lets through. Stored numbers are exact
floats (coerce_value), so an effect tests type(x) is float first and calls
want_numbers only for the error it raises.
"""


KINDS = {  # kind name -> Kind
    "process": Kind(None, None, "ready", _process, True),  # takes a process
    "ifelse": Kind(2, 2, "ready", _ifelse),
    "merge": Kind(2, 1, "any_new", _merge),
    "sync": Kind(2, 2, "all_new", _sync),
    "incr": Kind(0, 1, "ready", _incr),
    "lt": Kind(2, 1, "ready", _lt),
}


def _is_name(name):
    """Whether name is text that NAME matches in full.

    Every ASCII identifier does, so the common name skips the regex.
    """
    return isinstance(name, str) and (
        name.isascii() and name.isidentifier() or NAME.fullmatch(name) is not None
    )


def _resolve(op, role, names, by_name):
    """Indices of the data nodes an operator's inputs or outputs name."""
    out = []
    try:
        if isinstance(names, str):  # not to be split into letters
            raise TypeError
        for ref in names:
            if not isinstance(ref, str):
                raise ValidationError(
                    f"operator {op!r} {role} reference {ref!r} is not a name"
                )
            index = by_name.get(ref)
            if index is None:
                raise ValidationError(
                    f"operator {op!r} {role} references unknown data {ref!r}"
                )
            out.append(index)
    except TypeError:  # from iterating something that is not a list
        raise ValidationError(
            f"operator {op!r}: {role}s {names!r} are not a list of names"
        ) from None
    return tuple(out)


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
    nodes = []
    by_name = {}  # data name -> index
    for index, decl in enumerate(data_decls):
        if isinstance(decl, str):
            decl = (decl,)
        try:
            name, sort = decl if len(decl) == 2 else (*decl, "any")
        except (TypeError, ValueError):
            raise ValidationError(
                f"bad data declaration {decl!r}: want a name or (name, sort)"
            ) from None
        if not _is_name(name):
            raise ValidationError(f"bad data name {name!r}")
        if sort not in SORTS:
            raise ValidationError(f"data {name!r}: unknown sort {sort!r}")
        if by_name.setdefault(name, index) != index:
            raise ValidationError(f"data name {name!r} declared twice")
        # DataNode(...) without the frame of its __new__
        nodes.append(tuple.__new__(DataNode, (index, name, sort)))

    op_by_name = {}  # operator name -> OperatorSpec, in declaration order
    for index, decl in enumerate(op_decls):
        try:
            name, kind, in_names, out_names, process_name = (
                decl if len(decl) == 5 else (*decl, None)
            )
        except (TypeError, ValueError):
            raise ValidationError(
                f"bad operator declaration {decl!r}: want"
                " (name, kind, inputs, outputs[, process name])"
            ) from None
        if not _is_name(name):
            raise ValidationError(f"bad operator name {name!r}")
        if name in op_by_name:
            raise ValidationError(f"operator name {name!r} declared twice")
        entry = KINDS.get(kind) if isinstance(kind, str) else None
        if entry is None:
            raise ValidationError(f"operator {name!r}: unknown kind {kind!r}")
        if entry.takes_process != bool(process_name):
            takes = "needs" if entry.takes_process else "does not take"
            raise ValidationError(
                f"operator {name!r}: kind {kind!r} {takes} a process name"
            )
        if process_name and not _is_name(process_name):
            raise ValidationError(
                f"operator {name!r}: bad process name {process_name!r}"
            )
        inputs = _resolve(name, "input", in_names, by_name)
        outputs = _resolve(name, "output", out_names, by_name)
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
        if not set(inputs).isdisjoint(outputs):
            names = ", ".join(nodes[i].name for i in sorted(set(inputs) & set(outputs)))
            raise ValidationError(
                f"operator {name!r} reads and writes the same data: {names}"
            )
        op_by_name[name] = tuple.__new__(  # OperatorSpec(...) without the frame of its __new__
            OperatorSpec, (index, name, kind, inputs, outputs, process_name)
        )

    comp = object.__new__(Composition)  # without the __init__ that refuses
    comp.data, comp.operators = tuple(nodes), tuple(op_by_name.values())
    comp._data_by_name, comp._operator_by_name = by_name, op_by_name
    return comp


def check_duration(op_name: str, d, text: str | None = None) -> float:
    """A duration in virtual time units: a real number with 0 < d < inf.

    An error names d by text, how it was written, when given, else by repr.
    """
    try:
        x = coerce_value(d)
    except TypeMismatch:
        x = None
    if not isinstance(x, float) or x <= 0:
        raise ValidationError(
            f"operator {op_name!r}: duration {text or repr(d)} is not a positive"
            " finite number"
        )
    return x


def operator_at(comp: Composition, op: int) -> OperatorSpec:
    """comp.operators[op], for an op that is an int naming an operator; any
    other op, a negative index, a bool or an OperatorSpec too, is a
    ValidationError."""
    if not (type(op) is int and 0 <= op < len(comp.operators)):  # nor a bool
        raise ValidationError(f"no operator with index {op!r}")
    return comp.operators[op]


def neighborhood(comp: Composition, op: int) -> frozenset[int]:
    """All data indices operator op, an index into comp.operators, touches:
    inputs plus outputs."""
    spec = operator_at(comp, op)
    return frozenset(spec.inputs + spec.outputs)


class ExecutionState:
    """Mutable execution snapshot: markings, values, firing counters.

    marking (of TokenState) and values (of Value) are lists indexed by data
    index, and exec_counts a list of ints indexed by operator index. scan_start is the declaration index at
    which the sequential scheduler begins its next scan. Two states are
    equal when all five fields are.
    """

    __slots__ = ("marking", "values", "exec_counts", "step", "scan_start")

    def __init__(self, marking, values, exec_counts, step=0, scan_start=0):
        self.marking = marking
        self.values = values
        self.exec_counts = exec_counts
        self.step = step
        self.scan_start = scan_start

    __eq__ = _same_slots

    def copy(self) -> "ExecutionState":
        return ExecutionState(
            self.marking[:],
            self.values[:],
            self.exec_counts[:],
            self.step,
            self.scan_start,
        )


def initial_state(
    comp: Composition,
    markings: Mapping | Sequence | None = None,
    values: Mapping | Sequence | None = None,
) -> ExecutionState:
    """Build the step-0 state. Unlisted data nodes start Void with no value.

    markings and values map data indices to a marking and a value, each as
    a mapping or as a list indexed by data index, such as a state's own
    marking and values. A marking is a TokenState or an int from 0 to 2.
    Each node holding a token stores its value as admit_seed admits it, and
    a Void node takes none.
    """
    n = len(comp.data)
    markings, values = (  # each as a mapping from data index
        dict(enumerate(arg)) if isinstance(arg, (list, tuple)) else {} if arg is None else arg
        for arg in (markings, values)
    )
    for role, arg in ("markings", markings), ("values", values):
        if not hasattr(arg, "items"):
            raise ValidationError(f"initial_state {role} must be a mapping or a list")
        for idx in arg:
            if not (type(idx) is int and 0 <= idx < n):  # bool is no index
                raise ValidationError(f"no data node with index {idx}")

    state = ExecutionState([VOID] * n, [None] * n, [0] * len(comp.operators))
    for idx, mark in markings.items():
        node = comp.data[idx]
        if type(mark) not in (TokenState, int) or not 0 <= mark <= 2:
            raise ValidationError(f"data {node.name!r}: {mark!r} is not a marking")
        if mark:
            state.marking[idx] = TokenState(mark)
            state.values[idx] = admit_seed(node, values.get(idx))
    for idx, value in values.items():
        if not state.marking[idx] and value is not None:
            raise ValidationError(
                f"data {comp.data[idx].name!r} is Void and cannot carry a value"
            )
    return state
