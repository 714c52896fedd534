"""Deterministic dataflow execution driven by token markings.

Compositions wire operators to data nodes; tokens on the nodes gate which
operators may fire. A sequential processor fires one operator per step with
a rotating scan; a concurrent processor overlaps operators with disjoint
neighborhoods over virtual time. Both produce identical final states.
"""
from .concurrent import ScheduleEntry, schedule_tsv, simulate_concurrent
from .dot import to_dot
from .dsl import (
    CompositionDocument,
    emit_composition,
    format_value,
    parse_composition,
    serialize_trace,
)
from .errors import (
    ArityMismatch,
    DuplicateName,
    FlowError,
    InputOutputOverlap,
    NotEnabled,
    OutputArityMismatch,
    ParseError,
    ProcessError,
    TypeMismatch,
    UnknownDataReference,
    UnknownKind,
    UnknownProcess,
    ValidationError,
    ValueMissingForToken,
)
from .model import (
    Composition,
    DataNode,
    ExecutionState,
    OperatorSpec,
    TokenState,
    Value,
    build_composition,
    initial_state,
    neighborhood,
)
from .patterns import PatternInstance, build_ifelse_pattern, build_loop_pattern
from .semantics import (
    ProcessRegistry,
    Trace,
    TraceEvent,
    can_fire,
    const,
    default_registry,
    fire,
)
from .sequential import RunLimits, RunResult, run_to_convergence, step

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch",
    "Composition",
    "CompositionDocument",
    "DataNode",
    "DuplicateName",
    "ExecutionState",
    "FlowError",
    "InputOutputOverlap",
    "NotEnabled",
    "OperatorSpec",
    "OutputArityMismatch",
    "ParseError",
    "PatternInstance",
    "ProcessError",
    "ProcessRegistry",
    "RunLimits",
    "RunResult",
    "ScheduleEntry",
    "TokenState",
    "Trace",
    "TraceEvent",
    "TypeMismatch",
    "UnknownDataReference",
    "UnknownKind",
    "UnknownProcess",
    "ValidationError",
    "Value",
    "ValueMissingForToken",
    "build_composition",
    "build_ifelse_pattern",
    "build_loop_pattern",
    "can_fire",
    "const",
    "default_registry",
    "emit_composition",
    "fire",
    "format_value",
    "initial_state",
    "neighborhood",
    "parse_composition",
    "run_to_convergence",
    "schedule_tsv",
    "serialize_trace",
    "simulate_concurrent",
    "step",
    "to_dot",
]
