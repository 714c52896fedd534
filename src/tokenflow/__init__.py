"""Deterministic dataflow execution driven by token markings.

Compositions wire operators to data nodes; tokens on the nodes gate which
operators may fire. A sequential processor fires one operator per step with
a rotating scan; a concurrent processor overlaps operators with disjoint
neighborhoods over virtual time. Both produce identical final states.

The names of the concurrent processor and the patterns load on first use,
so a command that does not use them does not import them.
"""
from importlib import import_module

from .dsl import (
    CompositionDocument,
    emit_composition,
    format_value,
    parse_composition,
    serialize_trace,
)
from .errors import (
    FlowError,
    NotEnabled,
    ParseError,
    ProcessError,
    TypeMismatch,
    ValidationError,
)
from .model import (
    Composition,
    ExecutionState,
    TokenState,
    build_composition,
    initial_state,
    neighborhood,
)
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

_LAZY = {
    "concurrent": ("ScheduleEntry", "schedule_tsv", "simulate_concurrent"),
    "patterns": ("PatternInstance", "build_ifelse_pattern", "build_loop_pattern"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            value = getattr(import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Composition",
    "CompositionDocument",
    "ExecutionState",
    "FlowError",
    "NotEnabled",
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
    "ValidationError",
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
]
