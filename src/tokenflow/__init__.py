"""Deterministic dataflow execution driven by token markings.

Compositions wire operators to data nodes; tokens on the nodes gate which
operators may fire. A sequential processor fires one operator per step with
a rotating scan; a concurrent processor overlaps operators with disjoint
neighborhoods over virtual time. Both end in the same state when no
reachable marking enables two operators that share a data node; the golden
corpus's diverge-*.flow documents are three where they do not.

The names of the processors, their firing semantics, the patterns and the
document writer load on first use, so a command loads only what it uses.
"""
from importlib import import_module

from .dsl import (
    CompositionDocument,
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

__version__ = "0.1.0"

_LAZY = {
    "semantics": (
        "ProcessRegistry", "RunLimits", "Trace", "TraceEvent",
        "can_fire", "default_registry",
    ),
    "sequential": ("run_to_convergence", "step"),
    "concurrent": ("ScheduleEntry", "schedule_tsv", "simulate_concurrent"),
    "emit": ("emit_composition",),
    "patterns": ("build_ifelse_pattern", "build_loop_pattern"),
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
    "ProcessError",
    "ProcessRegistry",
    "RunLimits",
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
    "default_registry",
    "emit_composition",
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
