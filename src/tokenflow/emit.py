"""Writing a composition out as a document, the inverse of parse_composition.

Library code: no command of the command line loads it.
"""
from __future__ import annotations

from typing import Mapping

from .dsl import format_value
from .concurrent import check_durations
from .model import Composition, ExecutionState, TokenState


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
        lines.append(f"dur {comp.operators[idx].name} = {format_value(d)}")
    return "\n".join(lines) + ("\n" if lines else "")
