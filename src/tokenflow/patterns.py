"""Canonical composition patterns: branch-and-merge and the counted loop."""
from __future__ import annotations

from collections import namedtuple

from .model import build_composition
from .semantics import ProcessRegistry

PatternInstance = namedtuple("PatternInstance", "composition role_map")
PatternInstance.__doc__ = """A built pattern (a Composition) plus role_map, the data
indices that matter to callers, by role name."""


def _check_registered(registry: ProcessRegistry | None, *names: str) -> None:
    if registry is not None:
        for name in names:
            registry.resolve(name)


def build_ifelse_pattern(
    process1: str, process2: str, registry: ProcessRegistry | None = None
) -> PatternInstance:
    """Two-way branch: route d1 by the boolean d0, transform, merge into d6.

    The if/else writes the value to d2 when d0 holds and to d3 otherwise;
    process1 consumes d2, process2 consumes d3, and the merge forwards
    whichever branch ran.
    """
    _check_registered(registry, process1, process2)
    comp = build_composition(
        [
            ("d0", "bool"),
            ("d1", "any"),
            ("d2", "any"),
            ("d3", "any"),
            ("d4", "any"),
            ("d5", "any"),
            ("d6", "any"),
        ],
        [
            # value port first, condition port second
            ("ifelse", "ifelse", ("d1", "d0"), ("d2", "d3")),
            ("p1", "process", ("d2",), ("d4",), process1),
            ("p2", "process", ("d3",), ("d5",), process2),
            ("merge", "merge", ("d4", "d5"), ("d6",)),
        ],
    )
    return PatternInstance(comp, {"condition": 0, "value": 1, "result": 6})


def build_loop_pattern(
    process: str, registry: ProcessRegistry | None = None
) -> PatternInstance:
    """Counted loop: apply a process to the seed while counter < bound.

    d0 is the bound, d3 the seed, d9 the result. The increment drives the
    counter d1, lt tests counter < bound into d2, the merge feeds either the
    seed or the looped-back value into d4, the synchrone pairs test with
    value, and the if/else either continues into the process or exits to d9.
    Equivalent to: v = seed; for (i = 1; i < bound; i++) v = process(v).

    Declaration order matters: it is the scheduler's scan order, and this
    one yields the canonical interleaving for the rotating scan.
    """
    _check_registered(registry, process)
    comp = build_composition(
        [
            ("d0", "num"),
            ("d1", "num"),
            ("d2", "bool"),
            ("d3", "any"),
            ("d4", "any"),
            ("d5", "bool"),
            ("d6", "any"),
            ("d7", "any"),
            ("d8", "any"),
            ("d9", "any"),
        ],
        [
            ("merge", "merge", ("d3", "d8"), ("d4",)),
            ("sync", "sync", ("d2", "d4"), ("d5", "d6")),
            ("incr", "incr", (), ("d1",)),
            ("ifelse", "ifelse", ("d6", "d5"), ("d7", "d9")),
            ("lt", "lt", ("d1", "d0"), ("d2",)),
            ("p1", "process", ("d7",), ("d8",), process),
        ],
    )
    return PatternInstance(comp, {"loop-bound": 0, "seed": 3, "result": 9})
