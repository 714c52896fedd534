"""Shared builders, oracles, and hypothesis strategies for the test suite."""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest

# Bytecode cached under src/ would make the checkout measure as a different
# program from a clean one, so neither this process nor the CLI processes the
# tests start write any. This runs before tokenflow is first imported.
sys.dont_write_bytecode = True
os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")

from tokenflow import (  # noqa: E402
    Composition,
    ExecutionState,
    ParseError,
    RunLimits,
    TokenState,
    TypeMismatch,
    build_composition,
    build_ifelse_pattern,
    build_loop_pattern,
    default_registry,
    emit_composition,
    format_value,
    initial_state,
    parse_composition,
    run_to_convergence,
)
from tokenflow.model import KINDS  # noqa: E402
from tokenflow.patterns import PatternInstance  # noqa: E402
from tokenflow.semantics import Run  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
FLOWS = REPO / "flows"

V, O, N = TokenState.VOID, TokenState.OLD, TokenState.NEW

# (number, verdict, description) tuples collected by the acceptance tests.
ACCEPTANCE_VERDICTS: list[tuple[int, str, str]] = []


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, past any capture."""
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, verdict, description in sorted(ACCEPTANCE_VERDICTS):
        terminalreporter.write_line(
            f"criterion {number}: {verdict} ({description})"
        )


def state_of(comp: Composition, marks: dict, values: dict) -> ExecutionState:
    """initial_state with data names instead of indices."""
    to_idx = {n.name: n.index for n in comp.data}
    return initial_state(
        comp,
        {to_idx[k]: v for k, v in marks.items()},
        {to_idx[k]: v for k, v in values.items()},
    )


def run_of(comp: Composition, state: ExecutionState) -> Run:
    """A fresh run of comp from a copy of state, with nothing committed yet."""
    return Run(comp, state, default_registry(), RunLimits())


def branch_structure(op2_reads: str = "d2") -> Composition:
    """The 7-node branch wiring with plain operators (no special kinds).

    op2_reads selects what the second process reads; the published structural
    example has it sharing d2 with op1.
    """
    return build_composition(
        ["d0", "d1", "d2", "d3", "d4", "d5", "d6"],
        [
            ("op0", "process", ("d0", "d1"), ("d2", "d3"), "identity"),
            ("op1", "process", ("d2",), ("d4",), "add1"),
            ("op2", "process", (op2_reads,), ("d5",), "add1"),
            ("op3", "process", ("d4", "d5"), ("d6",), "add"),
        ],
    )


def stalled_marks() -> tuple[dict, dict]:
    """Marking where the branch structure has nothing enabled."""
    marks = {"d0": O, "d1": O, "d2": O, "d3": V, "d4": N, "d5": V, "d6": V}
    values = {"d0": True, "d1": 5.0, "d2": 5.0, "d4": 6.0}
    return marks, values


def loop_state(pattern: PatternInstance, bound: float, seed) -> ExecutionState:
    """Seed the counted-loop pattern: bound on d0, seed value on d3."""
    return state_of(
        pattern.composition,
        {"d0": N, "d3": N},
        {"d0": float(bound), "d3": seed},
    )


def run_loop(
    bound: float,
    seed,
    process: str = "add1",
    registry=None,
    max_steps: int = 100_000,
) -> tuple[PatternInstance, Run]:
    pattern = build_loop_pattern(process)
    result = run_to_convergence(
        pattern.composition,
        loop_state(pattern, bound, seed),
        registry or default_registry(),
        RunLimits(max_steps),
    )
    return pattern, result


def branch_state(pattern: PatternInstance, condition: bool, value) -> ExecutionState:
    """Seed the branch pattern: condition on d0, routed value on d1."""
    return state_of(
        pattern.composition, {"d0": N, "d1": N}, {"d0": condition, "d1": value}
    )


def run_branch(
    condition: bool, value, p1: str = "add1", p2: str = "identity"
) -> tuple[PatternInstance, Run]:
    pattern = build_ifelse_pattern(p1, p2)
    result = run_to_convergence(
        pattern.composition,
        branch_state(pattern, condition, value),
        default_registry(),
    )
    return pattern, result


def loop_oracle(bound: float, seed, fn) -> tuple[object, int]:
    """Imperative reference: v = seed; for (i = 1; i < bound; i++) v = fn(v)."""
    v, i, count = seed, 1.0, 0
    while i < bound:
        v = fn(v)
        i += 1.0
        count += 1
    return v, count


# Sorts a drawn data node declares: `any` first, as the one hypothesis shrinks
# towards, and as often as the others together, so that most drawn runs get
# past their first firings.
_SORTS = ("any", "any", "any", "num", "bool", "text")
_COND_SORTS = ("any", "bool")


@st.composite
def small_compositions(draw, max_data: int = 6, max_ops: int = 4) -> Composition:
    """Random valid compositions within the small-structure envelope.

    Each data node declares a drawn sort, most often `any`; a node feeding an
    if/else condition port declares `bool` or `any`.
    """
    n_data = draw(st.integers(min_value=1, max_value=max_data))
    names = [f"d{i}" for i in range(n_data)]
    n_ops = draw(st.integers(min_value=1, max_value=max_ops))
    decls = []
    for k in range(n_ops):
        allowed = ["incr", "process"]
        if n_data >= 3:
            allowed += ["merge", "lt"]
        if n_data >= 4:
            allowed += ["ifelse", "sync"]
        kind = draw(st.sampled_from(allowed))
        if kind == "process":
            n_in = draw(st.integers(min_value=0, max_value=min(2, n_data - 1)))
            n_out = 1
        else:
            n_in, n_out = KINDS[kind].inputs, KINDS[kind].outputs
        picks = draw(st.permutations(range(n_data)))
        ins = tuple(names[i] for i in picks[:n_in])
        outs = tuple(names[i] for i in picks[n_in : n_in + n_out])
        decl = (f"op{k}", kind, ins, outs)
        if kind == "process":
            decl += ("add",)
        decls.append(decl)
    cond_ports = {decl[2][1] for decl in decls if decl[1] == "ifelse"}
    sorts = [
        draw(st.sampled_from(_COND_SORTS if name in cond_ports else _SORTS))
        for name in names
    ]
    return build_composition(list(zip(names, sorts)), decls)


# Every code point, lone surrogates (category Cs) included; the second
# branch makes texts holding one common enough to be drawn.
_CHAR = st.characters(exclude_categories=())
_TEXT = st.text(_CHAR, max_size=6) | st.text(
    _CHAR | st.characters(categories=["Cs"]), max_size=6
)


def usable_text(comp: Composition, text: str) -> str:
    """text, or, when it holds a lone surrogate, text with U+FFFD in its place.

    Text UTF-8 cannot encode has no place in a document or a trace, so the
    library, format_value and the document parser must refuse it; that is
    asserted here before the replacement goes on in its place. The document
    carries each lone surrogate raw and every other character escaped.
    """
    if not any(0xD800 <= ord(c) <= 0xDFFF for c in text):
        return text
    with pytest.raises(TypeMismatch, match="lone surrogate"):
        initial_state(comp, {0: TokenState.NEW}, {0: text})
    with pytest.raises(TypeMismatch, match="lone surrogate"):
        format_value(text)
    body = "".join(c if 0xD800 <= ord(c) <= 0xDFFF else json.dumps(c)[1:-1] for c in text)
    document = emit_composition(comp)
    document += f'init {comp.data[0].name} = "{body}"\n'
    lineno = document.count("\n")
    with pytest.raises(ParseError, match=f"^line {lineno}: text .* lone surrogate"):
        parse_composition(document)
    return text.encode("utf-8", "surrogatepass").decode("utf-8", "replace")


@st.composite
def marked_states(draw, comp: Composition, with_text: bool = False):
    """A valid state for comp: random markings, and values of each node's
    sort. Data feeding an if/else condition port gets booleans; other `any`
    data gets numbers, or with with_text sometimes text."""
    cond_ports = {
        op.inputs[1] for op in comp.operators if op.kind == "ifelse"
    }
    marks, values = {}, {}
    for node in comp.data:
        mark = draw(st.sampled_from([V, O, N]))
        marks[node.index] = mark
        if mark == V:
            continue
        sort = node.sort
        if sort == "any" and node.index not in cond_ports:
            sort = "text" if with_text and draw(st.booleans()) else "num"
        if sort == "num":
            values[node.index] = float(draw(st.integers(-50, 50)))
        elif sort == "text":
            values[node.index] = usable_text(comp, draw(_TEXT))
        else:
            values[node.index] = draw(st.booleans())
    return initial_state(comp, marks, values)
