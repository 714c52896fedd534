"""Seeded generator of benchmark compositions, with closed-form oracles.

Stdlib only, and independent of tokenflow: the engine sees nothing but the
generated `.flow` text. Every shape comes with the number of firings a run
must take and the final value and marking of the nodes whose result can be
written down in closed form:

- a counted loop over `process:add1` ends with seed + bound - 1 on its exit
  node, which holds a New token;
- a counted loop over `process:identity` ends with its text seed there;
- the root of an `add` reduction tree holds the sum of the leaves.

A counted loop is the shape of `flows/c1_loop.flow`: six operators that take
6 * bound + 2 firings between them.
"""
from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field

# Workload name -> size parameters used by the per-run benchmark.
SIZES = {
    "loop-long": {"bound": 800},
    "loops-wide": {"loops": 16, "bound": 6},
    "tree-fanin": {"height": 8},
}

# Letters a text seed is drawn from. The quote, backslash and hash exercise
# the escaping of text literals in documents and traces.
_TEXT_CHARS = string.ascii_letters + string.digits + ' _-#"\\'


@dataclass
class Workload:
    """A generated document and what a correct run of it must produce."""

    name: str
    text: str
    firings: int
    # data node name -> summary token of the `final:` line, e.g. '9(N)'
    expect: dict[str, str] = field(default_factory=dict)


def _fmt_text(s: str) -> str:
    return json.dumps(s, ensure_ascii=False)


def _loop(p: str, bound: int, seed_literal: str, process: str) -> list[str]:
    """Declarations and inits of one counted loop, names prefixed with p."""
    sorts = ["num", "num", "bool", "any", "any", "bool", "any", "any", "any", "any"]
    return [
        *(f"data {p}d{i} {sort}" for i, sort in enumerate(sorts)),
        f"op {p}merge merge ({p}d3, {p}d8) -> ({p}d4)",
        f"op {p}sync sync ({p}d2, {p}d4) -> ({p}d5, {p}d6)",
        f"op {p}incr incr () -> ({p}d1)",
        f"op {p}ifelse ifelse ({p}d6, {p}d5) -> ({p}d7, {p}d9)",
        f"op {p}lt lt ({p}d1, {p}d0) -> ({p}d2)",
        f"op {p}p1 process:{process} ({p}d7) -> ({p}d8)",
        f"init {p}d0 = {bound}",
        f"init {p}d3 = {seed_literal}",
    ]


def loops(name: str, seed: int, count: int, bound: int) -> Workload:
    """`count` independent counted loops; every other one carries text.

    Even-numbered loops add 1 to a number per round, odd-numbered loops pass
    a text seed through `process:identity`.
    """
    if count < 1 or bound < 2:
        raise ValueError("need at least one loop and a bound of at least 2")
    rng = random.Random(f"{name}:{seed}")
    lines: list[str] = [f"# {name} seed={seed} loops={count} bound={bound}"]
    expect: dict[str, str] = {}
    for i in range(count):
        p = f"L{i}_" if count > 1 else ""
        if i % 2 == 0:
            start = rng.randrange(0, 1000)
            lines += _loop(p, bound, str(start), "add1")
            expect[f"{p}d9"] = f"{start + bound - 1}(N)"
        else:
            text = "".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randrange(4, 24)))
            lines += _loop(p, bound, _fmt_text(text), "identity")
            expect[f"{p}d9"] = f"{_fmt_text(text)}(N)"
    return Workload(name, "\n".join(lines) + "\n", count * (6 * bound + 2), expect)


def tree(name: str, seed: int, height: int) -> Workload:
    """Binary `process:add` reduction over 2**height seeded leaves.

    Operators are declared in a seeded shuffled order and carry seeded
    durations, so the concurrent processor sees many completion instants.
    """
    if height < 1:
        raise ValueError("height must be at least 1")
    rng = random.Random(f"{name}:{seed}")
    leaves = [rng.randrange(-1000, 1000) for _ in range(2**height)]
    lines = [f"# {name} seed={seed} height={height}"]
    # level 0 holds the leaves; level `height` holds the single root
    names = [[f"x{j}" for j in range(2**height)]]
    ops = []
    for level in range(1, height + 1):
        row = [
            "root" if level == height else f"s{level}_{i}"
            for i in range(2 ** (height - level))
        ]
        below = names[-1]
        for i, out in enumerate(row):
            ops.append(f"op a{level}_{i} process:add ({below[2 * i]}, {below[2 * i + 1]}) -> ({out})")
        names.append(row)
    lines += [f"data {n} num" for row in names for n in row]
    rng.shuffle(ops)
    lines += ops
    lines += [f"init x{j} = {v}" for j, v in enumerate(leaves)]
    lines += [f"dur {op.split()[1]} = {rng.randrange(1, 10)}" for op in ops]
    return Workload(
        name, "\n".join(lines) + "\n", len(ops), {"root": f"{sum(leaves)}(N)"}
    )


def make(name: str, seed: int) -> Workload:
    """The named workload at the benchmark's size."""
    size = SIZES[name]
    if name == "loop-long":
        return loops(name, seed, 1, size["bound"])
    if name == "loops-wide":
        return loops(name, seed, size["loops"], size["bound"])
    return tree(name, seed, size["height"])


def check_final(work: Workload, line: str) -> str | None:
    """None when the `final:` line matches the oracle, else the reason.

    Node names are unique and text seeds hold no '=', so ' node=value'
    can only match the node's own entry.
    """
    if not line.startswith("final: "):
        return f"not a final line: {line[:80]!r}"
    for node, want in work.expect.items():
        if f" {node}={want}" not in f" {line[len('final: '):]}":
            return f"{node}: want {want}"
    return None
