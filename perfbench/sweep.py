#!/usr/bin/env python3
"""One-off scale sweep: cost per firing against composition size.

    python3 perfbench/sweep.py

Runs the `loops-wide` shape at 1, 10 and 100 loops (6, 60 and 600
operators), with the loop bound scaled so each size takes about 6,000
firings, and prints microseconds per firing for the sequential and the
concurrent processor and the size of the serialized trace. This is the
baseline table of ROADMAP item 1; it is not part of the per-change check
and takes about a minute at 600 operators.
"""
from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import gen

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 1
LOOPS = (1, 10, 100)
FIRINGS_PER_SIZE = 6000


def measure(loops: int, seed: int) -> dict:
    from tokenflow import (
        RunLimits,
        default_registry,
        parse_composition,
        run_to_convergence,
        serialize_trace,
        simulate_concurrent,
    )

    work = gen.loops("loops-wide", seed, loops, FIRINGS_PER_SIZE // 6 // loops)
    comp, state, durations = parse_composition(work.text)
    limits = RunLimits(max_steps=work.firings + 1)
    start = time.perf_counter()
    result = run_to_convergence(comp, state, default_registry(), limits)
    seq_s = time.perf_counter() - start
    start = time.perf_counter()
    sim, _ = simulate_concurrent(comp, state, default_registry(), durations, limits)
    sim_s = time.perf_counter() - start
    if not (len(result.trace) == len(sim.trace) == work.firings):
        raise SystemExit(f"{loops} loops: wrong firing count")
    return {
        "ops": len(comp.operators),
        "firings": work.firings,
        "sequential_us_per_firing": seq_s / work.firings * 1e6,
        "concurrent_us_per_firing": sim_s / work.firings * 1e6,
        "trace_mb": len(serialize_trace(result.trace).encode("utf-8")) / 1e6,
    }


def main() -> None:
    sys.path.insert(0, str(SRC))
    rows = [measure(k, SEED) for k in LOOPS]
    print("| ops | firings | sequential µs/firing | concurrent µs/firing | serialized trace |")
    print("| --- | ------- | -------------------- | -------------------- | ---------------- |")
    for r in rows:
        print(
            f"| {r['ops']} | {r['firings']:,} | {r['sequential_us_per_firing']:,.0f}"
            f" | {r['concurrent_us_per_firing']:,.0f} | {r['trace_mb']:.1f} MB |"
        )
    env = {"seed": SEED, "python": sys.version.split()[0], "nproc": os.cpu_count()}
    print(json.dumps({**env, "rows": rows}))


if __name__ == "__main__":
    main()
