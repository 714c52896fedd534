"""Tests of the benchmark itself: generator, oracles, tracer, result line.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer  # noqa: E402
from tokenflow import (  # noqa: E402
    RunLimits,
    default_registry,
    parse_composition,
    run_to_convergence,
    simulate_concurrent,
)

SMALL = [
    gen.loops("small-loop", 5, 1, 2),
    gen.loops("small-loop", 6, 1, 7),
    gen.loops("small-wide", 7, 3, 3),
    gen.loops("small-wide", 8, 4, 5),
    *(gen.tree("small-tree", seed, h) for seed, h in ((9, 1), (10, 2), (11, 4))),
]


@pytest.mark.parametrize("name", list(gen.SIZES))
def test_same_seed_gives_byte_identical_documents(name):
    assert gen.make(name, 42).text == gen.make(name, 42).text
    assert gen.make(name, 42).text != gen.make(name, 43).text


@pytest.mark.parametrize("work", SMALL, ids=lambda w: w.text.splitlines()[0])
def test_oracles_agree_with_the_engine(work):
    comp, state, durations = parse_composition(work.text)
    limits = RunLimits(max_steps=work.firings + 1)
    seq = run_to_convergence(comp, state, default_registry(), limits)
    sim, _ = simulate_concurrent(comp, state, default_registry(), durations, limits)
    assert seq.converged and sim.converged
    assert len(seq.trace) == len(sim.trace) == work.firings
    assert gen.check_final(work, run.summary(comp, seq.final_state)) is None
    assert run.summary(comp, sim.final_state) == run.summary(comp, seq.final_state)


def test_oracle_rejects_a_wrong_final_line():
    work = gen.loops("small-loop", 5, 1, 3)
    comp, state, _ = parse_composition(work.text)
    # halfway through, the exit node holds no token yet
    short = run_to_convergence(comp, state, default_registry(), RunLimits(work.firings // 2))
    assert gen.check_final(work, run.summary(comp, short.final_state)) is not None


def _traced(work):
    tracer = Tracer("test")
    missing = tracer.install()
    try:
        return tracer, missing, run.in_process(work, tracer)
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("work", SMALL[2:], ids=lambda w: w.text.splitlines()[0])
def test_traced_run_matches_untraced_run(work):
    import tokenflow.sequential as sequential

    before = sequential.fire
    plain = run.in_process(work)
    tracer, missing, traced = _traced(work)
    assert missing == []
    assert sequential.fire is before, "uninstall must restore the engine"
    assert run.check_in_process(work, traced, plain) is None
    assert traced["trace_text"].encode() == plain["trace_text"].encode()
    assert traced["run_final"] == plain["run_final"]
    names = {s.name for s in tracer.spans}
    assert {"semantics.fire", "sequential.select_next", "concurrent.startable_set"} <= names


def test_deterministic_counts_repeat_exactly():
    work = gen.tree("tree-fanin", 3, 5)
    first, second = (run.layer_metrics(t, out) for t, _, out in (_traced(work), _traced(work)))
    for key in run.DETERMINISTIC:
        assert first[key] is not None, key
        assert first[key] == second[key], key


def test_self_time_subtracts_other_layers_only():
    tracer = Tracer("test")
    tracer.spans = [
        Span(0, "sequential.run_to_convergence", 0, 100, None),
        Span(1, "sequential.select_next", 10, 20, 0),
        Span(2, "semantics.fire", 20, 60, 0),
        Span(3, "process.call", 30, 40, 2),
    ]
    tracer.installed = {s.name for s in tracer.spans}
    assert tracer.layer_self_ns("sequential.run_to_convergence") == 60
    assert tracer.layer_self_ns("semantics.fire") == 30
    assert tracer.layer_self_ns("concurrent.simulate_concurrent") is None


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    # A tree holding only the benchmark has no engine: no result, non-zero exit.
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    bare = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loop-long", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert bare.returncode != 0
    assert '"correct"' not in bare.stdout
    assert "no tokenflow sources" in bare.stderr


def test_trace_run_reports_every_per_layer_metric(tmp_path):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    # 2 cycles x 2 processors x 602 firings: enough fire calls for a p99
    result = run.traced(gen.loops("small-loop", 4, 1, 100), tmp_path, 0.0, "test")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]

