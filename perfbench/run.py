#!/usr/bin/env python3
"""tokenflow benchmark: the CLI end to end, and a traced per-layer run.

    python3 perfbench/run.py --workload loop-long --seed 1 --seconds 30 --trace 0

Run from the root of a tokenflow checkout; the engine is imported from, and
the CLI run as `python -m tokenflow` against, that checkout's `src`.

With --trace 0 the benchmark times `tokenflow run FILE --trace OUT` and
`tokenflow simulate FILE` subprocesses, one at a time, for --seconds, and
times `parse_composition` in process between them; these timings are
rescaled to machine speed by a reference job (see REF_NOMINAL_S). With
--trace 1 it runs the engine in process, untraced and then traced (see
spans.py), and reports per-layer metrics. Every run's output is checked
against the generator's oracle. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs every
workload in turn. METRICS.md lists the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
UNITS = {
    m["name"]: m["unit"]
    for kind in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
}

# A CLI run taking longer than this is killed and counted as failed.
CLI_TIMEOUT_S = 60.0
# parse_composition timings taken before each timed CLI pair.
SETUP_SAMPLES = 8
# Traced cycles always run, so deterministic counts can be compared.
MIN_CYCLES = 2
# The CPU speed of a shared VM drifts by 10-20% over minutes, for the CLI
# children and a pure-Python job in this process alike. So every timed pair is
# followed by a fixed reference job (reference_s), and end-to-end timings
# are rescaled by REF_NOMINAL_S / its time: the drift cancels, a slower
# engine still shows. REF_NOMINAL_S is about the job's median time on the
# 2-vCPU machine the bounds were set on, so rescaled values stay near the
# raw ones there.
REF_NOMINAL_S = 0.25


class Tally:
    """Runs attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAILED {what}: {problem}", file=sys.stderr)
        return not problem

    def result(self, values: dict[str, float | None]) -> dict:
        """The result line; metrics whose value is None are absent."""
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                k: {"value": v, "unit": UNITS[k]} for k, v in values.items() if v is not None
            },
        }


# ------------------------------------------------------------------ CLI


def cli(argv: list[str], stdout_path: Path) -> tuple[float, int, float]:
    """Run `python -m tokenflow argv`; (wall s, exit code, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "tokenflow", *argv], stdout=out, stderr=err, env=env
        )
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cli_run(work: gen.Workload, doc: Path, tmp: Path) -> tuple[float, float, str, str | None]:
    """One checked `tokenflow run`: (wall s, peak MB, final line, problem)."""
    trace, stdout = tmp / "run.trace", tmp / "run.out"
    wall, code, rss = cli(
        ["run", str(doc), "--trace", str(trace), "--max-steps", str(work.firings + 1)],
        stdout,
    )
    if code != 0:
        return wall, rss, "", f"exit code {code}"
    lines = stdout.read_text(encoding="utf-8").splitlines()
    final = lines[-1] if lines else ""
    problem = gen.check_final(work, final)
    if problem is None:
        lines = trace.read_text(encoding="utf-8").splitlines()
        if len(lines) != work.firings or not all(l.startswith("step=") for l in lines):
            problem = f"trace has {len(lines)} lines, want one per firing ({work.firings})"
    return wall, rss, final, problem


def cli_simulate(
    work: gen.Workload, doc: Path, tmp: Path, run_final: str | None
) -> tuple[float, float, str | None]:
    """One checked `tokenflow simulate`: (wall s, peak MB, problem)."""
    stdout = tmp / "simulate.out"
    wall, code, rss = cli(["simulate", str(doc), "--max-steps", str(work.firings + 1)], stdout)
    if code != 0:
        return wall, rss, f"exit code {code}"
    lines = stdout.read_text(encoding="utf-8").splitlines()
    final = lines[-1] if lines else ""
    steps = sum(1 for l in lines if l.startswith("step="))
    slots = sum(1 for l in lines if "\t" in l)
    if run_final is not None and final != run_final:
        return wall, rss, "final line differs from `run`"
    problem = gen.check_final(work, final)
    if problem is None and not steps == slots == work.firings:
        problem = f"{steps} trace and {slots} schedule lines, want {work.firings} each"
    return wall, rss, problem


def time_setup(text: str) -> list[float]:
    from tokenflow import dsl

    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        dsl.parse_composition(text)
        samples.append(time.perf_counter() - start)
    return samples


def reference_s() -> float:
    """Wall time of a fixed pure-Python job that does not use tokenflow.

    Integer arithmetic, then small dicts, tuples and string formatting: the
    kind of interpreter work the engine does.
    """
    start = time.perf_counter()
    x = 0
    for i in range(1_500_000):
        x += i * i
    out = []
    for i in range(120_000):
        d = {"a": i, "b": str(i), "c": (i, i + 1)}
        out.append(f"{d['a']}={d['b']}:{d['c'][1]}")
        if len(out) > 100:
            out = [",".join(out)[:10]]
    return time.perf_counter() - start


def end_to_end(work: gen.Workload, tmp: Path, seconds: float) -> dict:
    doc = tmp / f"{work.name}.flow"
    doc.write_text(work.text, encoding="utf-8")
    tally = Tally()
    setup: list[float] = []
    run_rate, sim_rate, run_rss, sim_rss, slowdown = [], [], [], [], []

    def pair() -> tuple[float, float, float, float]:
        wall, rss_r, final, problem = cli_run(work, doc, tmp)
        ok_r = tally.check("run", problem)
        wall_s, rss_s, problem = cli_simulate(work, doc, tmp, final if ok_r else None)
        ok_s = tally.check("simulate", problem)
        # a failed run did no useful work: it counts as zero firings
        return (ok_r * work.firings / wall, ok_s * work.firings / wall_s, rss_r, rss_s)

    pair()  # warm-up: bytecode caches and page cache, checked but not timed
    deadline = time.perf_counter() + seconds
    while not run_rate or time.perf_counter() < deadline:
        setup_raw = time_setup(work.text)
        r, s, rr, sr = pair()
        slow = reference_s() / REF_NOMINAL_S
        setup += [t / slow for t in setup_raw]
        run_rate.append(r * slow)
        sim_rate.append(s * slow)
        run_rss.append(rr)
        sim_rss.append(sr)
        slowdown.append(slow)
    med = statistics.median
    print(
        f"{work.name}  unscaled: run {med(r / f for r, f in zip(run_rate, slowdown)):.6g} 1/s,"
        f" simulate {med(s / f for s, f in zip(sim_rate, slowdown)):.6g} 1/s;"
        f" reference {med(slowdown) * REF_NOMINAL_S:.4g} s; {len(run_rate)} timed pairs"
    )
    return tally.result(
        {
            "run_firings_per_s": med(run_rate),
            "simulate_firings_per_s": med(sim_rate),
            "setup_s": med(setup),
            "run_peak_rss_mb": med(run_rss),
            "simulate_peak_rss_mb": med(sim_rss),
        }
    )


# ---------------------------------------------------------- traced run


def summary(comp, state) -> str:
    """The CLI's `final:` line for a state, from public names only.

    A copy of `cli._summary`: the benchmark imports no private name, so that
    a later tree may rename CLI internals without breaking it.
    """
    from tokenflow import dsl

    return "final: " + " ".join(
        f"{n.name}={dsl.format_value(state.values[n.index])}({state.marking[n.index].code})"
        for n in comp.data
    )


def in_process(work: gen.Workload, tracer=None) -> dict:
    """parse + run + serialize, then simulate + schedule, as the CLI does.

    Module attributes are looked up at call time, so a tracer installed on
    them sees every call.
    """
    from tokenflow import concurrent, dsl, semantics, sequential

    mark = tracer.mark if tracer else (lambda phase: None)
    registry = semantics.default_registry()
    if tracer:
        for name in registry.names():
            # the user's share of the run, not engine time
            registry.register(name, tracer.timed("process.call", registry.resolve(name)))
    limits = sequential.RunLimits(max_steps=work.firings + 1)

    start = time.perf_counter()
    comp, state, durations = dsl.parse_composition(work.text)
    mark("setup")
    result = sequential.run_to_convergence(comp, state, registry, limits)
    mark("run")
    trace_text = dsl.serialize_trace(result.trace)
    mark("serialize")
    run_done = time.perf_counter()
    sim, schedule = concurrent.simulate_concurrent(comp, state, registry, durations, limits)
    mark("simulate")
    sim_text = dsl.serialize_trace(sim.trace) + concurrent.schedule_tsv(schedule)
    mark("schedule")
    end = time.perf_counter()

    makespan = max((e.end for e in schedule), default=0.0)
    return {
        "run_s": run_done - start,
        "total_s": end - start,
        "trace_text": trace_text,
        "sim_text": sim_text,
        "run_final": summary(comp, result.final_state),
        "sim_final": summary(comp, sim.final_state),
        "run_firings": len(result.trace),
        "sim_firings": len(sim.trace),
        "converged": result.converged and sim.converged,
        "makespan": makespan,
        "busy": sum(e.end - e.start for e in schedule),
    }


def check_in_process(work: gen.Workload, out: dict, reference: dict | None) -> str | None:
    if "error" in out:
        return out["error"]
    if not out["converged"]:
        return "did not converge"
    if out["run_final"] != out["sim_final"]:
        return "run and simulate end in different states"
    if not out["run_firings"] == out["sim_firings"] == work.firings:
        return f"{out['run_firings']}/{out['sim_firings']} firings, want {work.firings}"
    if reference is not None:
        for key in ("trace_text", "sim_text", "run_final"):
            if out[key] != reference[key]:
                return f"traced {key} differs from the untraced run"
    return gen.check_final(work, out["run_final"])


# Deterministic per-layer values: they must repeat exactly between cycles.
DETERMINISTIC = (
    "dsl.trace_bytes",
    "model.state_copies_per_firing",
    "semantics.can_fire_per_firing",
    "sequential.firings",
    "concurrent.startable_set_per_firing",
    "concurrent.enabled_set_per_firing",
    "concurrent.makespan_vt",
    "concurrent.mean_parallelism",
)


def layer_metrics(tracer, out: dict) -> dict[str, float | None]:
    """Per-layer values of one traced cycle; None where a span is absent."""

    def s(ns):
        return None if ns is None else ns / 1e9

    def per(count, firings):
        return None if count is None else count / firings

    phase = tracer.phase_counts
    seq_f, sim_f = out["run_firings"], out["sim_firings"]
    copies = [phase[p].get("model.ExecutionState.copy") for p in ("run", "simulate")]
    return {
        "dsl.parse_s": s(tracer.layer_self_ns("dsl.parse_composition")),
        "dsl.serialize_trace_s": s(tracer.total_ns("dsl.serialize_trace")),
        "dsl.trace_bytes": len(out["trace_text"].encode("utf-8")),
        "model.build_composition_s": s(tracer.total_ns("model.build_composition")),
        "model.initial_state_s": s(tracer.total_ns("model.initial_state")),
        "model.state_copies_per_firing": None if None in copies else sum(copies) / (seq_f + sim_f),
        "semantics.fire_self_s": s(tracer.layer_self_ns("semantics.fire")),
        "semantics.can_fire_per_firing": per(phase["run"].get("semantics.can_fire"), seq_f),
        "semantics.process_s": s(tracer.total_ns("process.call")),
        "sequential.run_s": s(tracer.total_ns("sequential.run_to_convergence")),
        "sequential.run_self_s": s(tracer.layer_self_ns("sequential.run_to_convergence")),
        "sequential.select_next_s": s(tracer.total_ns("sequential.select_next")),
        "sequential.firings": seq_f,
        "concurrent.simulate_s": s(tracer.total_ns("concurrent.simulate_concurrent")),
        "concurrent.simulate_self_s": s(tracer.layer_self_ns("concurrent.simulate_concurrent")),
        "concurrent.startable_set_s": s(tracer.total_ns("concurrent.startable_set")),
        "concurrent.startable_set_per_firing": per(tracer.calls("concurrent.startable_set"), sim_f),
        "concurrent.enabled_set_per_firing": per(tracer.calls("sequential.enabled_set"), sim_f),
        "concurrent.schedule_tsv_s": s(tracer.total_ns("concurrent.schedule_tsv")),
        "concurrent.makespan_vt": out["makespan"],
        "concurrent.mean_parallelism": out["busy"] / out["makespan"] if out["makespan"] else None,
    }


def traced(work: gen.Workload, tmp: Path, seconds: float, run_id: str) -> dict:
    from spans import Tracer

    doc = tmp / f"{work.name}.flow"
    doc.write_text(work.text, encoding="utf-8")
    tally = Tally()
    cycles: list[dict] = []
    fire_us: list[float] = []
    untraced_run, untraced_total, traced_total, cli_wall = [], [], [], []
    tracer = missing = None
    attempts = 0
    deadline = time.perf_counter() + seconds
    while attempts < MIN_CYCLES or time.perf_counter() < deadline:
        attempts += 1
        try:
            plain = in_process(work)
        except Exception as exc:  # a broken engine is a failed run, not a crash
            plain = {"error": repr(exc)}
        if not tally.check("in-process run", check_in_process(work, plain, None)):
            continue
        tracer = Tracer(f"{run_id}-{len(cycles)}")
        missing = tracer.install()
        try:
            out = in_process(work, tracer)
        except Exception as exc:
            out = {"error": repr(exc)}
        finally:
            tracer.uninstall()
        if not tally.check("traced run", check_in_process(work, out, plain)):
            continue
        wall, _, _, problem = cli_run(work, doc, tmp)
        tally.check("run", problem)
        cycle = layer_metrics(tracer, out)
        if cycles:
            changed = [k for k in DETERMINISTIC if cycle[k] != cycles[0][k]]
            tally.check("deterministic counts", f"changed: {changed}" if changed else None)
        cycles.append(cycle)
        fire_us += [ns / 1e3 for ns in tracer.durations_ns("semantics.fire")]
        untraced_run.append(plain["run_s"])
        untraced_total.append(plain["total_s"])
        traced_total.append(out["total_s"])
        cli_wall.append(wall)
    if not cycles:
        return tally.result({})

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{run_id}.jsonl")
    if missing:
        print(f"absent (not in this tree): {', '.join(missing)}", file=sys.stderr)

    med = statistics.median
    values: dict[str, float | None] = {}
    for key in cycles[0]:
        got = [c[key] for c in cycles]
        values[key] = None if None in got else (got[0] if key in DETERMINISTIC else med(got))
    if len(fire_us) >= 1000:
        cuts = statistics.quantiles(fire_us, n=100)
        values["semantics.fire_us_p50"], values["semantics.fire_us_p99"] = cuts[49], cuts[98]
    values["cli.overhead_s"] = med(cli_wall) - med(untraced_run)
    values["trace.overhead_share"] = med(traced_total) / med(untraced_total) - 1.0
    return tally.result(values)


# ----------------------------------------------------------------- main


def bench_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = gen.make(workload, seed)
    env = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "size": gen.SIZES[workload],
        "firings": work.firings,
        "trace": int(trace),
    }
    print(json.dumps({"env": env}))
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        if trace:
            result = traced(work, Path(tmp), seconds, f"{workload}-seed{seed}")
        else:
            result = end_to_end(work, Path(tmp), seconds)
    for name, m in result["metrics"].items():
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{workload}  failed_share = {share:.6g} ({result['failed']}/{result['attempted']})")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*gen.SIZES, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tokenflow" / "__init__.py").is_file():
        print(f"error: no tokenflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tokenflow

    if Path(tokenflow.__file__).resolve().parent != SRC / "tokenflow":
        print(f"error: imported tokenflow from {tokenflow.__file__}", file=sys.stderr)
        return 2

    names = list(gen.SIZES) if args.workload == "all" else [args.workload]
    results = [bench_one(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    print(json.dumps(results[0] if args.workload != "all" else dict(zip(names, results))))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
