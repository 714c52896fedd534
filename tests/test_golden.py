"""Byte identity of command-line output against the golden corpus.

Every case of tests/golden/cases.json runs through cli.main in process, and
a few as processes, which end through cli.entry(). See tests/golden_corpus.py
for what the corpus holds and how to regenerate it.
"""
import json
import os
import subprocess
import sys

import pytest

from golden_corpus import CASES, REPO, TRACE, record, run_in_process

RECORDS = json.loads(CASES.read_text(encoding="utf-8"))

# Cases also run as `python -m tokenflow`: a trace on stdout and in a file, a
# step limit, a failure part-way through a run, a document that is not UTF-8
# and a usage error.
IN_A_PROCESS = (
    "run flows/c1_loop.flow",
    "run-trace-file flows/c1_loop.flow",
    "simulate-max-5 flows/c1_loop.flow",
    "simulate tests/golden/docs/fail-add1-on-text.flow",
    "validate tests/golden/docs/read-not-utf8.flow",
    "usage: unknown option",
)


# Cases run as processes under two hash seeds: runs and schedules of the
# workloads and of the documents whose processors part, names and text that
# need escaping, a drawing, a trace file and a refused document.
HASH_SEEDS = ("0", "987654")
UNDER_HASH_SEEDS = (
    "run tests/golden/docs/tree-fanin.flow",
    "simulate tests/golden/docs/tree-fanin.flow",
    "simulate tests/golden/docs/loops-wide.flow",
    "simulate tests/golden/docs/diverge-merge-race.flow",
    "run tests/golden/docs/diverge-two-writers.flow",
    "simulate tests/golden/docs/edge-names-and-text.flow",
    "run-trace-file tests/golden/docs/edge-wide-names.flow",
    "graph tests/golden/docs/loops-wide.flow",
    "validate tests/golden/docs/build-duplicate-output.flow",
)


def _expected(name):
    return {k: v for k, v in RECORDS[name].items() if k != "argv"}


@pytest.mark.parametrize("name", list(RECORDS))
def test_cli_output_matches_the_corpus(name, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    made = run_in_process(RECORDS[name]["argv"], tmp_path / "run.trace")
    assert made == _expected(name)


@pytest.mark.parametrize("name", IN_A_PROCESS)
def test_a_cli_process_matches_the_corpus(name, tmp_path):
    trace = tmp_path / "run.trace"
    argv = [str(trace) if a == TRACE else a for a in RECORDS[name]["argv"]]
    done = subprocess.run(
        [sys.executable, "-m", "tokenflow", *argv], cwd=REPO, capture_output=True
    )
    made = {
        "exit": done.returncode,
        "stdout": record(done.stdout.decode("utf-8")),
        "stderr": record(done.stderr.decode("utf-8")),
    }
    if trace.exists():
        made["trace"] = record(trace.read_text(encoding="utf-8"))
    assert made == _expected(name)


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # Each sampled case prints the same bytes, trace file included, as a
    # process under either hash seed.
    for name in UNDER_HASH_SEEDS:
        made, traced = [], TRACE in RECORDS[name]["argv"]
        for seed in HASH_SEEDS:
            trace = tmp_path / f"{seed}.trace"
            argv = [str(trace) if a == TRACE else a for a in RECORDS[name]["argv"]]
            done = subprocess.run(
                [sys.executable, "-m", "tokenflow", *argv],
                cwd=REPO,
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            wrote = trace.read_bytes() if traced else None
            made.append((done.returncode, done.stdout, done.stderr, wrote))
        assert made[0] == made[1], name
