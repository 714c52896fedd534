"""Command line behavior: output shapes, exit codes, determinism."""
import subprocess
import sys

import pytest

from tokenflow.cli import main
from conftest import FLOWS

LOOP = str(FLOWS / "c1_loop.flow")
BRANCH = str(FLOWS / "c0_ifelse.flow")

LOOP_FINAL = (
    "final: d0=10(O) d1=12(N) d2=false(N) d3=0(O) d4=9(O)"
    " d5=false(O) d6=9(O) d7=8(O) d8=9(O) d9=9(N)"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_reports_counts(capsys):
    code, out, err = run_cli(capsys, "validate", LOOP)
    assert code == 0
    assert out == "ok: 10 data nodes, 6 operators\n"
    assert err == ""


def test_validate_rejects_bad_documents(tmp_path, capsys):
    bad = tmp_path / "bad.flow"
    bad.write_text("data a\nop x process (a) -> (a)\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith("error:")


def test_run_prints_trace_and_summary(capsys):
    code, out, _ = run_cli(capsys, "run", BRANCH)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("step=0 op=ifelse ")
    assert lines[3] == "final: d0=true(O) d1=5(O) d2=5(O) d3=-(V) d4=6(O) d5=-(V) d6=6(N)"


def test_run_quiet_prints_summary_only(capsys):
    code, out, _ = run_cli(capsys, "run", LOOP, "--quiet")
    assert code == 0
    assert out == LOOP_FINAL + "\n"


def test_run_writes_trace_to_a_file(tmp_path, capsys):
    target = tmp_path / "out.trace"
    code, out, _ = run_cli(capsys, "run", LOOP, "--trace", str(target))
    assert code == 0
    assert out == LOOP_FINAL + "\n"
    golden = (FLOWS / "c1_loop.trace").read_text(encoding="utf-8")
    assert target.read_text(encoding="utf-8") == golden


def test_run_seed_override_routes_the_other_branch(capsys):
    code, out, _ = run_cli(
        capsys, "run", BRANCH, "--seed-override", "d0=false", "--quiet"
    )
    assert code == 0
    assert out == "final: d0=false(O) d1=5(O) d2=-(V) d3=5(O) d4=-(V) d5=5(O) d6=5(N)\n"


def test_run_seed_override_text_literal(capsys):
    code, out, _ = run_cli(
        capsys, "run", BRANCH,
        "--seed-override", 'd1="hello"',
        "--seed-override", "d0=false",
        "--quiet",
    )
    assert code == 0
    assert 'd6="hello"(N)' in out


def test_run_exit_code_two_at_the_step_limit(capsys):
    code, out, _ = run_cli(capsys, "run", LOOP, "--max-steps", "5", "--quiet")
    assert code == 2
    assert out.startswith("final: ")


def test_step_fires_a_bounded_number(capsys):
    code, out, _ = run_cli(capsys, "step", LOOP, "--steps", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("step=0 op=merge ")
    assert lines[1].startswith("step=1 op=incr ")
    assert lines[2].startswith("final: ")


def test_step_stops_quietly_at_convergence(capsys):
    code, out, _ = run_cli(capsys, "step", BRANCH, "--steps", "99")
    assert code == 0
    assert len(out.splitlines()) == 4  # three firings, then the summary


def test_graph_emits_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", BRANCH)
    assert code == 0
    assert out.startswith("digraph composition {")
    assert '"d:d0" [label="d0", shape=circle, width=0.2' in out
    assert "fillcolor=blue" in out  # seeded nodes carry New tokens
    assert '"op:p1" [label="p1\\nadd1", shape=circle];' in out
    assert '"d:d2" -> "op:p1";' in out
    assert '"op:p1" -> "d:d4";' in out


def test_simulate_prints_trace_schedule_and_summary(capsys):
    code, out, _ = run_cli(capsys, "simulate", BRANCH)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("step=0 op=ifelse ")
    assert lines[3] == "0\t1\tifelse\t{d2=5}"
    assert lines[5] == "2\t3\tmerge\t{d6=6}"
    assert lines[6].startswith("final: ")


def test_simulate_quiet_matches_sequential_summary(capsys):
    code, out, _ = run_cli(capsys, "simulate", LOOP, "--quiet")
    assert code == 0
    assert out == LOOP_FINAL + "\n"


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "frobnicate", LOOP)[0] == 1
    assert run_cli(capsys)[0] == 1
    code, _, err = run_cli(capsys, "run")
    assert code == 1
    assert err.startswith("usage error:")


def test_bad_seed_override_exits_one(capsys):
    code, _, err = run_cli(capsys, "run", BRANCH, "--seed-override", "nonsense")
    assert code == 1
    assert err.startswith("error:")


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "run", "/no/such/file.flow")
    assert code == 1
    assert err.startswith("error:")


def test_cli_output_is_byte_deterministic():
    cmd = [sys.executable, "-m", "tokenflow", "run", LOOP]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(LOOP_FINAL.encode() + b"\n")


def test_failing_process_exits_one_without_a_traceback(tmp_path):
    doc = tmp_path / "bad.flow"
    doc.write_text(
        "data a num\ndata b num\ndata c num\n"
        "op p process:add1 (a, b) -> (c)\n"  # add1 takes one operand
        "init a = 1\ninit b = 2\n",
        encoding="utf-8",
    )
    for command in ("run", "simulate"):
        done = subprocess.run(
            [sys.executable, "-m", "tokenflow", command, str(doc)],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: operator 'p' at step 0:")
        assert "ValueError" in done.stderr
        assert "Traceback" not in done.stderr


def test_broken_exclusion_exits_one_without_a_traceback(tmp_path, capsys, monkeypatch):
    # With neighborhoods ignored, inc and eat start together although both
    # touch a; inc commits first and moves eat's input mid-flight.
    monkeypatch.setattr(
        "tokenflow.concurrent.neighborhood", lambda comp, op: frozenset()
    )
    doc = tmp_path / "race.flow"
    doc.write_text(
        "data a num\ndata b num\ndata c any\n"
        "op inc incr () -> (a)\n"
        "op eat process:add (a, b) -> (c)\n"
        "init a = 5 old\ninit b = 1\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "simulate", str(doc))
    assert code == 1
    assert err.startswith("error: exclusion rule violated: inputs of 'eat'")
    assert "Traceback" not in err


def test_lone_surrogate_text_exits_one_without_a_traceback(tmp_path):
    doc = tmp_path / "surrogate.flow"
    doc.write_text(
        'data t text\ndata u text\nop p process:identity (t) -> (u)\ninit t = "\\ud800"\n',
        encoding="utf-8",
    )
    for command in ("validate", "run", "simulate", "step", "graph"):
        done = subprocess.run(
            [sys.executable, "-m", "tokenflow", command, str(doc)],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 1, command
        assert done.stderr.startswith("error: line 4: text '\\ud800' holds a lone surrogate")
        assert "Traceback" not in done.stderr
