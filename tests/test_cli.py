"""Command line behavior: output shapes, exit codes, determinism."""
import contextlib
import io
import json
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tokenflow import parse_composition
from tokenflow.cli import _summary, main
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


@pytest.mark.parametrize("name", ["c1_loop.flow", "c0_ifelse.flow"])
def test_step_equals_a_bounded_run(capsys, name):
    doc = str(FLOWS / name)
    for steps in ("1", "7", "1000"):  # 1000 is past convergence for both
        code, stepped, _ = run_cli(capsys, "step", doc, "--steps", steps)
        assert code == 0
        _, bounded, _ = run_cli(capsys, "run", doc, "--max-steps", steps)
        assert stepped == bounded, steps
    comp, state, _ = parse_composition((FLOWS / name).read_text(encoding="utf-8"))
    for steps in ("0", "-2"):
        code, out, _ = run_cli(capsys, "step", doc, "--steps", steps)
        assert code == 0
        assert out == _summary(comp, state) + "\n"


def test_graph_emits_dot(capsys, monkeypatch):
    # graph fires nothing, so it needs no process registry
    monkeypatch.setattr(
        "tokenflow.cli.default_registry", lambda: pytest.fail("registry built")
    )
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
    for command, limit in (("run", "0"), ("simulate", "-3")):
        code, out, err = run_cli(capsys, command, LOOP, "--max-steps", limit)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: argument --max-steps: must be at least 1")


def test_bad_seed_override_exits_one(capsys):
    code, _, err = run_cli(capsys, "run", BRANCH, "--seed-override", "nonsense")
    assert code == 1
    assert err.startswith("error:")


def test_seed_override_errors_name_the_argument(capsys):
    for item, message in (
        ("d0=xyz", "bad literal 'xyz'"),
        ("nope=1", "no data node named 'nope'"),
        ('d0="text"', "data 'd0' is declared bool but got a text value"),
        ("nonsense", "want name=literal"),
    ):
        code, out, err = run_cli(capsys, "run", BRANCH, "--seed-override", item)
        assert (code, out) == (1, "")
        assert err == f"error: --seed-override {item!r}: {message}\n"


def test_a_run_imports_only_what_it_uses():
    # A module a bare interpreter already loads (through site, say) is not
    # charged to tokenflow.
    heavy = {"dataclasses", "inspect", "tokenflow.patterns", "tokenflow.dot"}
    modules = "import json, sys; print(json.dumps(sorted(sys.modules)))"
    run = (
        "import contextlib, io\n"
        "from tokenflow import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['run', {LOOP!r}, '--quiet']) == 0\n"
    )
    bare, loaded = (
        set(json.loads(_python(script).stdout)) for script in (modules, run + modules)
    )
    assert heavy & (loaded - bare) == set()
    _python(
        "import tokenflow\n"
        "from tokenflow import build_loop_pattern\n"
        "from tokenflow import *\n"
        "assert build_loop_pattern is tokenflow.build_loop_pattern\n"
        "assert all(name in globals() for name in tokenflow.__all__)\n"
    )


def _python(script: str) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done


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
    # Each document fails at the first firing, of operator q.
    documents = [
        (  # add1 takes one operand: the process function itself raises
            "data a num\ndata b num\ndata c num\n"
            "op q process:add1 (a, b) -> (c)\ninit a = 1\ninit b = 2\n",
            "process 'add1' raised ValueError",
        ),
        (
            'data a\ndata c\nop q process:add1 (a) -> (c)\ninit a = "x"\n',
            "add1 needs number operands, got 'x'",
        ),
        (
            "data a\ndata c\nop q process:nope (a) -> (c)\ninit a = 1\n",
            "no process registered under 'nope'",
        ),
        (
            'data a\ndata c num\nop q process:identity (a) -> (c)\ninit a = "x"\n',
            "data 'c' is declared num but got a text value",
        ),
        (
            "data v\ndata c\ndata t\ndata f\nop q ifelse (v, c) -> (t, f)\n"
            "init v = 1\ninit c = 2\n",
            "if/else condition must be a boolean, got 2.0",
        ),
        (
            "data a\ndata b\ndata c\nop q process:identity (a, b) -> (c)\n"
            "init a = 1\ninit b = 2\n",
            "process 'identity' returned 2 values, operator writes 1",
        ),
    ]
    doc = tmp_path / "bad.flow"
    for text, message in documents:
        doc.write_text(text, encoding="utf-8")
        for command in ("run", "simulate"):
            done = subprocess.run(
                [sys.executable, "-m", "tokenflow", command, str(doc)],
                capture_output=True,
                text=True,
            )
            assert done.returncode == 1, (command, text)
            assert done.stderr.startswith("error: operator 'q' at step 0: " + message)
            assert "Traceback" not in done.stderr


def test_broken_exclusion_exits_one_without_a_traceback(tmp_path, capsys, monkeypatch):
    # With neighborhoods ignored, inc and eat start together although both
    # touch a; inc commits first and moves eat's input mid-flight.
    monkeypatch.setattr(
        "tokenflow.semantics.neighborhood", lambda comp, op: frozenset()
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


def test_non_utf8_document_exits_one_without_a_traceback(tmp_path, capsys):
    doc = tmp_path / "latin1.flow"
    doc.write_bytes(b'data t text\ninit t = "caf\xe9"\n')
    for command in ("validate", "run", "simulate"):
        code, out, err = run_cli(capsys, command, str(doc))
        assert code == 1, command
        assert out == ""
        assert err.startswith("error: line 2: not UTF-8: byte 0xe9"), err


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


# Pieces of the document grammar, valid and not, for the parser fuzz test.
_NAMES = st.sampled_from(["a", "b", "c", "x_1", "a b", "", "é"])
_TOKENS = st.one_of(
    _NAMES,
    st.sampled_from([
        "data", "op", "init", "dur", "#", "(", ")", "->", ",", "=", ":", "old",
        "bool", "num", "text", "any", "process", "ifelse", "merge", "sync",
        "incr", "lt", "gate", "process:add1", "process:identity", "process:",
        "true", "false", "1", "-0", "0.5", "1e999", "nan", "-", '"t"', '"',
        '"\\ud800"', '"\\n"', "\t", "\r", "\x85", "\u2028", "\ufeff",
    ]),
)
_LINES = st.one_of(
    st.lists(_TOKENS, max_size=8).map(" ".join),
    st.lists(_TOKENS, max_size=8).map("".join),
    st.builds("data {} {}".format, _NAMES, st.sampled_from(["num", "any", "x"])),
    st.builds(
        "op {} {} ({}) -> ({})".format,
        _NAMES,
        st.sampled_from(["incr", "lt", "merge", "sync", "ifelse", "process:add"]),
        st.lists(_NAMES, max_size=3).map(", ".join),
        st.lists(_NAMES, max_size=3).map(", ".join),
    ),
    st.builds("init {} = {}".format, _NAMES, _TOKENS),
    st.builds("dur {} = {}".format, _NAMES, _TOKENS),
)


_HEADER = ["data a num", "data b num", "data c any"]  # so more lines build


def _encode(parts: tuple[list[str], list[str]]) -> bytes:
    return "\n".join(parts[0] + parts[1]).encode("utf-8")


_TEXT_DOCUMENTS = st.tuples(
    st.sampled_from([[], _HEADER]), st.lists(_LINES, max_size=10)
).map(_encode)
_DOCUMENTS = st.one_of(
    st.binary(max_size=200),
    _TEXT_DOCUMENTS,
    st.tuples(  # a document cut short by bytes that may not be UTF-8
        _TEXT_DOCUMENTS, st.binary(min_size=1, max_size=4)
    ).map(b"".join),
)


@settings(max_examples=300, deadline=None)
@given(data=_DOCUMENTS)
def test_validate_never_raises(tmp_path_factory, data):
    doc = tmp_path_factory.getbasetemp() / "fuzz.flow"
    doc.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(doc)])
    if code == 0:
        assert out.getvalue().startswith("ok: ") and err.getvalue() == ""
    else:
        assert code == 1
        # every error in a document names its line
        assert re.match(r"error: line [1-9]\d*: ", err.getvalue())
