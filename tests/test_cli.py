"""Command line behavior: output shapes, exit codes, determinism."""
import contextlib
import io
import json
import os
import pstats
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from tokenflow import (
    FlowError,
    ProcessError,
    RunLimits,
    default_registry,
    emit_composition,
    parse_composition,
    run_to_convergence,
    schedule_tsv,
    serialize_trace,
    simulate_concurrent,
)
from tokenflow import cli
from tokenflow.cli import CHUNK, COMMANDS, _read, _summary, main
from tokenflow.dsl import format_pairs, format_value
from tokenflow.usage import parse_args
from conftest import FLOWS, REPO, marked_states, small_compositions

LOOP = str(FLOWS / "c1_loop.flow")
BRANCH = str(FLOWS / "c0_ifelse.flow")
# fails at its 302nd firing under run, past one batch of output
BATCH_FAIL = str(REPO / "tests" / "golden" / "docs" / "fail-after-a-batch.flow")

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


def test_run_refuses_a_trace_path_naming_its_own_document(tmp_path, capsys):
    # However the path is spelled, a trace written over the document it runs
    # would destroy it: the run is refused before the file is opened.
    doc = tmp_path / "loop.flow"
    text = (FLOWS / "c1_loop.flow").read_bytes()
    doc.write_bytes(text)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.flow").symlink_to(doc)
    spellings = (str(doc), str(tmp_path / "sub" / ".." / "loop.flow"),
                 str(tmp_path / "link.flow"))
    for path in spellings:
        for quiet in ([], ["--quiet"]):
            code, out, err = run_cli(capsys, "run", str(doc), "--trace", path, *quiet)
            assert (code, out) == (1, ""), path
            assert err == f"error: --trace {path!r} is the document being run\n"
            assert doc.read_bytes() == text
    # the document named through the link, the trace by its own path
    code, _, err = run_cli(capsys, "run", spellings[2], "--trace", str(doc))
    assert code == 1 and "is the document being run" in err
    assert doc.read_bytes() == text


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
    # The loop converges after 62 firings, so a limit of 62 does not cut it.
    for command in ("run", "simulate"):
        for limit, expected in (("61", 2), ("62", 0)):
            code, _, _ = run_cli(capsys, command, LOOP, "--max-steps", limit, "--quiet")
            assert code == expected, (command, limit)


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
        "tokenflow.semantics.default_registry", lambda: pytest.fail("registry built")
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


def _simulate_as_the_library(doc: Path, comp, state, durations, max_steps: int) -> None:
    """The CLI's simulate of the document emitted for comp prints, byte for
    byte, what the library renderers make of the same run.

    The CLI formats each firing's writes once, for its trace line and its
    schedule row; the library renders each line on its own.
    """
    doc.write_text(emit_composition(comp, state, durations), encoding="utf-8")
    try:
        result, schedule = simulate_concurrent(
            comp, state, default_registry(), durations, RunLimits(max_steps)
        )
    except FlowError as exc:  # the lines of the committed firings, no more
        want = (1, serialize_trace(exc.result.trace))
    else:
        want = (
            0 if result.converged else 2,
            serialize_trace(result.trace)
            + schedule_tsv(schedule)
            + _summary(comp, result.final_state)
            + "\n",
        )
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["simulate", str(doc), "--max-steps", str(max_steps)])
    assert (code, out.getvalue()) == want


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_simulate_prints_what_the_library_renders(tmp_path_factory, data):
    comp = data.draw(small_compositions())
    state = data.draw(marked_states(comp, with_text=True))
    durations = data.draw(
        st.dictionaries(
            st.sampled_from(range(len(comp.operators))),
            st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        )
    )
    max_steps = data.draw(st.integers(1, 6) | st.integers(40, 60))
    doc = tmp_path_factory.getbasetemp() / "drawn.flow"
    _simulate_as_the_library(doc, comp, state, durations, max_steps)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_streamed_lines_and_rows_match_their_events(tmp_path_factory, data):
    # The CLI formats a firing's writes once and shares the text between
    # its trace line and its schedule row. What it streams must equal what
    # format_pairs and format_value make of each event and entry of the
    # same run, in both processors.
    comp = data.draw(small_compositions())
    state = data.draw(marked_states(comp, with_text=True))
    durations = data.draw(
        st.dictionaries(
            st.sampled_from(range(len(comp.operators))),
            st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
        )
    )
    doc = tmp_path_factory.getbasetemp() / "streamed.flow"
    doc.write_text(emit_composition(comp, state, durations), encoding="utf-8")
    for command in ("run", "simulate"):
        committed = []  # the events, or schedule entries, of the library's run
        try:
            if command == "run":
                run_to_convergence(
                    comp, state, default_registry(), RunLimits(40), committed.append
                )
            else:
                simulate_concurrent(
                    comp, state, default_registry(), durations, RunLimits(40),
                    committed.append,
                )
            failed = False
        except FlowError:
            failed = True
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            main([command, str(doc), "--max-steps", "40"])
        lines = out.getvalue().split("\n")
        for entry, line in zip(committed, lines):
            event = getattr(entry, "event", entry)
            assert line.startswith(
                f"step={event.step} op={event.op_name} reads={{{format_pairs(event.reads)}}}"
                f" writes={{{format_pairs(event.writes)}}} marking="
            ), line
        if command == "simulate" and not failed:
            rows = lines[len(committed) : 2 * len(committed)]
            assert rows == [
                f"{format_value(e.start)}\t{format_value(e.end)}\t{e.event.op_name}"
                f"\t{{{format_pairs(e.event.writes)}}}"
                for e in committed
            ]


def test_simulate_prints_escaped_text_booleans_and_fractional_times(tmp_path, capsys):
    # Text that needs escaping, a boolean and times that are not integral,
    # each in the writes that a trace line and a schedule row share.
    comp, state, durations = parse_composition(
        "data t any\ndata u any\ndata a num\ndata b num\ndata c any\n"
        "op fwd process:identity (t) -> (u)\nop inc incr () -> (a)\n"
        "op cmp lt (a, b) -> (c)\n"
        'init t = "q\\"b\\\\s#h\\u2028"\ninit b = 3\n'
        "dur fwd = 0.5\ndur cmp = 1.5\n"
    )
    assert state.values[0] == 'q"b\\s#h\u2028'
    doc = tmp_path / "escaped.flow"
    for max_steps in (2, 100):  # a limit that binds, and one that does not
        _simulate_as_the_library(doc, comp, state, durations, max_steps)
    out = run_cli(capsys, "simulate", str(doc))[1]
    assert 'writes={u="q\\"b\\\\s#h\\u2028"}' in out
    assert '0\t0.5\tfwd\t{u="q\\"b\\\\s#h\\u2028"}\n' in out
    assert "1\t2.5\tcmp\t{c=true}\n" in out


def test_simulate_quiet_matches_sequential_summary(capsys):
    code, out, _ = run_cli(capsys, "simulate", LOOP, "--quiet")
    assert code == 0
    assert out == LOOP_FINAL + "\n"


RUN_HELP = """\
usage: tokenflow run [-h] [--seed-override NAME=LITERAL]
                     [--max-steps MAX_STEPS] [--quiet] [--trace PATH]
                     file

positional arguments:
  file                  composition document

options:
  -h, --help            show this help message and exit
  --seed-override NAME=LITERAL
                        replace an init value (repeatable)
  --max-steps MAX_STEPS
  --quiet               summary only
  --trace PATH          write the trace to PATH instead of stdout
"""


def test_help_and_abbreviated_options_are_read_by_argparse(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    for argv, help_start in (
        (["-h"], "usage: tokenflow [-h] {validate,run,step,simulate,graph} ...\n"),
        (["run", "-h"], RUN_HELP),
        (["run", LOOP, "--he"], RUN_HELP),
        (["validate", "--help"], "usage: tokenflow validate [-h] file\n"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(help_start), argv
    target = tmp_path / "out.trace"
    code, out, _ = run_cli(capsys, "run", LOOP, "--max", "5", f"--trace={target}")
    assert (code, out.startswith("final: ")) == (2, True)
    assert len(target.read_text(encoding="utf-8").splitlines()) == 5


def test_usage_errors_exit_one(capsys):
    for argv, message in (
        ([], "the following arguments are required: command"),
        (["frobnicate", LOOP], "argument command: invalid choice: 'frobnicate'"
         " (choose from 'validate', 'run', 'step', 'simulate', 'graph')"),
        (["run"], "the following arguments are required: file"),
        (["run", LOOP, "--max-steps", "0"], "argument --max-steps: must be at least 1, got 0"),
        (
            ["simulate", LOOP, "--max-steps", "-3"],
            "argument --max-steps: must be at least 1, got -3",
        ),
        (
            ["run", LOOP, "--max-steps", "x"],
            "argument --max-steps: invalid positive_int value: 'x'",
        ),
        (["step", LOOP, "--steps", "x"], "argument --steps: invalid int value: 'x'"),
        (["run", LOOP, "--trace"], "argument --trace: expected one argument"),
        (["run", LOOP, "extra"], "unrecognized arguments: extra"),
        (["graph", LOOP, "--quiet"], "unrecognized arguments: --quiet"),
    ):
        assert run_cli(capsys, *argv) == (1, "", f"usage error: {message}\n"), argv


_VALUES = st.text(max_size=6).filter(lambda word: not word.startswith("-"))
_ODD_VALUES = st.one_of(
    st.integers(-5, 5).map(str),
    st.sampled_from(
        ["", "x", "+2", " 7", "1_0", "\u0663", "2.5", "-", "--", "-x", "-h", "--quiet"]
    ),
)
_LONE_WORDS = st.sampled_from(["--", "-", "-h", "--help", "-x", "--bogus", "extra", "run"])
_ALL_OPTIONS = sorted({o[:2] for _, _, options in COMMANDS.values() for o in options})


@st.composite
def _command_line(draw, spelled_out: bool) -> list[str]:
    """A command, then its file and options in any order, options repeated.

    Spelled out, each option is one of the command's, named in full and
    followed by a value it takes. Otherwise the command may be unknown, and
    options of other commands, abbreviated options, --opt=value, options
    without their value, odd values, lone words such as -- and -h, and a
    missing or second file come in as well.
    """
    commands = [*COMMANDS] if spelled_out else [*COMMANDS, "frob", "-h", ""]
    command = draw(st.sampled_from(commands))
    options = [option[:2] for option in COMMANDS.get(command, ("", "", ()))[2]]
    if not spelled_out and draw(st.booleans()):
        options += _ALL_OPTIONS
    items = [[draw(_VALUES)]]  # the file
    chosen = draw(st.lists(st.sampled_from(options), max_size=5)) if options else ()
    for option, kind in chosen:
        if kind == "flag":
            value = []
        elif kind == "limit":
            value = [str(draw(st.integers(1, 10**6)))]
        elif kind == "int":  # a negative count starts with -, which argparse reads
            value = [str(draw(st.integers(0, 99)))]
        else:
            value = [draw(_VALUES)]
        odd = "" if spelled_out else draw(
            st.sampled_from(["", "", "", "value", "none", "short", "="])
        )
        if odd == "value":
            value = [draw(_ODD_VALUES)]
        elif odd == "none":
            value = []
        elif odd == "short":
            option = option[: draw(st.integers(3, len(option) - 1))]
        elif odd == "=" and value:
            option, value = f"{option}={value[0]}", []
        items.append([option, *value])
    if not spelled_out:
        items += [[word] for word in draw(st.lists(_LONE_WORDS | _VALUES, max_size=2))]
        if draw(st.integers(0, 3)) == 0:
            items.pop(0)  # no file
    return [command, *(word for item in draw(st.permutations(items)) for word in item)]


@settings(max_examples=500, deadline=None)
@given(argv=_command_line(spelled_out=False))
@example(argv=["run", "F", "--max-steps", "0"])
@example(argv=["simulate", "F", "--max-steps", "-3"])
@example(argv=["run", "F", "--max-steps", "x"])
@example(argv=["step", "F", "--steps", "x"])
@example(argv=["step", "F", "--steps", "-2"])
@example(argv=["run", "F", "--trace", "-x"])
@example(argv=["run", "F", "--seed-override", "-"])
@example(argv=["run", "F", "--trace"])
@example(argv=["run", "F", "--max", "5"])
@example(argv=["run", "F", "--trace=G"])
@example(argv=["run", "--", "F"])
@example(argv=["run", "-", "F"])
@example(argv=["run", "F", "-h"])
@example(argv=["run", "F", "G"])
@example(argv=["graph", "F", "--quiet"])
@example(argv=["validate"])
def test_the_reader_reads_as_argparse_does(argv):
    # What _read does not pass on, argparse reads the same.
    args = _read(argv)
    if args is not None:
        assert vars(args) == vars(parse_args(argv))


@settings(max_examples=200, deadline=None)
@given(argv=_command_line(spelled_out=True))
def test_the_reader_reads_every_command_spelled_out(argv):
    args = _read(argv)
    assert args is not None
    assert vars(args) == vars(parse_args(argv))


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


def test_a_run_imports_only_what_it_uses(tmp_path):
    # A module a bare interpreter already loads (through site, say) is not
    # charged to tokenflow. A command spelled out in full is read without
    # argparse, which brings gettext and locale with it.
    heavy = {
        "dataclasses", "inspect", "argparse", "gettext", "locale",
        "tokenflow.patterns", "tokenflow.dot", "tokenflow.emit", "tokenflow.usage",
    }
    modules = "import json, sys; print(json.dumps(sorted(sys.modules)))"
    bare = set(json.loads(_python(modules).stdout))
    trace = str(tmp_path / "out.trace")
    for argv in (
        ["run", LOOP, "--quiet"],
        ["run", LOOP, "--trace", trace, "--max-steps", "100"],
        ["simulate", LOOP],
        ["step", LOOP, "--steps", "3"],
        ["validate", LOOP],
        ["graph", LOOP],
    ):
        script = (
            "import contextlib, io\n"
            "from tokenflow import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
        )
        loaded = set(json.loads(_python(script + modules).stdout)) - bare
        unused = heavy - {"tokenflow.dot"} if argv[0] == "graph" else heavy
        assert unused & loaded == set(), argv
        if argv[0] in ("validate", "graph"):
            # A command that fires nothing loads neither the firing rules
            # nor a processor.
            assert {"tokenflow.semantics", "tokenflow.sequential"} & loaded == set(), argv
        if argv[0] == "simulate":
            assert "tokenflow.sequential" not in loaded
    _python(
        "import tokenflow\n"
        "from tokenflow import build_loop_pattern\n"
        "assert tokenflow.can_fire is tokenflow.semantics.can_fire\n"
        "from tokenflow import *\n"
        "assert build_loop_pattern is tokenflow.build_loop_pattern\n"
        "assert all(name in globals() for name in tokenflow.__all__)\n"
        # a run is its own result: no wrapper type is exported
        "assert len(tokenflow.__all__) == 30 and not hasattr(tokenflow, 'RunResult')\n"
    )


def test_text_is_read_and_written_without_the_json_module(tmp_path):
    # A text literal is read and printed by dsl itself: a run of a document
    # carrying text, escaped or plain, does not load json.
    if _python("import sys; print('json' in sys.modules)").stdout.split() != ["False"]:
        pytest.skip("a bare interpreter loads json already")
    trace = str(tmp_path / "out.trace")
    for doc in ("edge-json-escapes.flow", "loops-wide.flow"):
        path = str(REPO / "tests" / "golden" / "docs" / doc)
        for argv in (["run", path, "--trace", trace], ["simulate", path]):
            script = (
                "import contextlib, io, sys\n"
                "from tokenflow import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert cli.main({argv!r}) == 0\n"
                "print('json' in sys.modules)\n"
            )
            assert _python(script).stdout.split() == ["False"], argv


# AST nodes of the tokenflow modules a command loads. Every CLI process
# compiles them from source when no bytecode is cached, so this bounds the
# fixed cost of each run. A budget only goes down: lower it when a change
# shrinks the path, and never raise it.
RUN_PATH_BUDGETS = {"run": 7_922, "simulate": 8_514}


def test_the_run_path_stays_within_its_budget():
    count = (  # the nodes of each loaded tokenflow module, by module name
        "import ast, json, sys\n"
        "from pathlib import Path\n"
        "print(json.dumps({\n"
        "    n: len(list(ast.walk(ast.parse(Path(m.__file__).read_text(encoding='utf-8')))))\n"
        "    for n, m in sorted(sys.modules.items()) if n.split('.')[0] == 'tokenflow'\n"
        "}))\n"
    )
    for command, budget in RUN_PATH_BUDGETS.items():
        script = (
            "import contextlib, io\n"
            "from tokenflow import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main([{command!r}, {LOOP!r}, '--quiet']) == 0\n"
        )
        nodes = json.loads(_python(script + count).stdout)
        total = sum(nodes.values())
        assert total <= budget, f"{command}: {total} nodes, budget {budget}: {nodes}"


def _python(script: str) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "run", "/no/such/file.flow")
    assert code == 1
    assert err.startswith("error:")


def test_an_empty_file_argument_is_named_as_given(capsys):
    # not as ".", the directory an empty path would resolve to
    for command in ("validate", "run", "simulate"):
        code, out, err = run_cli(capsys, command, "")
        assert (code, out) == (1, ""), command
        assert err == "error: [Errno 2] No such file or directory: ''\n", command


def test_cli_output_is_byte_deterministic():
    cmd = [sys.executable, "-m", "tokenflow", "run", LOOP]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(LOOP_FINAL.encode() + b"\n")


def _tokenflow(argv, stdout, **options) -> subprocess.CompletedProcess:
    """python -m tokenflow argv, its stdout going to the given file."""
    cmd = [sys.executable, *options.pop("python", ()), "-m", "tokenflow", *argv]
    return subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, **options)


def test_a_cli_process_prints_what_main_prints(tmp_path, capsys):
    # The process ends by os._exit once main has returned: what it leaves on
    # stdout, on stderr and in a trace file, and its exit code, are main's.
    doc = tmp_path / "bad.flow"
    doc.write_text('data a\ndata c\nop q process:add1 (a) -> (c)\ninit a = "x"\n', encoding="utf-8")
    cases = (
        (["run", LOOP], 0),
        (["run", LOOP, "--trace", "TRACE"], 0),
        (["simulate", LOOP], 0),
        (["step", LOOP, "--steps", "3"], 0),
        (["validate", LOOP], 0),
        (["run", LOOP, "--max-steps", "7"], 2),
        (["simulate", LOOP, "--max-steps", "7", "--quiet"], 2),
        (["run", str(doc)], 1),
        (["simulate", str(doc)], 1),
        (["run", BATCH_FAIL], 1),
        (["run", BATCH_FAIL, "--trace", "TRACE", "--quiet"], 1),
        (["simulate", BATCH_FAIL], 1),
    )
    out = tmp_path / "out"
    for argv, code in cases:
        made = []
        for side in ("main", "process"):
            trace = tmp_path / f"{side}.trace"
            args = [str(trace) if a == "TRACE" else a for a in argv]
            if side == "main":
                made.append((main(args), *capsys.readouterr()))
            else:
                with open(out, "wb") as fh:
                    done = _tokenflow(args, fh)
                made.append((done.returncode, out.read_text("utf-8"), done.stderr.decode()))
            if "TRACE" in argv:
                made[-1] += (trace.read_text("utf-8"),)
        assert made[0] == made[1], argv
        assert made[0][0] == code, argv


def test_stdout_on_a_full_device_exits_one(tmp_path):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    long = _loop_document(tmp_path, 1000)  # fails at a write in mid-run
    cases = (
        ["run", LOOP],
        ["validate", LOOP],
        ["simulate", LOOP],
        ["run", LOOP, "--trace", "/dev/full"],
        ["run", BATCH_FAIL],
        ["simulate", BATCH_FAIL],
        ["simulate", long],
        ["run", long, "--trace", "/dev/full"],
    )
    for argv in cases:
        with open("/dev/full", "w") as full:
            done = _tokenflow(argv, full)
        assert done.returncode == 1, argv
        assert re.fullmatch(rb"error: \[Errno 28\] [^\n]*\n", done.stderr), done.stderr


def test_a_closed_stdout_exits_one_with_one_error_line():
    # Started with stdout closed, the process has no sys.stdout at all.
    for argv in (["validate", LOOP], ["run", LOOP], ["simulate", LOOP, "--quiet"], ["-h"]):
        done = subprocess.run(
            [sys.executable, "-m", "tokenflow", *argv],
            stderr=subprocess.PIPE,
            preexec_fn=lambda: os.close(1),
        )
        assert done.returncode == 1, argv
        assert done.stderr == b"error: [Errno 9] stdout is closed\n", argv


def test_help_that_cannot_be_written_exits_one(tmp_path):
    # argparse drops an error writing its help; buffered, the help would
    # only fail at the interpreter's last flush. With stdout on a working
    # file the help is printed as before, and the exit code is 0.
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    out = tmp_path / "help"
    for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
        for argv in (["-h"], ["run", "-h"], ["run", LOOP, "--he"]):
            with open("/dev/full", "w") as full:
                done = _tokenflow(argv, full, env=env | extra)
            assert done.returncode == 1, (argv, extra)
            assert re.fullmatch(rb"error: \[Errno 28\] [^\n]*\n", done.stderr), done.stderr
            with open(out, "wb") as fh:
                done = _tokenflow(argv, fh, env=env | extra | {"COLUMNS": "80"})
            assert (done.returncode, done.stderr) == (0, b""), (argv, extra)
            help_start = "usage: tokenflow [-h]" if argv == ["-h"] else RUN_HELP
            assert out.read_text(encoding="utf-8").startswith(help_start), (argv, extra)


def test_a_broken_pipe_exits_one_with_one_error_line(tmp_path):
    # The trace is far longer than a pipe holds, so the process is still
    # writing when the reader goes. Buffered, the unwritten bytes must not
    # be flushed again once main has reported the error.
    doc = _loop_document(tmp_path, 2000)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
        proc = subprocess.Popen(
            [sys.executable, "-m", "tokenflow", "run", doc],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env | extra,
        )
        assert proc.stdout.read(10) == b"step=0 op="
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1, extra
        assert err == b"error: [Errno 32] Broken pipe\n", extra


def test_entry_skips_the_teardown_only_without_a_hook(monkeypatch):
    ended = []
    monkeypatch.setattr(cli.os, "_exit", ended.append)
    monkeypatch.setattr(sys, "argv", ["tokenflow", "run", LOOP, "--max-steps", "3"])
    for hooks in ((None, None), (print, None), (None, print)):
        monkeypatch.setattr(sys, "gettrace", lambda: hooks[0])
        monkeypatch.setattr(sys, "getprofile", lambda: hooks[1])
        if hooks == (None, None):
            cli.entry()  # os._exit, here a list's append, returns
            assert ended == [2]
        else:
            with pytest.raises(SystemExit) as exc:
                cli.entry()
            assert exc.value.code == 2 and ended == [2]


def test_a_profiled_or_inspected_process_ends_normally(tmp_path):
    # cProfile writes its report after the run, and python -i reads on from
    # stdin after it; os._exit would end the process before either.
    report = tmp_path / "profile.out"
    done = _tokenflow(
        ["run", LOOP, "--quiet"],
        subprocess.PIPE,
        python=("-m", "cProfile", "-o", str(report)),
    )
    assert done.stdout == (LOOP_FINAL + "\n").encode()
    assert report.stat().st_size > 0
    assert pstats.Stats(str(report)).total_calls > 0
    done = _tokenflow(
        ["validate", LOOP], subprocess.PIPE, python=("-i",), input=b"print('read on')\n"
    )
    assert done.stdout == b"ok: 10 data nodes, 6 operators\nread on\n"


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


def _third_call_fails(values, count):
    if count == 2:
        raise RuntimeError("third call")
    return [values[0] + 1.0]


def test_a_failing_run_leaves_the_lines_of_its_committed_firings(
    tmp_path, capsys, monkeypatch
):
    # Trace lines go out as firings commit, so a run that fails mid-way
    # leaves exactly the trace of its result, and no summary.
    def failing_registry():
        registry = default_registry()
        registry.register("add1", _third_call_fails)
        return registry

    monkeypatch.setattr("tokenflow.semantics.default_registry", failing_registry)
    comp, state, durations = parse_composition(Path(LOOP).read_text(encoding="utf-8"))
    target = tmp_path / "out.trace"
    cases = (
        (["run", LOOP], run_to_convergence, None),
        (["run", LOOP, "--trace", str(target)], run_to_convergence, target),
        (["simulate", LOOP], simulate_concurrent, None),
    )
    for argv, processor, trace_file in cases:
        with pytest.raises(ProcessError) as exc:
            args = (durations,) if processor is simulate_concurrent else ()
            processor(comp, state, failing_registry(), *args)
        result = exc.value.result
        assert len(result.trace) > 0, argv
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err.startswith(f"error: operator 'p1' at step {len(result.trace)}: ")
        written = out if trace_file is None else trace_file.read_text(encoding="utf-8")
        assert written == serialize_trace(result.trace), argv
        assert "final:" not in out + written
        if trace_file is not None:
            assert out == ""


def _loop_document(tmp_path, bound: int) -> str:
    """flows/c1_loop.flow counting to bound: 6 * bound + 2 firings."""
    doc = tmp_path / f"loop{bound}.flow"
    text = Path(LOOP).read_text(encoding="utf-8")
    doc.write_text(text.replace("init d0 = 10\n", f"init d0 = {bound}\n"), encoding="utf-8")
    return str(doc)


class _Sink:
    """A stdout that counts its writes and keeps no text."""

    def __init__(self):
        self.writes = self.size = 0

    def write(self, text):
        self.writes += 1
        self.size += len(text.encode("utf-8"))
        return len(text)

    def flush(self):
        pass


class _FullSink(_Sink):
    """A stream whose every write fails, as on a full device."""

    def write(self, text):
        self.writes += 1
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


def test_a_write_failing_in_a_batch_is_not_tried_again(tmp_path, monkeypatch, capsys):
    # The batch leaves the pending list before it is written: the pass that
    # ends the run finds nothing to render, and nothing is written again.
    doc = _loop_document(tmp_path, 1000)
    for argv in (["run", doc], ["simulate", doc], ["run", doc, "--trace", "TRACE"]):
        sink = _FullSink()
        if "TRACE" in argv:
            def opened(path, mode="r", **options):  # the trace file is the sink
                return sink if mode == "w" else open(path, mode, **options)

            monkeypatch.setattr(cli, "open", opened, raising=False)
        else:
            monkeypatch.setattr(sys, "stdout", sink)
        assert main(argv) == 1, argv
        monkeypatch.undo()
        assert sink.writes == 1, argv
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_stdout_gets_few_large_writes(tmp_path, monkeypatch):
    # One write per line would be one system call per firing on an
    # unbuffered stdout.
    doc = _loop_document(tmp_path, 1000)
    for argv in (["run", doc], ["simulate", doc], ["step", doc, "--steps", "6002"]):
        sink = _Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(argv) == 0, argv
        assert sink.size > 10 * CHUNK, argv
        assert sink.writes <= sink.size // CHUNK + 2, (argv, sink.writes, sink.size)


def _peak_bytes(monkeypatch, argv) -> int:
    """Peak traced memory of one CLI call, its output discarded."""
    monkeypatch.setattr(sys, "stdout", _Sink())
    assert main(argv) == 0  # imports and caches before the measured call
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_streamed_run_holds_no_more_memory_for_more_firings(tmp_path, monkeypatch):
    short, long = _loop_document(tmp_path, 100), _loop_document(tmp_path, 1000)
    out = str(tmp_path / "out.trace")
    for extra in (["--trace", out], ["--quiet"]):
        grown = _peak_bytes(monkeypatch, ["run", long, *extra]) - _peak_bytes(
            monkeypatch, ["run", short, *extra]
        )
        assert grown <= 64 * 1024, (extra, grown)
    # simulate holds back its schedule rows, which come after the trace
    rows = []
    for doc in (short, long):
        comp, state, durations = parse_composition(Path(doc).read_text(encoding="utf-8"))
        _, schedule = simulate_concurrent(comp, state, default_registry(), durations)
        rows.append(len(schedule_tsv(schedule)))
    grown = _peak_bytes(monkeypatch, ["simulate", long]) - _peak_bytes(
        monkeypatch, ["simulate", short]
    )
    assert grown <= 2 * (rows[1] - rows[0]), (grown, rows)


def test_a_cli_run_builds_its_start_marking_once(tmp_path, capsys, monkeypatch):
    # Cost gate: the CLI builds the start pairs its renderer needs, and a
    # run given a commit hook builds no Trace of its own. With no trace
    # sink, under --quiet, it builds neither; a --trace file is still one.
    from tokenflow import semantics

    built = []

    class Counted(semantics.Trace):
        def __init__(self, comp, initial):
            built.append(len(comp.data))
            super().__init__(comp, initial)

    monkeypatch.setattr(semantics, "Trace", Counted)
    out = str(tmp_path / "out.trace")
    cases = {
        ("run", LOOP): [10],
        ("run", LOOP, "--trace", out): [10],
        ("run", LOOP, "--trace", out, "--quiet"): [10],
        ("simulate", LOOP): [10],
        ("step", LOOP, "--steps", "3"): [10],
        ("run", LOOP, "--quiet"): [],
        ("simulate", LOOP, "--quiet"): [],
    }
    for argv, starts in cases.items():
        built.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert (code, built) == (0, starts), argv


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


def test_a_non_utf8_byte_is_named_at_the_parsers_line(tmp_path, capsys):
    # Lines break where str.splitlines breaks them: at \r, and at U+2028 in a
    # comment, as well as at \n. The same document with valid text in place
    # of the bad byte fails on the same line.
    doc = tmp_path / "breaks.flow"
    cases = (
        (b'data a\rdata b\ninit a = "\xff"\n', 3),
        ('# c\u2028\ndata a\ninit a = "'.encode() + b'\xff"\n', 4),
    )
    for data, line in cases:
        doc.write_bytes(data)
        code, out, err = run_cli(capsys, "validate", str(doc))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: line {line}: not UTF-8: byte 0xff"), err
        doc.write_bytes(data.replace(b'\xff"', b"x"))
        err = run_cli(capsys, "validate", str(doc))[2]
        assert err == f"error: line {line}: unterminated text literal\n", err


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
