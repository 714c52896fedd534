"""The golden corpus of command-line output: cases, documents and records.

Each case is one `tokenflow` command line, run with the repository root as
the working directory. Its record holds the exit code, stdout, stderr and,
for `run --trace`, the trace file, as UTF-8. An output up to SMALL bytes is
kept as text, so that a mismatch shows a diff; a larger one as its SHA-256
digest and its length. tests/test_golden.py runs every case through
`cli.main` in process, and a few as `python -m tokenflow` processes, and
compares each with its record.

The documents live in tests/golden/docs (and flows/), and the records in
tests/golden/cases.json. Regenerate both with

    PYTHONPATH=src python3 tests/golden_corpus.py

Regenerating changes the expected output. Do it only for an intended change
of output, and say which cases changed and why.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
DOCS = GOLDEN / "docs"
CASES = GOLDEN / "cases.json"
SMALL = 4096  # the largest output kept as text
TRACE = "{trace}"  # stands in the argv of a case for the trace file's path
WORKLOAD_SEED = 1

# Documents that fail to load, by file name: one for each error the reader
# raises, each error the model raises while building, and each seed it
# refuses. A bytes document is written as it is.
FAULTY: dict[str, str | bytes] = {
    # the reader (dsl.CompositionDocument.parse)
    "read-data-arity.flow": "data\n",
    "read-data-words.flow": "data a num extra\n",
    "read-unknown-declaration.flow": "node a\n",
    "read-bad-op.flow": "data a\ndata b\nop x merge (a) ->\n",
    "read-bad-init.flow": "data a\ninit a 5\n",
    "read-bad-dur.flow": "data a\ndata b\nop p process:add1 (a) -> (b)\ndur p\n",
    "read-duplicate-init.flow": "data a\ninit a = 1\ninit a = 2\n",
    "read-unterminated-text.flow": 'data a\ninit a = "abc\n',
    "read-trailing-word.flow": "data a\ninit a = 5 new\n",
    "read-bad-literal.flow": "data a\ninit a = maybe\n",
    "read-bad-text-literal.flow": 'data a\ninit a = "\\q"\n',
    "read-infinite-number.flow": "data a\ninit a = 1e999\n",
    "read-lone-surrogate.flow": 'data a\ninit a = "\\ud800"\n',
    "read-duplicate-dur.flow": (
        "data a\ndata b\nop p process:add1 (a) -> (b)\ndur p = 1\ndur p = 2\n"
    ),
    "read-zero-dur.flow": "data a\ndata b\nop p process:add1 (a) -> (b)\ndur p = 0\n",
    "read-word-dur.flow": "data a\ndata b\nop p process:add1 (a) -> (b)\ndur p = 5x\n",
    "read-infinite-dur.flow": "data a\ndata b\nop p process:add1 (a) -> (b)\ndur p = 1e999\n",
    "read-not-utf8.flow": b"data a\n# caf\xe9\ndata b\n",
    # the model (model.build_composition and the seeds)
    "build-bad-data-name.flow": "data 1a\n",
    "build-unknown-sort.flow": "data a float\n",
    "build-data-twice.flow": "data a\ndata a num\n",
    "build-bad-op-name.flow": "data a\ndata b\nop 1x process:add1 (a) -> (b)\n",
    "build-op-twice.flow": (
        "data a\ndata b\ndata c\n"
        "op p process:add1 (a) -> (b)\nop p process:add1 (b) -> (c)\n"
    ),
    "build-unknown-kind.flow": "data a\ndata b\nop p fold (a) -> (b)\n",
    "build-needs-process.flow": "data a\ndata b\nop p process (a) -> (b)\n",
    "build-takes-no-process.flow": "data a\ndata b\ndata c\nop m merge:add1 (a, b) -> (c)\n",
    "build-bad-process-name.flow": "data a\ndata b\nop p process:1x (a) -> (b)\n",
    "build-unknown-input.flow": "data b\nop p process:add1 (a) -> (b)\n",
    "build-unknown-output.flow": "data a\nop p process:add1 (a) -> (b)\n",
    "build-input-count.flow": "data a\ndata c\nop m merge (a) -> (c)\n",
    "build-output-count.flow": "data a\ndata b\ndata c\nop i ifelse (a, b) -> (c)\n",
    "build-no-output.flow": "data a\nop p process:add1 (a) -> ()\n",
    "build-duplicate-output.flow": "data a\ndata b\nop p process:identity (a) -> (b, b)\n",
    "build-reads-what-it-writes.flow": "data a\ndata b\nop p process:identity (a, b) -> (b)\n",
    "build-init-unknown-data.flow": "data a\ninit b = 1\n",
    "build-dur-unknown-operator.flow": "data a\ndata b\nop p process:add1 (a) -> (b)\ndur q = 1\n",
    "build-seed-of-wrong-sort.flow": "data a num\ninit a = true\n",
}

# Documents that load and then fail part-way through a run. The clock of
# fail-clock-overflow passes the largest float, and p2's duration vanishes
# into the clock of fail-duration-vanishes (1e17 + 1 == 1e17), under
# simulate only, since run keeps no time.
FAILING: dict[str, str] = {
    "fail-add1-on-text.flow": (
        "data a\ndata b\ndata c\n"
        "op p process:identity (a) -> (b)\nop q process:add1 (b) -> (c)\n"
        'init a = "x"\n'
    ),
    "fail-condition-not-bool.flow": (
        "data c\ndata v\ndata t\ndata f\nop i ifelse (v, c) -> (t, f)\n"
        "init c = 1\ninit v = 2\n"
    ),
    "fail-write-of-wrong-sort.flow": (
        "data a\ndata b num\nop p process:identity (a) -> (b)\ninit a = \"x\"\n"
    ),
    "fail-unregistered-process.flow": (
        "data a\ndata b\nop p process:nosuch (a) -> (b)\ninit a = 1\n"
    ),
    "fail-clock-overflow.flow": (
        "data a\ndata b\ndata c\n"
        "op p1 process:add1 (a) -> (b)\nop p2 process:add1 (b) -> (c)\n"
        "init a = 1\ndur p1 = 1e308\ndur p2 = 1e308\n"
    ),
    "fail-duration-vanishes.flow": (
        "data a\ndata b\ndata c\n"
        "op p1 process:add1 (a) -> (b)\nop p2 process:add1 (b) -> (c)\n"
        "init a = 1\ndur p1 = 1e17\ndur p2 = 1\n"
    ),
    # perfbench's counted loop over process:identity, with bound 50 (302
    # firings), whose text exit value then fails add1: each run fails after
    # more firings than the CLI renders in one batch.
    "fail-after-a-batch.flow": (
        "data d0 num\ndata d1 num\ndata d2 bool\ndata d3 any\ndata d4 any\n"
        "data d5 bool\ndata d6 any\ndata d7 any\ndata d8 any\ndata d9 any\ndata x\n"
        "op merge merge (d3, d8) -> (d4)\nop sync sync (d2, d4) -> (d5, d6)\n"
        "op incr incr () -> (d1)\nop ifelse ifelse (d6, d5) -> (d7, d9)\n"
        "op lt lt (d1, d0) -> (d2)\nop p1 process:identity (d7) -> (d8)\n"
        "op bad process:add1 (d9) -> (x)\n"
        'init d0 = 50\ninit d3 = "batch"\n'
    ),
}

# Documents that run to the end, with what a trace line must spell out:
# data names with non-ASCII letters, which NAME admits after the first, and
# text holding a quote, a backslash and a line separator (U+2028), which
# format_value escapes. Each value is written, then read by a later firing.
EDGES: dict[str, str] = {
    "edge-names-and-text.flow": (
        "data aé1 text\ndata bñ2 text\ndata cü3 bool\ndata d名4 text\n"
        "data eß5 bool\ndata fø6 text\ndata gø7 text\ndata hå8 num\ndata iå9 num\n"
        "op pé process:identity (aé1) -> (bñ2)\n"
        "op sñ sync (bñ2, cü3) -> (d名4, eß5)\n"
        "op iü ifelse (d名4, eß5) -> (fø6, gø7)\n"
        "op qå process:add1 (hå8) -> (iå9)\n"
        'init aé1 = "say \\"hi\\" \\\\ then\\u2028more"\n'
        "init cü3 = true\ninit hå8 = -0\n"
    ),
    # Text seeds written with every escape of the JSON string grammar, in
    # both cases of hex digit and as an escaped surrogate pair, and values
    # that print escaped: control characters as \u00XX, and U+0085, U+2028
    # and U+2029, which str.splitlines breaks lines at. U+007F, U+00A0 and
    # an astral character print as they are.
    "edge-json-escapes.flow": (
        "data a text\ndata b text\ndata c text\ndata d text\n"
        "data e text\ndata f any\ndata g text\ndata h text\ndata k bool\n"
        "op p process:identity (a) -> (b)\n"
        "op q process:identity (c) -> (d)\n"
        "op s sync (b, k) -> (e, f)\n"
        "op t process:identity (d) -> (g)\n"
        "op u merge (e, g) -> (h)\n"
        'init a = "q\\" bs\\\\ sl\\/ b\\b f\\f n\\n r\\r t\\t'
        ' e\\u00e9 E\\u00C9 pair\\ud83d\\ude00 PAIR\\uD83D\\uDE00"\n'
        'init c = "nul\\u0000 one\\u0001 us\\u001f del\\u007f nel\\u0085'
        ' ls\\u2028 ps\\u2029 nbsp\\u00a0 raw😀 é/"\n'
        "init k = true\n"
    ),
    # More than 100 data nodes, named with letters of two, three and four
    # UTF-8 bytes, so that the offsets of the marking column are not those
    # of the characters.
    "edge-wide-names.flow": "".join(
        f"data aé{i} any\ndata b名{i}\ndata c𝔡{i}\n"
        f"op pñ{i} process:identity (aé{i}) -> (b名{i})\n"
        f"op qø{i} process:identity (b名{i}) -> (c𝔡{i})\n"
        + (f'init aé{i} = "v{i}é\\n"\n' if i % 3 else f"init aé{i} = {i}.5\n")
        for i in range(40)
    ),
}

# Documents on which run and simulate end differently: a reachable marking
# enables two operators that share a data node, so the scan and the start
# pass may pick different ones. Two writers of one node, re-enabled at one
# instant; two readers of one node; and a merge whose inputs arrive at one
# instant under simulate, since pb takes 2, and one after the other under
# run, so that each processor forwards a different one.
DIVERGING: dict[str, str] = {
    "diverge-two-writers.flow": (
        "data d0\ndata d1\n"
        "op op0 incr () -> (d0)\nop op1 process:add (d0) -> (d1)\n"
        "op op2 incr () -> (d0)\n"
    ),
    "diverge-two-readers.flow": (
        "data d0\ndata d1\ndata d2\n"
        "op op0 merge (d0, d1) -> (d2)\nop op1 incr () -> (d0)\n"
        "op op2 merge (d0, d2) -> (d1)\n"
    ),
    "diverge-merge-race.flow": (
        "data s1\ndata s2\ndata t\ndata a\ndata b\ndata c\n"
        "op pb process:identity (s2) -> (b)\nop m merge (a, b) -> (c)\n"
        "op pt process:identity (s1) -> (t)\nop pa process:identity (t) -> (a)\n"
        "init s1 = 1\ninit s2 = 2\ndur pb = 2\n"
    ),
}

# Text literals the reader refuses: an escape JSON does not have, a \u with
# fewer than four hex digits, a raw tab, and halves of a surrogate pair that
# do not make one ("\ud800" alone is read-lone-surrogate above).
FAULTY_TEXT: dict[str, str] = {
    f"read-text-{label}.flow": f"data a\ninit a = {literal}\n"
    for label, literal in {
        "bad-escape": '"\\x"',
        "short-u-escape": '"\\u12"',
        "raw-tab": '"a\tb"',
        "lone-low-surrogate": '"\\udc00"',
        "high-then-letter": '"\\ud83d\\u0041"',
    }.items()
}

WORKLOADS = ("loop-long", "loops-wide", "tree-fanin")


def _gen():
    """perfbench/gen.py, which the benchmark generates its documents with."""
    spec = importlib.util.spec_from_file_location("golden_gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclass looks its module up
    spec.loader.exec_module(gen)
    return gen


def write_documents() -> None:
    """Write every document of the corpus into DOCS."""
    DOCS.mkdir(parents=True, exist_ok=True)
    for old in DOCS.iterdir():
        old.unlink()
    gen = _gen()
    docs = {f"{w}.flow": gen.make(w, WORKLOAD_SEED).text for w in WORKLOADS}
    for name, text in {**FAULTY, **FAULTY_TEXT, **FAILING, **EDGES, **DIVERGING, **docs}.items():
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        (DOCS / name).write_bytes(data)


def _doc(name: str) -> str:
    return f"tests/golden/docs/{name}"


def cases() -> dict[str, list[str]]:
    """Case name -> argv, in the order the corpus lists them."""
    out: dict[str, list[str]] = {}
    good = [f"flows/{p.name}" for p in sorted((REPO / "flows").glob("*.flow"))]
    good += [_doc(f"{w}.flow") for w in WORKLOADS]
    commands = {
        "run": ["run"],
        "run-quiet": ["run", "--quiet"],
        "run-trace-file": ["run", "--trace", TRACE],
        "run-max-5": ["run", "--max-steps", "5"],
        "simulate": ["simulate"],
        "simulate-quiet": ["simulate", "--quiet"],
        "simulate-max-5": ["simulate", "--max-steps", "5"],
        "step-7": ["step", "--steps", "7"],
        "step-0": ["step", "--steps", "0"],
        "graph": ["graph"],
        "validate": ["validate"],
    }
    for path in good:
        for label, (command, *options) in commands.items():
            out[f"{label} {path}"] = [command, path, *options]
    for name in FAULTY:
        for command in ("validate", "run"):
            out[f"{command} {_doc(name)}"] = [command, _doc(name)]
    for name in FAILING:
        for command in ("run", "simulate"):
            out[f"{command} {_doc(name)}"] = [command, _doc(name)]
    # Each sink on its own: --quiet silences stdout and leaves a --trace
    # file written, and a failing run's committed lines reach the sink.
    failing = [_doc("fail-add1-on-text.flow"), _doc("fail-after-a-batch.flow")]
    for path in [p for p in good if p.startswith("flows/")] + failing:
        out[f"run-trace-file-quiet {path}"] = ["run", path, "--trace", TRACE, "--quiet"]
    fail = _doc("fail-add1-on-text.flow")
    out[f"step-3 {fail}"] = ["step", fail, "--steps", "3"]
    out[f"simulate-quiet {fail}"] = ["simulate", fail, "--quiet"]
    # A step limit inside a batch of output, past the first.
    long = _doc("loop-long.flow")
    for command in ("run", "simulate"):
        out[f"{command}-max-300 {long}"] = [command, long, "--max-steps", "300"]
    for name in FAULTY_TEXT:
        for command in ("validate", "run", "simulate"):
            out[f"{command} {_doc(name)}"] = [command, _doc(name)]
    for name in EDGES:
        for label in ("run-trace-file", "simulate", "validate"):
            command, *options = commands[label]
            out[f"{label} {_doc(name)}"] = [command, _doc(name), *options]
    for name in DIVERGING:
        for command in ("run", "simulate"):
            out[f"{command} {_doc(name)}"] = [command, _doc(name)]
    branch, loop = "flows/c0_ifelse.flow", "flows/c1_loop.flow"
    overrides = [
        ("run", branch, "d0=false"),
        ("run", branch, 'd1="hello"'),
        ("simulate", branch, "d1=2.5"),
        ("run", branch, "d2=1"),  # a node with no init line takes a New token
        ("run", loop, "d0=3"),
        ("run", loop, 'd3="text"'),  # fails at its first add1
        ("simulate", loop, 'd3="text"'),
        ("run", branch, "d0"),
        ("run", branch, "=5"),
        ("run", branch, "d0=maybe"),
        ("run", branch, 'd1="open'),
        ("run", branch, "d0=5"),
        ("run", branch, "nosuch=1"),
        ("run", loop, "d0=1e999"),
        # text literals, read as the reader reads them in a document
        ("run", branch, 'd1="tab\\there \\"q\\" \\u00e9\\ud83d\\ude00 \\/"'),
        ("simulate", branch, 'd1="ls\\u2028 nel\\u0085 us\\u001F é😀"'),
        ("run", branch, 'd1=""'),
        ("run", branch, 'd1=" padded "'),
        ("run", branch, 'd1="\\x"'),
        ("run", branch, 'd1="\\ud800"'),
        ("run", branch, 'd1="\\u12"'),
        ("run", branch, 'd1="a"b"'),
        ("run", branch, 'd1="a\tb"'),  # a raw tab
        ("run", branch, 'd1="abc\\"'),
        ("run", branch, 'd1="'),
        ("run", branch, 'd1="a" "b"'),
    ]
    for command, path, item in overrides:
        out[f"{command} {path} --seed-override {item}"] = [
            command, path, "--seed-override", item
        ]
    out["usage: no file"] = ["run"]
    out["usage: unknown command"] = ["frobnicate", branch]
    out["usage: unknown option"] = ["run", branch, "--bogus"]
    out["usage: zero max-steps"] = ["run", branch, "--max-steps", "0"]
    out["usage: abbreviated option"] = ["run", branch, "--qui"]
    return out


def record(text: str) -> str | dict:
    """An output as the corpus keeps it: text when small, else a digest."""
    data = text.encode("utf-8")
    if len(data) <= SMALL:
        return text
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run_in_process(argv: list[str], trace: Path) -> dict:
    """The record of one case, made by cli.main in this process.

    The working directory must be the repository root.
    """
    from tokenflow.cli import main

    argv = [str(trace) if a == TRACE else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    made = {"exit": code, "stdout": record(out.getvalue()), "stderr": record(err.getvalue())}
    if str(trace) in argv:
        made["trace"] = record(trace.read_text(encoding="utf-8"))
        trace.unlink()
    return made


def main() -> None:
    sys.dont_write_bytecode = True  # keep src/ free of cached bytecode
    write_documents()
    os.chdir(REPO)
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "run.trace"
        for name, argv in cases().items():
            records[name] = {"argv": argv, **run_in_process(argv, trace)}
    CASES.write_text(
        json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(f"{len(records)} cases written to {CASES.relative_to(REPO)}")


if __name__ == "__main__":
    main()
