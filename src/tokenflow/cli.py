"""Command line front end.

Exit codes: 0 on success, 1 on any validation or runtime error, 2 when a
run stops at the step limit before converging.
"""
from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .dsl import (
    CompositionDocument,
    format_pairs,
    format_value,
    parse_literal,
    trace_renderer,
)
from .errors import FlowError, ParseError, ValidationError
from .model import Composition, ExecutionState

# Each command's help line, the help of its file argument, and its options in
# the order --help lists them, as (option, kind, default, metavar, help). The
# kind says what an option does with the word after it: "flag" takes none and
# stores True, "list" appends it, "text" stores it, "int" stores it as an int
# and "limit" as an int of at least 1. _read and the argparse parser in
# tokenflow.usage are both built from this table.
_SEEDS = ("--seed-override", "list", (), "NAME=LITERAL", "replace an init value (repeatable)")
_LIMIT = ("--max-steps", "limit", None, None, None)
_QUIET = ("--quiet", "flag", False, None, "summary only")
_DOC = "composition document"
COMMANDS = {
    "validate": ("parse and structurally check a document", None, ()),
    "run": ("run sequentially to convergence", _DOC, (
        _SEEDS, _LIMIT, _QUIET,
        ("--trace", "text", "-", "PATH", "write the trace to PATH instead of stdout"),
    )),
    "step": ("fire a bounded number of steps", _DOC, (
        _SEEDS, ("--steps", "int", 1, None, None),
    )),
    "simulate": ("concurrent run over virtual time", _DOC, (_SEEDS, _LIMIT, _QUIET)),
    "graph": ("print the composition as Graphviz dot", _DOC, (_SEEDS,)),
}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """What argparse makes of argv when every option in it is spelled out.

    That is a command, then its file and its options in any order, each
    option named in full and followed by its value as the next word. For
    anything else (-h, an abbreviated option, --opt=value, --, a word
    starting with - where a value belongs, a missing or bad value, an extra
    word) the answer is None, and argparse reads argv.
    """
    spec = COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    args = {"command": argv[0], "file": None}
    options = {}
    for option, kind, default, _, _ in spec[2]:
        dest = option[2:].replace("-", "_")
        options[option] = dest, kind
        args[dest] = list(default) if kind == "list" else default
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            if args["file"] is not None:
                return None
            args["file"] = word
            continue
        if word not in options:
            return None
        dest, kind = options[word]
        if kind == "flag":
            args[dest] = True
            continue
        value = next(words, "-")  # a missing value falls back like a -word
        if value[:1] == "-":
            return None
        if kind == "list":
            args[dest].append(value)
            continue
        if kind != "text":
            try:
                value = int(value)
            except ValueError:
                return None
            if kind == "limit" and value < 1:
                return None
        args[dest] = value
    return None if args["file"] is None else SimpleNamespace(**args)


def _load(path: str, overrides: list[str]):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:  # the line the parser would have named
        line = len((exc.object[: exc.start].decode() + "x").splitlines())
        raise ParseError(
            line, f"not UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
        ) from None
    doc = CompositionDocument.parse(text)
    for item in overrides:
        where = f"--seed-override {item!r}"
        name, eq, literal = item.partition("=")
        if not eq or not name:
            raise ValidationError(f"{where}: want name=literal")
        try:
            value = parse_literal(literal.strip())
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        doc.override(name.strip(), value, where)
    return doc.build()


def _summary(comp: Composition, state: ExecutionState) -> str:
    parts = [
        f"{n.name}={format_value(state.values[n.index])}({state.marking[n.index].code})"
        for n in comp.data
    ]
    return "final: " + " ".join(parts)


# Characters gathered before one write. A stream opened unbuffered (python -u,
# PYTHONUNBUFFERED) would otherwise take a system call per trace line.
CHUNK = 1 << 16


class _Batch:
    """Text handed to write in pieces of `chunk` characters or more.

    flush() hands over what is left, however little.
    """

    __slots__ = ("write", "chunk", "parts", "size")

    def __init__(self, write, chunk: int = CHUNK):
        self.write = write
        self.chunk = chunk
        self.parts: list[str] = []
        self.size = 0

    def add(self, text: str) -> None:
        self.parts.append(text)
        self.size += len(text)
        if self.size >= self.chunk:
            self.flush()

    def flush(self) -> None:
        if self.parts:
            text = "".join(self.parts)
            self.parts.clear()
            self.size = 0
            self.write(text)


def _lines_to(batch: _Batch, comp: Composition, state: ExecutionState):
    """Commit hook adding each firing's trace line to batch as it commits.

    A caller holding the event's writes as format_pairs made them passes
    that text too, and the line uses it.
    """
    from .semantics import Trace

    render, add = trace_renderer(Trace(comp, state).start), batch.add
    return lambda event, writes="": add(render(event, writes))


def _finish(comp, result, out: _Batch) -> int:
    out.add(_summary(comp, result.final_state) + "\n")
    return 0 if result.converged else 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        from .usage import UsageError, parse_args

        try:
            args = parse_args(argv)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
    stdout = sys.stdout
    out = _Batch(stdout.write)
    try:
        try:
            return _command(args, out)
        finally:  # what the run committed, also when it failed mid-way
            out.flush()
            stdout.flush()
    except (FlowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _command(args, out: _Batch) -> int:
    """Carry out one parsed command; trace lines go out as firings commit."""
    if args.command == "validate":
        comp, _, _ = _load(args.file, [])
        out.add(f"ok: {len(comp.data)} data nodes, {len(comp.operators)} operators\n")
        return 0

    comp, state, durations = _load(args.file, args.seed_override)
    if args.command == "graph":
        from .dot import to_dot

        out.add(to_dot(comp, state.marking))
        return 0

    from .semantics import RunLimits, default_registry, discard

    registry = default_registry()
    if args.command != "simulate":
        from .sequential import run_to_convergence
    if args.command == "step":
        if args.steps >= 1:
            limits = RunLimits(args.steps)
            hook = _lines_to(out, comp, state)
            state = run_to_convergence(comp, state, registry, limits, hook).final_state
        out.add(_summary(comp, state) + "\n")
        return 0

    limits = RunLimits(args.max_steps) if args.max_steps else RunLimits()
    if args.command == "run":
        if args.trace == "-":
            hook = discard if args.quiet else _lines_to(out, comp, state)
            result = run_to_convergence(comp, state, registry, limits, hook)
        else:
            with open(args.trace, "w", encoding="utf-8") as fh:
                trace = _Batch(fh.write)
                try:
                    hook = _lines_to(trace, comp, state)
                    result = run_to_convergence(comp, state, registry, limits, hook)
                finally:
                    trace.flush()
        return _finish(comp, result, out)

    # simulate, the one command left
    from .concurrent import schedule_row, simulate_concurrent

    # The schedule, printed after the trace, is held joined in pieces of
    # 4 KiB: one short row alone takes several times its text in memory.
    held = []
    rows = _Batch(held.append, 1 << 12)
    if args.quiet:
        hook = discard
    else:
        line, keep = _lines_to(out, comp, state), rows.add

        def hook(entry):  # the writes are formatted once, for both lines
            writes = format_pairs(entry.event.writes)
            line(entry.event, writes)
            keep(schedule_row(entry, writes))

    result, _ = simulate_concurrent(
        comp, state, registry, durations, limits, hook
    )
    rows.flush()
    for text in held:
        out.add(text)
    return _finish(comp, result, out)


def entry() -> None:
    # The console script and python -m tokenflow. Once stdout and stderr are
    # flushed, os._exit ends the process without the interpreter's teardown
    # (module clean-up, a last collection, atexit handlers), which has no
    # output to give. sys.exit keeps that teardown where something waits for
    # it: a trace or profile hook (cProfile writes its report after the run)
    # and python -i. An exception out of main, such as argparse's -h, takes
    # the normal way out too.
    code = main()
    try:
        sys.stdout.flush()
    except OSError:  # main has reported it; the teardown must not flush again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.stderr.flush()
    if sys.gettrace() or sys.getprofile() or sys.flags.inspect:
        sys.exit(code)
    os._exit(code)
