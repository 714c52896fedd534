"""Command line front end.

Exit codes: 0 on success, 1 on any validation or runtime error, 2 when a
run stops at the step limit before converging.
"""
from __future__ import annotations

import errno
import os
import sys
from contextlib import nullcontext
from types import SimpleNamespace

from .dsl import CompositionDocument, format_value, parse_literal, trace_renderer
from .errors import FlowError, ParseError, ValidationError

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


def _read(argv):
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


def _load(path, overrides):
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


def _summary(comp, state):
    return "final: " + " ".join([
        f"{n.name}={format_value(state.values[n.index])}({state.marking[n.index].code})"
        for n in comp.data
    ])


# Characters gathered before one write to stdout. A stream opened unbuffered
# (python -u, PYTHONUNBUFFERED) would otherwise take a system call per line.
CHUNK = 1 << 16
# Firings whose output is made in one pass: their trace lines, and under
# simulate their schedule rows, joined as one held piece.
BATCH = 256


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    stdout = sys.stdout
    parts = []  # text for stdout, written in pieces of CHUNK characters or more
    room = CHUNK

    def out(text):
        nonlocal room
        parts.append(text)
        room -= len(text)
        if room <= 0:
            flush()

    def flush():  # writes what is gathered, however little
        nonlocal room
        if parts:
            text = "".join(parts)
            parts.clear()
            room = CHUNK
            stdout.write(text)

    try:
        if stdout is None:  # the process started with stdout closed
            raise OSError(errno.EBADF, "stdout is closed")
        args = _read(argv)
        if args is None:
            from .usage import UsageError, parse_args

            try:
                args = parse_args(argv)  # -h prints the help and raises SystemExit
            except UsageError as exc:
                print(f"usage error: {exc}", file=sys.stderr)
                return 1
        try:
            return _command(args, out)
        finally:  # what the run committed, also when it failed mid-way
            flush()
            stdout.flush()
    except (FlowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _command(args, out):
    """Carry out one parsed command, handing its output to out. A command
    that fires plans its output once: its step limit; its trace sink (out,
    the --trace file, or none under --quiet); a schedule, held by simulate
    with a sink and printed after the trace; and one commit hook, which
    gathers each firing's event (under simulate its ScheduleEntry). Every
    BATCH firings, and once more when the run returns or raises, one pass
    hands the gathered lines to the sink and joins their schedule rows."""
    if args.command == "validate":
        comp, _, _ = _load(args.file, [])
        out(f"ok: {len(comp.data)} data nodes, {len(comp.operators)} operators\n")
        return 0

    comp, state, durations = _load(args.file, args.seed_override)
    if args.command == "graph":
        from .dot import to_dot

        out(to_dot(comp, state.marking))
        return 0

    from .semantics import RunLimits, Trace, default_registry, discard

    simulate = args.command == "simulate"
    # --max-steps, at least 1 when given, or step's --steps, which may be less
    limit = getattr(args, "max_steps", getattr(args, "steps", None))
    if limit is not None and limit < 1:  # step fires nothing: the summary only
        out(_summary(comp, state) + "\n")
        return 0
    limits = RunLimits(limit) if limit else RunLimits()
    if simulate:
        from .concurrent import schedule_row, simulate_concurrent
    else:
        from .sequential import run_to_convergence
    path = getattr(args, "trace", "-")
    if path != "-" and os.path.exists(path) and os.path.samefile(path, args.file):
        raise ValidationError(f"--trace {path!r} is the document being run")
    # A file opened here is buffered, also under python -u.
    with nullcontext() if path == "-" else open(path, "w", encoding="utf-8") as fh:
        write = fh.write if fh else None if getattr(args, "quiet", False) else out
        # writes: each line's writes text, made by render for its row too
        hook, pending, held, writes = discard, [], [], []

        def flush():
            # out of pending first: the renderer must see each event once
            batch = pending[:]
            pending.clear()
            for entry in batch:
                write(render(entry.event if simulate else entry))
            if simulate:  # each entry is a ScheduleEntry
                held.append("".join(map(schedule_row, batch, writes)))
                writes.clear()

        if write:
            render = trace_renderer(
                Trace(comp, state).start, writes.append if simulate else None
            )

            def hook(entry):
                pending.append(entry)
                if len(pending) >= BATCH:
                    flush()

        try:
            result = (
                simulate_concurrent(comp, state, default_registry(), durations, limits, hook)[0]
                if simulate
                else run_to_convergence(comp, state, default_registry(), limits, hook)
            )
        finally:  # the lines of what the run committed, also when it failed;
            # under --quiet nothing is pending, and nothing is rendered
            flush()
    for text in held:
        out(text)
    out(_summary(comp, result.final_state) + "\n")
    return 0 if result.converged or args.command == "step" else 2


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
        if sys.stdout:  # None when the process started with stdout closed
            sys.stdout.flush()
    except OSError:  # main has reported it; the teardown must not flush again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.stderr.flush()
    if sys.gettrace() or sys.getprofile() or sys.flags.inspect:
        sys.exit(code)
    os._exit(code)
