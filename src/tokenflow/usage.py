"""The argparse parser of the command line, built from cli.COMMANDS.

cli reads a command whose options are all spelled out without this module.
Everything else comes here, so argparse stays the one source of --help,
abbreviated options, --opt=value and the wording of usage errors.
"""
import argparse
import sys

from . import cli


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 2 reserved for step limits
        raise UsageError(message)

    def print_help(self, file=None):
        # argparse's own drops an OSError from the write. This one raises it,
        # and flushes, so that help that cannot be written is an error too.
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def positive_int(text: str) -> int:
    """argparse type for step limits: RunLimits wants at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# What each kind of option in cli.COMMANDS asks of add_argument.
_KINDS = {
    "flag": {"action": "store_true"},
    "list": {"action": "append"},
    "text": {},
    "int": {"type": int},
    "limit": {"type": positive_int},
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv read by argparse; UsageError for what it refuses.

    -h prints the help and raises SystemExit, as argparse does.
    """
    parser = _Parser(prog="tokenflow", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, file_help, options) in cli.COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("file", help=file_help)
        for option, kind, default, metavar, text in options:
            extra = dict(_KINDS[kind], default=default, help=text)
            if kind == "list":  # append needs a list; the table holds ()
                extra["default"] = list(default)
            if kind != "flag":  # store_true takes no metavar
                extra["metavar"] = metavar
            p.add_argument(option, **extra)
    return parser.parse_args(argv)
