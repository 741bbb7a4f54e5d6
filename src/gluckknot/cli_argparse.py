"""Command-line front end: alex, family, gluck, enum.

Exit codes: 0 success (also when the reader closes stdout), 1 usage or
parse error, 2 precondition failure, 3 internal invariant violation.  All
output is exact and deterministic.
"""

# The docstring above is the description that --help prints.  This module
# builds argparse's parsers from the GRAMMAR of each handler module, for a line
# that the reader in cli.py declines (a usage error, -h/--help, or a spelling
# it does not know); argparse then parses the line and words every message.

from __future__ import annotations

import argparse
import re
import sys
from importlib import import_module

from . import __version__
from .cli_common import SUBCOMMANDS, UsageError
from .cli_gluck import VARIANTS

# What only argparse needs, per subcommand and per first option string: help,
# metavar, and the choices of --variant, which argparse checks with no
# converter, so that it words the error.
_EXTRA = {
    "alex": {"help": "Alexander polynomial"},
    "family": {"help": "K2(p,q) family record"},
    "gluck": {"help": "Gluck twist pipeline"},
    "enum": {"help": "coset enumeration"},
    "--json": {"help": "emit JSON"},
    "--max-cosets": {"help": "coset enumeration bound (default %(default)s)"},
    "--grid": {"metavar": ("PRANGE", "QRANGE"), "help": "e.g. --grid -2..2 -2..2"},
    "--tsv": {"help": "tab-separated output"},
    "--kill": {"metavar": "GEN"},
    "--variant": {"choices": VARIANTS, "type": None},
    "--bands": {"metavar": ("M", "N")},
    "--subgroup": {"help": "comma-separated subgroup words"},
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # widened so grid bounds like -2..2 count as values, not option strings
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        # -h and --version print to stdout, then exit: flushed here, a closed
        # pipe raises inside main's try rather than at interpreter exit
        sys.stdout.flush()
        super().exit(status, message)


def build_parser() -> _Parser:
    parser = _Parser(prog="gluckknot", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        grammar = import_module(f".cli_{name}", __package__).GRAMMAR
        options, positionals, convert_positional, defaults = grammar
        subparser = sub.add_parser(name, **_EXTRA[name])
        for dest in positionals:
            nargs = "?" if dest in defaults else None
            subparser.add_argument(dest, type=convert_positional, nargs=nargs)
        for dest, count, convert in dict.fromkeys(options.values()):
            strings = [s for s, spec in options.items() if spec[0] == dest]
            if count == 0:
                kwargs = {"action": "store_true"}
            else:
                kwargs = {"type": convert, "nargs": None if count == 1 else count}
            kwargs.update(_EXTRA.get(strings[0], {}), required=dest not in defaults)
            subparser.add_argument(*strings, dest=dest, **kwargs)
        subparser.set_defaults(**defaults)  # also sets each action's default
    return parser
