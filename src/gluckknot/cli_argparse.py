"""Command-line front end: alex, family, gluck, enum.

Exit codes: 0 success (also when the reader closes stdout), 1 usage or
parse error, 2 precondition failure, 3 internal invariant violation.  All
output is exact and deterministic.
"""

# The docstring above is the description that --help prints.  This module is
# the argparse grammar of the CLI, imported only for a line that the reader in
# cli.py declines: a usage error, -h/--help, an abbreviated option, --opt=value
# or any other spelling it does not know.  argparse then parses the line and
# words every message.

from __future__ import annotations

import argparse
import re

from . import __version__
from .cli_alex import cmd_alex
from .cli_common import UsageError, coset_bound
from .cli_enum import cmd_enum
from .cli_family import cmd_family
from .cli_gluck import cmd_gluck


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # widened so grid bounds like -2..2 count as values, not option strings
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="gluckknot", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument(
        "--max-cosets",
        "--max",
        type=coset_bound,
        default=10000,
        help="coset enumeration bound (default 10000)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_alex = sub.add_parser("alex", parents=[common], help="Alexander polynomial")
    p_alex.add_argument("presentation")
    p_alex.set_defaults(func=cmd_alex)

    p_family = sub.add_parser("family", parents=[common], help="K2(p,q) family record")
    p_family.add_argument("p", type=int, nargs="?")
    p_family.add_argument("q", type=int, nargs="?")
    p_family.add_argument(
        "--grid", nargs=2, metavar=("PRANGE", "QRANGE"), help="e.g. --grid -2..2 -2..2"
    )
    p_family.add_argument("--tsv", action="store_true", help="tab-separated output")
    p_family.set_defaults(func=cmd_family)

    p_gluck = sub.add_parser("gluck", parents=[common], help="Gluck twist pipeline")
    p_gluck.add_argument("presentation")
    p_gluck.add_argument("--kill", required=True, metavar="GEN")
    p_gluck.add_argument(
        "--variant", choices=["single", "double"], default="single"
    )
    p_gluck.add_argument("--bands", type=int, nargs=2, metavar=("M", "N"))
    p_gluck.set_defaults(func=cmd_gluck)

    p_enum = sub.add_parser("enum", parents=[common], help="coset enumeration")
    p_enum.add_argument("presentation")
    p_enum.add_argument("--subgroup", help="comma-separated subgroup words")
    p_enum.set_defaults(func=cmd_enum)
    return parser
