"""What the CLI front, its subcommand handlers and its argparse fallback
share.  `python -m gluckknot.cli` runs cli.py as __main__, so nothing the
others need may live there: importing it would compile a second copy."""

from __future__ import annotations

from . import __version__

# Most records one `family --grid` call may make, checked before it makes any:
# 100000 take some 0.2 s and print 36 MB of JSON, in chunks, in flat memory.
MAX_GRID_RECORDS = 100_000


class UsageError(Exception):
    pass


def coset_bound(text: str) -> int:
    """Type of --max-cosets and --max: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        from argparse import ArgumentTypeError  # argparse words the error

        raise ArgumentTypeError(f"invalid bound {text!r}: expected an integer >= 1")
    return value


# The subcommands, in the order --help lists them.  Each handler module,
# cli_<name>, states its grammar as GRAMMAR, which both the reader of cli.py
# and the argparse fallback read: its options, option string -> (dest, number
# of values, converter), where 0 values is a flag that stores True; its
# positionals and their converter; and its defaults.  A dest without a default
# is required.  OPTIONS and DEFAULTS are what every subcommand shares.
SUBCOMMANDS = ("alex", "family", "gluck", "enum")
OPTIONS = {
    "--json": ("json", 0, None),
    "--max-cosets": ("max_cosets", 1, coset_bound),
    "--max": ("max_cosets", 1, coset_bound),
}
DEFAULTS = {"json": False, "max_cosets": 10000}


def report(command: str, payload: dict) -> dict:
    return {"tool_version": __version__, "seed": 0, "command": command, **payload}


def parse_presentation(text: str):
    from .words import Presentation, PresentationError, WordSyntaxError

    try:
        return Presentation.parse(text)
    except (WordSyntaxError, PresentationError) as exc:
        raise UsageError(f"bad presentation: {exc}") from exc
