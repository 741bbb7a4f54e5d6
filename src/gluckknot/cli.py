"""Command-line front end: alex, family, gluck, enum.

Exit codes: 0 success (also when the reader closes stdout), 1 usage or
parse error, 2 precondition failure, 3 internal invariant violation.  All
output is exact and deterministic.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from itertools import islice
from types import SimpleNamespace
from typing import Sequence

from . import __version__
from .cli_common import MAX_GRID_RECORDS  # documented as gluckknot.cli's
from .cli_common import SUBCOMMANDS, report

# `_read` below reads a well-formed command line without argparse, from the
# GRAMMAR of its subcommand's handler module, cli_<name>, the one handler it
# imports.  The handler imports the library modules it runs: `--version` none,
# `enum` words, echelon and coset, and `gluck` echelon and coset only for a
# quotient that keeps generators: `words.certify_trivial` settles one
# simplified to < | >, as every `family` quotient is, without a table.  Any
# line `_read` declines goes to cli_argparse, which builds its parsers from the
# same GRAMMARs and words every error.  Each handler returns its JSON payload
# (None for `family`, whose lines encode themselves) and its text lines; `main`
# alone writes them, a payload under --json as the text of jsonout.dumps, which
# loads no `json`, and `main` alone turns an error into its exit code, by
# EXIT_CODES.

# The exit code of each error a command line can cause, by the name of its
# class or a base class: importing the class would load fox or twoknot on
# subcommands that never run them.  Any other error propagates.
EXIT_CODES = {
    "UsageError": 1,
    "TableBudgetError": 1,
    "PresentationError": 2,  # a --kill of an unknown generator
    "OrientationError": 2,
    "MinorBoundError": 2,
    "InvalidRibbonError": 2,
    "AssertionError": 3,  # FoxInternalError included
}


def _is_value(word: str) -> bool:
    """Whether argparse reads `word` as a value: it does not start with a
    dash, is a lone dash, or starts like a negative number (r"^-\\d", as
    cli_argparse widens it).  Any other dash word is an option string."""
    return word[:1] != "-" or word == "-" or word[1:2].isdecimal()


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would make of `argv`, subcommand included, or
    None for any line this reader leaves to argparse: an error, -h/--help,
    an abbreviated option, --opt=value, any unknown dash word."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    name, *words = argv
    grammar = import_module(f".cli_{name}", __package__).GRAMMAR
    options, positionals, convert_positional, defaults = grammar
    values = {**defaults, "subcommand": name}
    at, filled = 0, False
    while at < len(words):
        if words[at] in options:
            dest, count, convert = options[words[at]]
            texts = words[at + 1 : at + 1 + count]
            if len(texts) < count or not all(map(_is_value, texts)):
                return None
            try:  # every occurrence, as argparse converts each
                converted = [convert(text) for text in texts]
            except Exception:  # ValueError, or ArgumentTypeError from coset_bound
                return None
            values[dest] = converted if count > 1 else converted[0] if count else True
            at += 1 + count
        elif _is_value(words[at]) and not filled:
            # argparse fills every positional from the first run of values; a
            # later value is an unrecognized argument
            end = at
            while end < len(words) and _is_value(words[end]):
                end += 1
            if end - at > len(positionals):
                return None
            try:
                values.update(zip(positionals, map(convert_positional, words[at:end])))
            except ValueError:
                return None
            at, filled = end, True
        else:
            return None
    dests = {spec[0] for spec in options.values()}.union(positionals)
    return SimpleNamespace(**values) if dests <= values.keys() else None


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv == ["--version"]:
            lines = [__version__]
        else:
            args = _read(argv)
            if args is None:
                from .cli_argparse import build_parser

                args = build_parser().parse_args(argv)
            handler = import_module(f".cli_{args.subcommand}", __package__)
            payload, lines = handler.run(args)
            if args.json and payload is not None:
                from .jsonout import dumps

                lines = [dumps(report(args.subcommand, payload))]
        lines = iter(lines)  # a family stream raises its errors in here
        while chunk := list(islice(lines, 4096)):  # one write per chunk: flat memory
            print("\n".join(chunk), flush=True)  # so a closed pipe raises here
        return 0
    except BrokenPipeError:  # the reader left; the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        for cls in type(exc).__mro__:
            if cls.__name__ in EXIT_CODES:
                code = EXIT_CODES[cls.__name__]
                kind = "internal error" if code == 3 else "error"
                print(f"{kind}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
