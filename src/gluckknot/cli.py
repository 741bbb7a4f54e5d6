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
from .cli_common import PreconditionError, UsageError, coset_bound, report

# A well-formed command line is read by `_read` below, without argparse; each
# subcommand then imports its handler module, cli_<name>, and the library
# modules that handler runs: `--version` none, `enum` words, echelon and
# coset, and `gluck` echelon and coset only for a quotient that keeps
# generators: `words.certify_trivial` settles one simplified to < | >, as
# every `family` quotient is, without a table.  Any line `_read` declines goes
# to the argparse grammar of cli_argparse, which parses it and words every
# error.  Each handler converts the library errors that user input can cause
# into UsageError (exit 1) or PreconditionError (exit 2), and returns its JSON
# payload (None for `family`, whose lines encode themselves) and its text
# lines; `main` alone writes them.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3


def _variant(text: str) -> str:
    if text not in ("single", "double"):
        raise ValueError(text)
    return text


# The grammar of cli_argparse, restated for `_read`.  Per subcommand: its
# options, option string -> (dest, number of values, converter), where 0
# values is a flag that stores True; its positionals and their converter; and
# its defaults.  A dest without a default is required.
_COMMON = {
    "--json": ("json", 0, None),
    "--max-cosets": ("max_cosets", 1, coset_bound),
    "--max": ("max_cosets", 1, coset_bound),
}
_GRAMMAR = {
    "alex": (_COMMON, ("presentation",), str, {}),
    "enum": (
        {**_COMMON, "--subgroup": ("subgroup", 1, str)},
        ("presentation",),
        str,
        {"subgroup": None},
    ),
    "gluck": (
        {
            **_COMMON,
            "--kill": ("kill", 1, str),
            "--variant": ("variant", 1, _variant),
            "--bands": ("bands", 2, int),
        },
        ("presentation",),
        str,
        {"variant": "single", "bands": None},
    ),
    "family": (
        {**_COMMON, "--grid": ("grid", 2, str), "--tsv": ("tsv", 0, None)},
        ("p", "q"),
        int,
        {"p": None, "q": None, "grid": None, "tsv": False},
    ),
}


def _is_value(word: str) -> bool:
    """Whether argparse reads `word` as a value: it does not start with a
    dash, is a lone dash, or starts like a negative number (r"^-\\d", as
    cli_argparse widens it).  Any other dash word is an option string."""
    return word[:1] != "-" or word == "-" or word[1:2].isdecimal()


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would make of `argv`, func and subcommand
    included, or None for any line this reader leaves to argparse: an error,
    -h/--help, an abbreviated option, --opt=value, any unknown dash word."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    name, *words = argv
    options, positionals, convert_positional, defaults = _GRAMMAR[name]
    values = {"json": False, "max_cosets": 10000, **defaults}
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
            values[dest] = (
                True if count == 0 else converted[0] if count == 1 else converted
            )
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
    if not dests <= values.keys():
        return None
    func = getattr(import_module(f".cli_{name}", __package__), f"cmd_{name}")
    return SimpleNamespace(**values, subcommand=name, func=func)


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
            payload, lines = args.func(args)
            if args.json and payload is not None:
                import json

                lines = [json.dumps(report(args.subcommand, payload), sort_keys=True)]
        lines = iter(lines)  # a family stream raises its errors in here
        while chunk := list(islice(lines, 4096)):  # one write per chunk: flat memory
            print("\n".join(chunk), flush=True)  # so a closed pipe raises here
        return EXIT_OK
    except BrokenPipeError:  # the reader left; the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except AssertionError as exc:  # FoxInternalError included
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
