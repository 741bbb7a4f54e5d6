"""Command-line front end: alex, family, gluck, enum.

Exit codes: 0 success (also when the reader closes stdout), 1 usage or
parse error, 2 precondition failure, 3 internal invariant violation.  All
output is exact and deterministic.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import chain, islice
from typing import Iterable, Sequence

from . import __version__

# Each subcommand imports the library modules it runs: `--version` none, `enum`
# words, echelon and coset, and `gluck` echelon and coset only for a quotient
# that keeps generators: `words.certify_trivial` settles one simplified to
# < | >, as every `family` quotient is, without a table.  Each converts the
# library errors that user input can cause into UsageError (exit 1) or
# PreconditionError (exit 2), and returns its JSON payload (None for `family`,
# whose lines encode themselves) and its text lines; `main` alone writes them.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3

# Most records one `family --grid` call may make, checked before it makes any:
# 100000 take some 0.2 s and print 36 MB of JSON, in chunks, in flat memory.
MAX_GRID_RECORDS = 100_000


class UsageError(Exception):
    pass


class PreconditionError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # widened so grid bounds like -2..2 count as values, not option strings
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise UsageError(message)


def _coset_bound(text: str) -> int:
    """Type of --max-cosets and --max: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"invalid bound {text!r}: expected an integer >= 1"
        )
    return value


def _report(command: str, payload: dict) -> dict:
    return {"tool_version": __version__, "seed": 0, "command": command, **payload}


def _parse_presentation(text: str):
    from .words import Presentation, PresentationError, WordSyntaxError

    try:
        return Presentation.parse(text)
    except (WordSyntaxError, PresentationError) as exc:
        raise UsageError(f"bad presentation: {exc}") from exc


def cmd_alex(args) -> tuple[dict | None, Iterable[str]]:
    from .fox import MinorBoundError, OrientationError, alexander_polynomial

    p = _parse_presentation(args.presentation)
    try:
        result = alexander_polynomial(p)
    except (OrientationError, MinorBoundError) as exc:
        raise PreconditionError(str(exc)) from exc
    payload = {
        "input": str(p),
        "h1": str(result.h1),
        "weights": list(result.weights),
        "delta": str(result.polynomial),
        "delta_principal": result.certified_principal,
        "e1_zero": False,
    }
    weights = " ".join(f"{name}:{w}" for name, w in zip(p.generators, result.weights))
    return payload, [
        f"input: {p}",
        f"weights: {weights}",
        f"delta: {result.polynomial}",
        f"principal: {'certified' if result.certified_principal else 'gcd-only'}",
        f"H1: {payload['h1']}",
    ]


def _parse_range(text: str) -> range:
    if ".." not in text:
        raise UsageError(f"bad range {text!r}; expected MIN..MAX")
    lo_text, hi_text = text.split("..", 1)
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}: {exc}") from exc
    if hi < lo:
        raise UsageError(f"bad range {text!r}: max below min")
    return range(lo, hi + 1)


_FAMILY_COLUMNS = [
    "p",
    "q",
    "parity",
    "relator",
    "delta",
    "delta_principal",
    "h1",
    "gluck_pi1",
    "spun_obstruction",
    "handle_counts_complement",
    "handle_counts_gluck_single",
    "handle_counts_gluck_double",
]


def _family_parts(record: dict, as_json: bool) -> list[str]:
    """A record's output line cut at its p and q values.  Every other field
    depends only on the parity class, so one cut serves the whole class."""
    if as_json:
        import json

        text = json.dumps(_report("family", {**record, "p": 0, "q": 0}), sort_keys=True)
        return re.split(r'(?<="[pq]": )0', text)
    cells = [str(record[c]) for c in _FAMILY_COLUMNS[2:9]]
    cells += (",".join(map(str, hc)) for hc in record["handle_counts"].values())
    return ["", "\t", "\t" + "\t".join(cells)]


def cmd_family(args) -> tuple[dict | None, Iterable[str]]:
    if args.grid is not None:
        if args.p is not None or args.q is not None:
            raise UsageError("give either p q or --grid, not both")
        p_range = _parse_range(args.grid[0])
        q_range = _parse_range(args.grid[1])
        # len() of a range past sys.maxsize overflows
        size = (p_range.stop - p_range.start) * (q_range.stop - q_range.start)
        if size > MAX_GRID_RECORDS:
            raise UsageError(
                f"grid of {size} records exceeds the limit of {MAX_GRID_RECORDS}"
            )
    else:
        if args.p is None or args.q is None:
            raise UsageError("family needs p and q (or --grid)")
        p_range, q_range, size = (args.p,), (args.q,), 1
    from .twoknot import family_record, per_parity

    # every family quotient simplifies to < | >, so no coset bound is too big
    if not (args.json or args.tsv) and size == 1:
        record = family_record(p_range[0], q_range[0], args.max_cosets)
        lines = [f"{key}: {record[key]}" for key in _FAMILY_COLUMNS[:9]]  # the scalars
        for key, counts in record["handle_counts"].items():
            lines.append(f"handle_counts.{key}: ({','.join(str(h) for h in counts)})")
        return None, lines
    render = lambda p, q: _family_parts(family_record(p, q, args.max_cosets), args.json)
    grid = ((p, q) for p in p_range for q in q_range)
    # lazy: the records are made as `main` writes them
    lines = (f"{h}{p}{m}{q}{t}" for p, q, (h, m, t) in per_parity(grid, render))
    return None, lines if args.json else chain(["\t".join(_FAMILY_COLUMNS)], lines)


def cmd_gluck(args) -> tuple[dict | None, Iterable[str]]:
    from .words import PresentationError, TableBudgetError, certify_trivial

    p = _parse_presentation(args.presentation)
    try:
        quotient = p.kill_generator(args.kill)
    except PresentationError as exc:
        raise PreconditionError(str(exc)) from exc
    try:
        cert = certify_trivial(quotient, args.max_cosets)
    except TableBudgetError as exc:
        raise UsageError(str(exc)) from exc
    payload: dict = {
        "input": str(p),
        "kill": args.kill,
        "variant": args.variant,
        "quotient": str(quotient),
        "pi1": cert.status,
        "pi1_order": cert.order,
    }
    order = f" (order {cert.order})" if cert.order and not cert.trivial else ""
    lines = [
        f"input: {p}",
        f"kill: {args.kill}",
        f"quotient: {quotient}",
        f"pi1: {cert.status}{order}",
        f"variant: {args.variant}",
    ]
    if args.bands is not None:
        from .twoknot import (
            GluckVariant,
            InvalidRibbonError,
            complement_handle_counts,
            gluck_handle_counts,
        )

        m, n = args.bands
        try:
            before = complement_handle_counts(m, n)
            after = gluck_handle_counts(before, GluckVariant(args.variant))
        except InvalidRibbonError as exc:
            raise PreconditionError(str(exc)) from exc
        chi = [before.euler_characteristic, after.euler_characteristic]
        payload["handle_counts"] = {
            "complement": list(before.as_tuple()),
            "gluck": list(after.as_tuple()),
            "chi": chi,
        }
        lines += [f"counts: {before} -> {after}", f"chi: {chi[0]} -> {chi[1]}"]
    return payload, lines


def cmd_enum(args) -> tuple[dict | None, Iterable[str]]:
    from .coset import TableBudgetError, enumerate_cosets
    from .words import WordSyntaxError

    p = _parse_presentation(args.presentation)
    subgroup = []
    if args.subgroup:
        for text in args.subgroup.split(","):
            text = text.strip()
            if not text:
                continue
            try:
                subgroup.append(p.word(text))
            except WordSyntaxError as exc:
                raise UsageError(f"bad subgroup word {text!r}: {exc}") from exc
    try:
        outcome = enumerate_cosets(p, subgroup, args.max_cosets)
    except TableBudgetError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "input": str(p),
        "subgroup": [p.word_str(w) for w in subgroup],
        "finite": outcome.finite,
        "order": outcome.order,
        "max_cosets": outcome.max_cosets,
    }
    lines = [f"input: {p}"]
    if subgroup:
        lines.append(f"subgroup: {', '.join(payload['subgroup'])}")
    lines.append(
        f"order: {outcome.order}" if outcome.finite else f"exceeded: {outcome.max_cosets}"
    )
    return payload, lines


def build_parser() -> _Parser:
    parser = _Parser(prog="gluckknot", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument(
        "--max-cosets",
        "--max",
        type=_coset_bound,
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, lines = args.func(args)
        if args.json and payload is not None:
            import json

            lines = [json.dumps(_report(args.subcommand, payload), sort_keys=True)]
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
