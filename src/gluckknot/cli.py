"""Command-line front end: alex, family, gluck, enum.

Exit codes: 0 success, 1 usage or parse error, 2 precondition failure,
3 internal invariant violation.  All output is exact and deterministic.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Sequence

from . import __version__

# Each subcommand imports the library modules it runs, so `--version` loads
# none and `enum` only words, intmatrix and coset.  Each converts the library
# errors that user input can cause into UsageError (exit 1) or
# PreconditionError (exit 2) where it calls the library.

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


def _emit_json(report: dict) -> None:
    import json

    print(json.dumps(report, sort_keys=True))


def _parse_presentation(text: str):
    from .words import Presentation, PresentationError, WordSyntaxError

    try:
        return Presentation.parse(text)
    except (WordSyntaxError, PresentationError) as exc:
        raise UsageError(f"bad presentation: {exc}") from exc


def cmd_alex(args) -> int:
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
    if args.json:
        _emit_json(_report("alex", payload))
    else:
        weights = " ".join(
            f"{name}:{w}" for name, w in zip(p.generators, result.weights)
        )
        print(f"input: {p}")
        print(f"weights: {weights}")
        print(f"delta: {result.polynomial}")
        print(f"principal: {'certified' if result.certified_principal else 'gcd-only'}")
        print(f"H1: {payload['h1']}")
    return EXIT_OK


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


def cmd_family(args) -> int:
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
        for key in _FAMILY_COLUMNS[:9]:  # the scalars; handle counts follow
            print(f"{key}: {record[key]}")
        for key, counts in record["handle_counts"].items():
            print(f"handle_counts.{key}: ({','.join(str(h) for h in counts)})")
        return EXIT_OK
    lines = [] if args.json else ["\t".join(_FAMILY_COLUMNS) + "\n"]
    render = lambda p, q: _family_parts(family_record(p, q, args.max_cosets), args.json)
    grid = ((p, q) for p in p_range for q in q_range)
    for p, q, (head, middle, tail) in per_parity(grid, render):
        lines.append(f"{head}{p}{middle}{q}{tail}\n")
        if len(lines) == 4096:  # one write per chunk: fast, in bounded memory
            sys.stdout.write("".join(lines))
            lines.clear()
    sys.stdout.write("".join(lines))
    return EXIT_OK


def cmd_gluck(args) -> int:
    from .coset import TableBudgetError, certify_trivial
    from .words import PresentationError

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
    counts_before = counts_after = None
    if args.bands is not None:
        from .twoknot import (
            GluckVariant,
            InvalidRibbonError,
            complement_handle_counts,
            gluck_handle_counts,
        )

        m, n = args.bands
        try:
            counts_before = complement_handle_counts(m, n)
            counts_after = gluck_handle_counts(counts_before, GluckVariant(args.variant))
        except InvalidRibbonError as exc:
            raise PreconditionError(str(exc)) from exc
        payload["handle_counts"] = {
            "complement": list(counts_before.as_tuple()),
            "gluck": list(counts_after.as_tuple()),
            "chi": [counts_before.euler_characteristic, counts_after.euler_characteristic],
        }
    if args.json:
        _emit_json(_report("gluck", payload))
    else:
        print(f"input: {p}")
        print(f"kill: {args.kill}")
        print(f"quotient: {quotient}")
        order = f" (order {cert.order})" if cert.order and not cert.trivial else ""
        print(f"pi1: {cert.status}{order}")
        print(f"variant: {args.variant}")
        if counts_before is not None:
            print(f"counts: {counts_before} -> {counts_after}")
            print(
                f"chi: {counts_before.euler_characteristic} -> "
                f"{counts_after.euler_characteristic}"
            )
    return EXIT_OK


def cmd_enum(args) -> int:
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
    if args.json:
        _emit_json(_report("enum", payload))
    else:
        print(f"input: {p}")
        if subgroup:
            print(f"subgroup: {', '.join(payload['subgroup'])}")
        if outcome.finite:
            print(f"order: {outcome.order}")
        else:
            print(f"exceeded: {outcome.max_cosets}")
    return EXIT_OK


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
        return args.func(args)
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
