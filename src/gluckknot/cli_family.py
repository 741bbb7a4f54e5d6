"""`gluckknot family`: K2(p,q) records, one pair or a grid streamed as it
is written."""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable

from .cli_common import DEFAULTS, MAX_GRID_RECORDS, OPTIONS, UsageError, report

GRAMMAR = (
    {**OPTIONS, "--grid": ("grid", 2, str), "--tsv": ("tsv", 0, None)},
    ("p", "q"),
    int,
    {**DEFAULTS, "p": None, "q": None, "grid": None, "tsv": False},
)


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


FAMILY_COLUMNS = [
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
        from .jsonout import dumps

        text = dumps(report("family", {**record, "p": 0, "q": 0}))
        return re.split(r'(?<="[pq]": )0', text)
    cells = [str(record[c]) for c in FAMILY_COLUMNS[2:9]]
    cells += (",".join(map(str, hc)) for hc in record["handle_counts"].values())
    return ["", "\t", "\t" + "\t".join(cells)]


def run(args) -> tuple[dict | None, Iterable[str]]:
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
        lines = [f"{key}: {record[key]}" for key in FAMILY_COLUMNS[:9]]  # the scalars
        for key, counts in record["handle_counts"].items():
            lines.append(f"handle_counts.{key}: ({','.join(str(h) for h in counts)})")
        return None, lines
    render = lambda p, q: _family_parts(family_record(p, q, args.max_cosets), args.json)
    grid = ((p, q) for p in p_range for q in q_range)
    # lazy: the records are made as `main` writes them
    lines = (f"{h}{p}{m}{q}{t}" for p, q, (h, m, t) in per_parity(grid, render))
    return None, lines if args.json else chain(["\t".join(FAMILY_COLUMNS)], lines)
