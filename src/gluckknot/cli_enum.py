"""`gluckknot enum`: HLT coset enumeration of a presentation."""

from __future__ import annotations

from typing import Iterable

from .cli_common import DEFAULTS, OPTIONS, UsageError, parse_presentation

GRAMMAR = (
    {**OPTIONS, "--subgroup": ("subgroup", 1, str)},
    ("presentation",),
    str,
    {**DEFAULTS, "subgroup": None},
)


def run(args) -> tuple[dict | None, Iterable[str]]:
    from .coset import coset_index
    from .words import WordSyntaxError

    p = parse_presentation(args.presentation)
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
    order = coset_index(p, subgroup, args.max_cosets)  # None if not finite
    payload = {
        "input": str(p),
        "subgroup": [p.word_str(w) for w in subgroup],
        "finite": order is not None,
        "order": order,
        "max_cosets": args.max_cosets,
    }
    lines = [f"input: {p}"]
    if subgroup:
        lines.append(f"subgroup: {', '.join(payload['subgroup'])}")
    lines.append(f"exceeded: {args.max_cosets}" if order is None else f"order: {order}")
    return payload, lines
