"""`gluckknot alex`: the Alexander polynomial of a presentation."""

from __future__ import annotations

from typing import Iterable

from .cli_common import DEFAULTS, OPTIONS, parse_presentation

GRAMMAR = (OPTIONS, ("presentation",), str, DEFAULTS)


def run(args) -> tuple[dict | None, Iterable[str]]:
    from .fox import alexander_polynomial

    p = parse_presentation(args.presentation)
    result = alexander_polynomial(p)
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
