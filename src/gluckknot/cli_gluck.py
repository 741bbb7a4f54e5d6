"""`gluckknot gluck`: the Gluck twist pipeline, the quotient's pi1 and the
handle counts."""

from __future__ import annotations

from typing import Iterable

from .cli_common import DEFAULTS, OPTIONS, parse_presentation

# what --variant accepts, and what cli_argparse offers as its choices
VARIANTS = ("single", "double")


def _variant(text: str) -> str:
    if text not in VARIANTS:
        raise ValueError(text)
    return text


GRAMMAR = (
    {
        **OPTIONS,
        "--kill": ("kill", 1, str),
        "--variant": ("variant", 1, _variant),
        "--bands": ("bands", 2, int),
    },
    ("presentation",),
    str,
    {**DEFAULTS, "variant": "single", "bands": None},
)


def run(args) -> tuple[dict | None, Iterable[str]]:
    from .words import certify_trivial

    p = parse_presentation(args.presentation)
    quotient = p.kill_generator(args.kill)
    cert = certify_trivial(quotient, args.max_cosets)
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
        from .twoknot import GluckVariant, gluck_handle_counts
        from .twoknot import complement_handle_counts

        before = complement_handle_counts(*args.bands)
        after = gluck_handle_counts(before, GluckVariant(args.variant))
        chi = [before.euler_characteristic, after.euler_characteristic]
        payload["handle_counts"] = {
            "complement": list(before),
            "gluck": list(after),
            "chi": chi,
        }
        lines += [f"counts: {before} -> {after}", f"chi: {chi[0]} -> {chi[1]}"]
    return payload, lines
