"""Reference answers and the output checker.

Every expected value comes from mathematics, never from gluckknot:

- Delta of the torus knot T(2,n) is sum_{k<n} (-t)^k up to units, its H1 is
  Z, and the first ideal is principal;
- Coxeter group orders come from their formulas and tables (workloads.py),
  and Z^2 is infinite;
- the K2(p,q) family: the parity string, the four golden Delta of the
  parity classes up to units, a trivial Gluck quotient, the handle counts of
  one band per hemisphere, and the spun-knot obstruction, which allows a
  1-knot only for even-even.

Polynomials are compared up to units +-t^k, with a parser of their own.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from workloads import ENUM_MAX_COSETS, AlexCase, EnumCase, FamilyCase, Invocation

PARITY = {(0, 0): "even-even", (1, 1): "odd-odd", (1, 0): "odd-even", (0, 1): "even-odd"}
GOLDEN_DELTA = {
    "even-even": "-t^2+3t-1",
    "odd-odd": "1-t+2t^2-t^3",
    "odd-even": "2-2t+t^2",
    "even-odd": "2t^2-2t+1",
}
HANDLE_COUNTS = {
    "complement": [1, 2, 2, 2, 1],
    "gluck_single": [1, 1, 2, 1, 1],
    "gluck_double": [1, 0, 2, 2, 1],
}

_TERM = re.compile(r"([+-]?)(\d*)(?:(t)(?:\^(-?\d+))?)?")


def parse_poly(text: str) -> dict[int, int]:
    """Exponent -> coefficient of a Laurent polynomial such as `t^2-3t+1`."""
    coeffs: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"bad polynomial {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        mag = int(m.group(2)) if m.group(2) else 1
        exp = (int(m.group(4)) if m.group(4) else 1) if m.group(3) else 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * mag
        pos = m.end()
    return {e: c for e, c in coeffs.items() if c}


def unit_class(coeffs: dict[int, int]) -> tuple[int, ...]:
    """Coefficients from t^0 up after dividing out +-t^k: lowest exponent
    shifted to 0, top coefficient made positive."""
    if not coeffs:
        return ()
    lo, hi = min(coeffs), max(coeffs)
    sign = 1 if coeffs[hi] > 0 else -1
    return tuple(sign * coeffs.get(e, 0) for e in range(lo, hi + 1))


def torus_delta(n: int) -> tuple[int, ...]:
    return unit_class({k: (-1) ** k for k in range(n)})


def _delta_matches(text, expected: tuple[int, ...]) -> bool:
    try:
        return isinstance(text, str) and unit_class(parse_poly(text)) == expected
    except ValueError:
        return False


def check_family(case: FamilyCase, rec: dict) -> list[str]:
    parity = PARITY[(case.p % 2, case.q % 2)]
    want = {
        "command": "family",
        "p": case.p,
        "q": case.q,
        "parity": parity,
        "delta_principal": True,
        "h1": "Z",
        "gluck_pi1": "trivial",
        "handle_counts": HANDLE_COUNTS,
        "spun_obstruction": (
            "possibly-one-knot" if parity == "even-even" else "not-one-knot"
        ),
    }
    bad = [k for k, v in want.items() if rec.get(k) != v]
    if not _delta_matches(rec.get("delta"), unit_class(parse_poly(GOLDEN_DELTA[parity]))):
        bad.append("delta")
    return bad


def check_alex(case: AlexCase, rec: dict) -> list[str]:
    want = {"command": "alex", "h1": "Z", "delta_principal": True, "e1_zero": False}
    bad = [k for k, v in want.items() if rec.get(k) != v]
    if not _delta_matches(rec.get("delta"), torus_delta(case.n)):
        bad.append("delta")
    # every Wirtinger generator is a meridian, so all weights agree up to sign
    if rec.get("weights") not in ([1] * case.n, [-1] * case.n):
        bad.append("weights")
    return bad


def check_enum(case: EnumCase, rec: dict) -> list[str]:
    want = {
        "command": "enum",
        "finite": case.order is not None,
        "order": case.order,
        "max_cosets": ENUM_MAX_COSETS,
    }
    return [k for k, v in want.items() if rec.get(k) != v]


CHECKERS = {FamilyCase: check_family, AlexCase: check_alex, EnumCase: check_enum}


def decided(rec: dict) -> bool:
    """A verdict: a certified-principal Delta, a finite order, or a trivial
    Gluck quotient."""
    command = rec.get("command")
    if command == "family":
        return rec.get("gluck_pi1") == "trivial"
    if command == "alex":
        return rec.get("delta_principal") is True
    return rec.get("finite") is True


@dataclass
class Verdict:
    """Outcome of checking one invocation's stdout against its cases."""

    cases: int = 0
    wrong: int = 0
    decided: int = 0
    problems: list[str] = field(default_factory=list)


def check(inv: Invocation, stdout: str) -> Verdict:
    """Check every output record; a missing, extra or unreadable record
    counts as wrong."""
    v = Verdict(cases=len(inv.cases))
    lines = stdout.splitlines()
    if len(lines) != len(inv.cases):
        v.problems.append(f"{len(lines)} records for {len(inv.cases)} cases")
    for i, case in enumerate(inv.cases):
        if i >= len(lines):
            v.wrong += 1
            continue
        try:
            rec = json.loads(lines[i])
        except json.JSONDecodeError:
            rec = None
        if not isinstance(rec, dict):
            v.wrong += 1
            v.problems.append(f"{case}: unreadable record {lines[i][:80]!r}")
            continue
        bad = CHECKERS[type(case)](case, rec)
        if bad:
            v.wrong += 1
            v.problems.append(f"{case}: wrong {', '.join(bad)}")
        v.decided += decided(rec)
    v.wrong += max(0, len(lines) - len(inv.cases))
    return v

