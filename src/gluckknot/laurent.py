"""Integer Laurent polynomials in one variable t.

Values of Alexander invariants live here.  Units of Z[t, t^-1] are +-t^k;
`normalize_unit` fixes the canonical representative with minimal exponent 0
and positive top coefficient.  A polynomial is a dense pair, and the class
and the Z[t] kernels (gcd, exact and pseudo-division here, the Bareiss
minors of `minors`) share one set of list kernels on its coefficients.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from math import gcd as int_gcd
from types import MappingProxyType
from typing import Optional


class LaurentPolynomial:
    """sum_i dense[i] * t^(low + i); `dense` has no zero at either end and
    is empty for 0, whose `low` is 0.  Immutable."""

    __slots__ = ("low", "dense")

    def __new__(cls, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for e, c in items:
            acc[e] = acc.get(e, 0) + c
        support = [e for e, c in acc.items() if c]
        low, high = min(support, default=0), max(support, default=-1)
        return _poly(low, tuple(acc.get(e, 0) for e in range(low, high + 1)))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    def __reduce__(self):  # copy and pickle: the slots cannot be set afterwards
        return _poly, (self.low, self.dense)

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def constant(cls, c: int) -> "LaurentPolynomial":
        return _poly(0, [c])

    @property
    def coeffs(self) -> Mapping[int, int]:
        """Read-only map exponent -> nonzero coefficient, ascending."""
        return MappingProxyType(
            {e: c for e, c in enumerate(self.dense, self.low) if c}
        )

    def is_zero(self) -> bool:
        return not self.dense

    def __bool__(self) -> bool:
        return bool(self.dense)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return False
        return self.low == other.low and self.dense == other.dense

    def __hash__(self) -> int:
        return hash((self.low, self.dense))

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        low = min(self.low, other.low)
        a = (0,) * (self.low - low) + self.dense
        return _poly(low, _sub(a, (0,) * (other.low - low) + other.dense, 1))

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + -other

    def __neg__(self) -> "LaurentPolynomial":
        return self.scale(-1)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return _poly(self.low + other.low, _mul(self.dense, other.dense))

    def scale(self, c: int) -> "LaurentPolynomial":
        return _poly(self.low, [c * v for v in self.dense])

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        return _poly(self.low + k, self.dense)

    @property
    def min_exponent(self) -> int:
        if not self.dense:
            raise ValueError("zero polynomial has no exponents")
        return self.low

    @property
    def max_exponent(self) -> int:
        if not self.dense:
            raise ValueError("zero polynomial has no exponents")
        return self.low + len(self.dense) - 1

    def content(self) -> int:
        """Gcd of coefficients (non-negative); 0 for the zero polynomial."""
        return int_gcd(*self.dense)

    def reciprocal(self) -> "LaurentPolynomial":
        """Substitute t -> t^-1 (exponent negation); a ring automorphism."""
        return _poly(1 - self.low - len(self.dense), self.dense[::-1])

    def evaluate(self, t0: int) -> int:
        if t0 not in (1, -1):
            raise ValueError("evaluation only supported at t = 1 or t = -1")
        return sum(c * t0 ** (e % 2) for e, c in enumerate(self.dense, self.low))

    def normalize_unit(self) -> "LaurentPolynomial":
        """Canonical unit-class representative: min exponent 0, top coefficient > 0."""
        if not self.dense:
            raise ValueError("cannot unit-normalize the zero polynomial")
        return _poly(0, self.dense).scale(1 if self.dense[-1] > 0 else -1)

    def __str__(self) -> str:
        text = ""
        for e, c in reversed(self.coeffs.items()):
            tpow = "" if e == 0 else "t" if e == 1 else f"t^{e}"
            mag = "" if abs(c) == 1 and tpow else str(abs(c))
            text += ("-" if c < 0 else "+") + mag + tpow
        return text.removeprefix("+") or "0"

    def __repr__(self) -> str:
        return f"LaurentPolynomial({dict(self.coeffs)!r})"

    @classmethod
    def parse(cls, text: str) -> "LaurentPolynomial":
        """Parse forms like `-t^2+3t-1`, `t^-1`, `2t`, `0`."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        coeffs: dict[int, int] = {}
        pos = 0
        n = len(s)
        while pos < n:
            sign = -1 if s[pos] == "-" else 1
            pos += s[pos] in "+-"
            start = pos
            while pos < n and s[pos].isdigit():
                pos += 1
            mag_text = s[start:pos]
            if pos < n and s[pos] == "t":
                pos += 1
                exponent = 1
                if pos < n and s[pos] == "^":
                    pos += 1
                    estart = pos
                    if pos < n and s[pos] == "-":
                        pos += 1
                    while pos < n and s[pos].isdigit():
                        pos += 1
                    if pos == estart or s[estart:pos] == "-":
                        raise ValueError(f"bad exponent in {text!r}")
                    exponent = int(s[estart:pos])
            else:
                exponent = 0
                if not mag_text:
                    raise ValueError(f"bad term at position {start} in {text!r}")
            mag = int(mag_text) if mag_text else 1
            coeffs[exponent] = coeffs.get(exponent, 0) + sign * mag
        return cls(coeffs)


def _poly(low: int, cs: Sequence[int]) -> LaurentPolynomial:
    """sum_i cs[i] t^(low + i), dropping zeros at either end of cs."""
    start, end = 0, len(cs)
    while end and not cs[end - 1]:
        end -= 1
    while start < end and not cs[start]:
        start += 1
    p = object.__new__(LaurentPolynomial)
    object.__setattr__(p, "low", low + start if end else 0)
    object.__setattr__(p, "dense", tuple(cs[start:end]))
    return p


def unit_equivalent(a: LaurentPolynomial, b: LaurentPolynomial) -> bool:
    """True iff a = +-t^k * b for some k."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    return a.normalize_unit() == b.normalize_unit()


# Kernels on dense ascending coefficients over Z[t]; [] is zero.


def _strip(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _primitive(cs: Sequence[int]) -> list[int]:
    g = int_gcd(*cs)
    return [c // g for c in cs] if g > 1 else list(cs)


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _sub(a: Sequence[int], b: Sequence[int], sign: int = -1) -> list[int]:
    """a - b, or a + b with sign = 1."""
    out = list(a)
    out += [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += sign * y
    return _strip(out)


def _pseudo_divmod(
    a: Sequence[int], b: Sequence[int]
) -> tuple[int, list[int], list[int]]:
    """c > 0, q and r with c * a = q * b + r over Z[t] and deg r < deg b, b
    nonzero.  Each step scales by lead(b) / gcd(lead(b), lead(r)) only, so c = 1 when
    lead(b) divides every leading coefficient met."""
    r, lead = _strip(list(a)), b[-1]
    c, q = 1, [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        g = int_gcd(lead, r[-1]) if lead > 0 else -int_gcd(lead, r[-1])
        u, v = lead // g, r[-1] // g
        if u != 1:
            c, q, r = c * u, [x * u for x in q], [x * u for x in r]
        shift = len(r) - len(b)
        q[shift] = v
        for i, bc in enumerate(b, shift):
            r[i] -= v * bc
        r = _strip(r)
    return c, q, r


def _div_exact(num: Sequence[int], den: Sequence[int]) -> Optional[list[int]]:
    """Quotient q with num = den * q in Z[t], by integer long division from
    the top, or None as soon as a leading coefficient does not divide.
    Nonzero top coefficients; den is nonzero."""
    if not num:
        return []
    top = len(num) - len(den)
    if top < 0:
        return None
    lead = den[-1]
    rem = list(num)
    q = [0] * (top + 1)
    for k in range(top, -1, -1):
        c = rem[k + len(den) - 1]
        if c:
            if c % lead:
                return None
            f = q[k] = c // lead
            for i, d in enumerate(den, k):
                rem[i] -= f * d
    if any(rem[: len(den) - 1]):
        return None
    return q


def laurent_gcd(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """Gcd in Z[t, t^-1], unit-normalized.

    Computed as gcd(contents) times the primitive-part gcd found by a
    primitive pseudo-remainder sequence (Gauss's lemma).
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero():
        return b.normalize_unit()
    if b.is_zero():
        return a.normalize_unit()
    u, v = _primitive(a.dense), _primitive(b.dense)
    while v:
        u, v = v, _primitive(_pseudo_divmod(u, v)[2])
    return _poly(0, u).scale(int_gcd(a.content(), b.content())).normalize_unit()


def divide_exact(
    a: LaurentPolynomial, b: LaurentPolynomial
) -> Optional[LaurentPolynomial]:
    """Quotient q with b = a * q over Z[t, t^-1], or None when a does not divide b."""
    if a.is_zero():
        raise ValueError("division by the zero polynomial")
    q = _div_exact(b.dense, a.dense)
    return None if q is None else _poly(b.low - a.low, q)


def divides(a: LaurentPolynomial, b: LaurentPolynomial) -> bool:
    return divide_exact(a, b) is not None


def pseudo_quotient(
    a: LaurentPolynomial, b: LaurentPolynomial
) -> tuple[int, LaurentPolynomial]:
    """c > 0 and q with c * a - q * b spanning fewer powers of t than the
    nonzero b (`_pseudo_divmod`)."""
    c, q, _ = _pseudo_divmod(a.dense, b.dense)
    return c, _poly(a.low - b.low, q)
