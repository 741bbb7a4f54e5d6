"""Integer Laurent polynomials in one variable t.

Values of Alexander invariants live here.  Units of Z[t, t^-1] are +-t^k;
`normalize_unit` fixes the canonical representative with minimal exponent 0
and positive top coefficient.
"""

from __future__ import annotations

from math import gcd as int_gcd
from typing import Iterable, Mapping, Optional, Sequence

from .intmatrix import bareiss, maximal_minors


class LaurentPolynomial:
    """Finite support map exponent -> integer coefficient; immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = coeffs
        clean: dict[int, int] = {}
        for e, c in items:
            if c:
                clean[e] = clean.get(e, 0) + c
                if not clean[e]:
                    del clean[e]
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def constant(cls, c: int) -> "LaurentPolynomial":
        return cls({0: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPolynomial(out)

    def scale(self, c: int) -> "LaurentPolynomial":
        return LaurentPolynomial({e: c * v for e, v in self.coeffs.items()})

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        return LaurentPolynomial({e + k: c for e, c in self.coeffs.items()})

    @property
    def min_exponent(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self.coeffs)

    @property
    def max_exponent(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self.coeffs)

    def content(self) -> int:
        """Gcd of coefficients (non-negative); 0 for the zero polynomial."""
        g = 0
        for c in self.coeffs.values():
            g = int_gcd(g, abs(c))
        return g

    def reciprocal(self) -> "LaurentPolynomial":
        """Substitute t -> t^-1 (exponent negation); a ring automorphism."""
        return LaurentPolynomial({-e: c for e, c in self.coeffs.items()})

    def evaluate(self, t0: int) -> int:
        if t0 not in (1, -1):
            raise ValueError("evaluation only supported at t = 1 or t = -1")
        return sum(c * (t0 ** (e % 2)) for e, c in self.coeffs.items())

    def normalize_unit(self) -> "LaurentPolynomial":
        """Canonical unit-class representative: min exponent 0, top coefficient > 0."""
        if self.is_zero():
            raise ValueError("cannot unit-normalize the zero polynomial")
        shifted = self.shift(-self.min_exponent)
        if shifted.coeffs[shifted.max_exponent] < 0:
            shifted = -shifted
        return shifted

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                tpow = "t" if e == 1 else f"t^{e}"
                body = tpow if mag == 1 else f"{mag}{tpow}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += sign + body
        return text

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.coeffs!r})"

    @classmethod
    def parse(cls, text: str) -> "LaurentPolynomial":
        """Parse forms like `-t^2+3t-1`, `t^-1`, `2t`, `0`."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return cls.zero()
        coeffs: dict[int, int] = {}
        pos = 0
        n = len(s)
        while pos < n:
            sign = 1
            if s[pos] in "+-":
                sign = -1 if s[pos] == "-" else 1
                pos += 1
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


def unit_equivalent(a: LaurentPolynomial, b: LaurentPolynomial) -> bool:
    """True iff a = +-t^k * b for some k."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    return a.normalize_unit() == b.normalize_unit()


def _to_coeff_list(a: LaurentPolynomial) -> list[int]:
    """Dense ascending coefficients of t^-min * a (ordinary polynomial form)."""
    lo, hi = a.min_exponent, a.max_exponent
    return [a.coeffs.get(e, 0) for e in range(lo, hi + 1)]


def _strip(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _list_content(cs: list[int]) -> int:
    g = 0
    for c in cs:
        g = int_gcd(g, abs(c))
    return g


def _primitive(cs: list[int]) -> list[int]:
    g = _list_content(cs)
    if g in (0, 1):
        return list(cs)
    return [c // g for c in cs]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of dense ascending integer polynomials, deg a >= deg b."""
    a = _strip(list(a))
    lead = b[-1]
    while len(a) >= len(b):
        shift = len(a) - len(b)
        la = a[-1]
        if lead != 1:
            a = [c * lead for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= la * bc
        a = _strip(a)
    return a


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
    content = int_gcd(a.content(), b.content())
    u = _primitive(_strip(_to_coeff_list(a)))
    v = _primitive(_strip(_to_coeff_list(b)))
    if len(u) < len(v):
        u, v = v, u
    while v:
        r = _pseudo_rem(u, v)
        u, v = v, _primitive(r)
    g = LaurentPolynomial(enumerate(u)).scale(content)
    return g.normalize_unit()


def _mul(a: list[int], b: list[int]) -> list[int]:
    """Product of dense ascending integer polynomials; [] is zero."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _sub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _strip(out)


def _div_exact(num: list[int], den: list[int]) -> Optional[list[int]]:
    """Quotient q with num = den * q in Z[t], by integer long division from
    the top, or None as soon as a leading coefficient does not divide.
    Dense ascending coefficients with nonzero top; den is nonzero."""
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


def _bareiss_div(num: list[int], den: list[int]) -> list[int]:
    q = _div_exact(num, den)
    if q is None:
        # Sylvester's identity makes every Bareiss division exact
        raise AssertionError("inexact division in Bareiss elimination")
    return q


def _shifted_dense(
    rows: Sequence[Sequence[LaurentPolynomial]],
) -> tuple[int, list[list[list[int]]]]:
    """Each row times the power of t that makes its exponents non-negative,
    as dense coefficient lists over Z[t]; also the total power, by which
    every maximal minor is shifted."""
    shift = 0
    dense = []
    for row in rows:
        lo = min((entry.min_exponent for entry in row if entry), default=0)
        shift += lo
        dense.append(
            [
                [0] * (entry.min_exponent - lo) + _to_coeff_list(entry) if entry else []
                for entry in row
            ]
        )
    return shift, dense


def _from_dense(cs: list[int], shift: int, sign: int = 1) -> LaurentPolynomial:
    return LaurentPolynomial((e + shift, sign * c) for e, c in enumerate(cs))


def laurent_determinant(
    rows: Sequence[Sequence[LaurentPolynomial]],
) -> LaurentPolynomial:
    """Determinant of a square matrix over Z[t, t^-1]: Bareiss elimination
    over Z[t] on the shifted rows (`_shifted_dense`), shifted back."""
    shift, dense = _shifted_dense(rows)
    det, negated = bareiss(dense, _mul, _sub, _bareiss_div, [1])
    return _from_dense(det, shift, -1 if negated else 1)


def laurent_maximal_minors(
    rows: Sequence[Sequence[LaurentPolynomial]],
) -> list[LaurentPolynomial]:
    """All maximal minors of an m x (m+1) matrix over Z[t, t^-1] from one
    elimination over Z[t] (`intmatrix.maximal_minors`); entry j is the minor
    with column j deleted.  Rows are shifted as for `laurent_determinant`."""
    shift, dense = _shifted_dense(rows)
    return [
        _from_dense(minor, shift)
        for minor in maximal_minors(dense, _mul, _sub, _bareiss_div, [1])
    ]


def divide_exact(
    a: LaurentPolynomial, b: LaurentPolynomial
) -> Optional[LaurentPolynomial]:
    """Quotient q with b = a * q over Z[t, t^-1], or None when a does not divide b."""
    if a.is_zero():
        raise ValueError("division by the zero polynomial")
    if b.is_zero():
        return LaurentPolynomial.zero()
    q = _div_exact(_to_coeff_list(b), _to_coeff_list(a))
    if q is None:
        return None
    return LaurentPolynomial(enumerate(q)).shift(b.min_exponent - a.min_exponent)


def divides(a: LaurentPolynomial, b: LaurentPolynomial) -> bool:
    return divide_exact(a, b) is not None
