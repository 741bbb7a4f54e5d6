from collections.abc import Mapping
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gluckknot.laurent import (
    LaurentPolynomial,
    divide_exact,
    divides,
    laurent_gcd,
    unit_equivalent,
)

L = LaurentPolynomial.parse

poly_st = st.dictionaries(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPolynomial)
nonzero_poly_st = poly_st.filter(lambda p: not p.is_zero())


class TestParsePrint:
    @pytest.mark.parametrize(
        "text",
        ["-t^2+3t-1", "t^-1", "0", "2t^2-2t+1", "t^3-2t^2+t-1", "5", "-t", "t^2+t^-2"],
    )
    def test_roundtrip(self, text):
        assert str(L(text)) == text

    def test_parse_variants(self):
        assert L("t^-1-3+t") == L("t^-1") + L("-3") + L("t")
        assert L("1t") == L("t")
        assert L("t+t") == L("2t")

    def test_bad_text(self):
        with pytest.raises(ValueError):
            L("t^")
        with pytest.raises(ValueError):
            L("")


class TestArithmetic:
    def test_difference_of_squares(self):
        assert L("t-1") * L("t+1") == L("t^2-1")

    def test_annihilation(self):
        assert L("t^2-3t+1") * LaurentPolynomial.zero() == LaurentPolynomial.zero()

    def test_shift_by_t(self):
        assert L("2-2t+t^2") * L("t") == L("2t-2t^2+t^3")

    @given(poly_st, poly_st, poly_st)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_evaluate(self):
        assert L("t^2-3t+1").evaluate(1) == -1
        assert L("1-t+2t^2-t^3").evaluate(1) == 1
        assert LaurentPolynomial.zero().evaluate(1) == 0
        assert L("t^-1+t").evaluate(-1) == -2

    def test_evaluate_rejects_other_points(self):
        with pytest.raises(ValueError):
            L("t").evaluate(2)


class TestUnits:
    def test_normalize_paper_value(self):
        assert L("-t^2+3t-1").normalize_unit() == L("t^2-3t+1")

    def test_normalize_shift(self):
        assert L("t^-1-3+t").normalize_unit() == L("t^2-3t+1")

    def test_normalize_constant(self):
        assert L("5").normalize_unit() == L("5")

    def test_normalize_zero_rejected(self):
        with pytest.raises(ValueError):
            LaurentPolynomial.zero().normalize_unit()

    @given(nonzero_poly_st)
    def test_normalize_idempotent(self, a):
        assert a.normalize_unit().normalize_unit() == a.normalize_unit()

    @given(nonzero_poly_st)
    def test_normalize_unit_equivalent(self, a):
        assert unit_equivalent(a, a.normalize_unit())

    def test_unit_equivalent_examples(self):
        assert unit_equivalent(L("-t^2+3t-1"), L("t^2-3t+1"))
        assert not unit_equivalent(L("2-2t+t^2"), L("2t^2-2t+1"))
        assert unit_equivalent(LaurentPolynomial.zero(), LaurentPolynomial.zero())

    @given(nonzero_poly_st, st.integers(-3, 3), st.sampled_from([1, -1]))
    def test_unit_equivalent_by_construction(self, a, k, sign):
        assert unit_equivalent(a, a.shift(k).scale(sign))


class TestReciprocal:
    def test_mirror_pair(self):
        assert L("2-2t+t^2").reciprocal() == L("2-2t^-1+t^-2")
        assert L("2-2t+t^2").reciprocal().normalize_unit() == L("2t^2-2t+1")

    def test_palindrome(self):
        d = L("t^2-3t+1")
        assert unit_equivalent(d, d.reciprocal())

    def test_zero(self):
        assert LaurentPolynomial.zero().reciprocal() == LaurentPolynomial.zero()

    @given(poly_st, poly_st)
    def test_ring_automorphism(self, a, b):
        assert (a * b).reciprocal() == a.reciprocal() * b.reciprocal()

    @given(poly_st)
    def test_involutive(self, a):
        assert a.reciprocal().reciprocal() == a


class TestGcdDivides:
    def test_gcd_common_factor(self):
        assert laurent_gcd(L("2-2t+t^2"), L("2t-2t^2+t^3")) == L("t^2-2t+2")

    def test_gcd_cyclotomic(self):
        assert laurent_gcd(L("t^2-1"), L("t^3-1")) == L("t-1")

    def test_gcd_content_only(self):
        assert laurent_gcd(L("6"), L("4t")) == L("2")

    def test_gcd_with_zero(self):
        a = L("t^2-3t+1")
        assert laurent_gcd(a, LaurentPolynomial.zero()) == a

    def test_gcd_both_zero_rejected(self):
        with pytest.raises(ValueError):
            laurent_gcd(LaurentPolynomial.zero(), LaurentPolynomial.zero())

    @given(nonzero_poly_st, nonzero_poly_st)
    def test_gcd_divides_both(self, a, b):
        g = laurent_gcd(a, b)
        assert divides(g, a) and divides(g, b)

    @given(nonzero_poly_st, nonzero_poly_st)
    def test_gcd_symmetric_up_to_units(self, a, b):
        assert unit_equivalent(laurent_gcd(a, b), laurent_gcd(b, a))

    def test_divides_true_with_quotient(self):
        assert divide_exact(L("t-1"), L("t^2-1")) == L("t+1")

    def test_divides_integer_obstruction(self):
        assert divide_exact(L("2"), L("t")) is None

    def test_divides_shift_pair(self):
        assert divide_exact(L("2-2t+t^2"), L("2t-2t^2+t^3")) == L("t")

    @given(nonzero_poly_st, poly_st)
    def test_divide_exact_inverts_multiplication(self, a, q):
        assert divide_exact(a, a * q) == q


def rational_divide_exact(a, b):
    """Oracle: long division over Q, kept integral only at the end."""
    def dense(p):
        return [p.coeffs.get(e, 0) for e in range(p.min_exponent, p.max_exponent + 1)]

    da = dense(a)
    rem = [Fraction(c) for c in dense(b)]
    if len(rem) < len(da):
        return None
    q = [Fraction(0)] * (len(rem) - len(da) + 1)
    for shift in range(len(q) - 1, -1, -1):
        factor = rem[shift + len(da) - 1] / da[-1]
        q[shift] = factor
        for i, c in enumerate(da):
            rem[shift + i] -= factor * c
    if any(rem) or any(c.denominator != 1 for c in q):
        return None
    quotient = LaurentPolynomial((i, int(c)) for i, c in enumerate(q))
    return quotient.shift(b.min_exponent - a.min_exponent)


class TestIntegerDivision:
    @given(nonzero_poly_st, nonzero_poly_st)
    def test_matches_rational_oracle(self, a, b):
        assert divide_exact(a, b) == rational_divide_exact(a, b)

    @given(nonzero_poly_st, nonzero_poly_st, nonzero_poly_st)
    def test_matches_rational_oracle_on_near_multiples(self, a, q, r):
        b = a * q + r
        if not b.is_zero():
            assert divide_exact(a, b) == rational_divide_exact(a, b)

    def test_non_dividing_leading_coefficient(self):
        assert divide_exact(L("2t+1"), L("t^2+1")) is None
        assert divide_exact(L("3t-3"), L("3t^2-6t+3")) == L("t-1")

    def test_low_remainder(self):
        # every leading step divides, but t^2+t+1 = (t+1) t + 1
        assert divide_exact(L("t+1"), L("t^2+t+1")) is None



class DictLaurent:
    """Oracle: the sorted-dict representation that the dense pair replaced,
    exponent -> nonzero coefficient, with its own dict arithmetic."""

    def __init__(self, items=()):
        clean = {}
        for e, c in items.items() if isinstance(items, dict) else items:
            clean[e] = clean.get(e, 0) + c
        self.coeffs = dict(sorted((e, c) for e, c in clean.items() if c))

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return DictLaurent(out)

    def __neg__(self):
        return DictLaurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return DictLaurent(
            (e1 + e2, c1 * c2)
            for e1, c1 in self.coeffs.items()
            for e2, c2 in other.coeffs.items()
        )

    def scale(self, c):
        return DictLaurent({e: c * v for e, v in self.coeffs.items()})

    def shift(self, k):
        return DictLaurent({e + k: c for e, c in self.coeffs.items()})

    def reciprocal(self):
        return DictLaurent({-e: c for e, c in self.coeffs.items()})

    def evaluate(self, t0):
        return sum(c * t0 ** (e % 2) for e, c in self.coeffs.items())

    def content(self):
        g = 0
        for c in self.coeffs.values():
            g = gcd(g, abs(c))
        return g

    def normalize_unit(self):
        shifted = self.shift(-min(self.coeffs))
        return -shifted if shifted.coeffs[max(shifted.coeffs)] < 0 else shifted

    def __str__(self):
        if not self.coeffs:
            return "0"
        text = ""
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                tpow = "t" if e == 1 else f"t^{e}"
                body = tpow if mag == 1 else f"{mag}{tpow}"
            text += ("-" if c < 0 else "+") + body
        return text[1:] if text[0] == "+" else text


def same(p, oracle):
    return list(p.coeffs.items()) == list(oracle.coeffs.items())


class TestAgainstDictOracle:
    coeffs_st = st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-9, max_value=9),
        max_size=7,
    )

    @given(coeffs_st, coeffs_st, st.integers(-4, 4), st.integers(-7, 7))
    def test_every_operation(self, ca, cb, c, k):
        a, b = LaurentPolynomial(ca), LaurentPolynomial(cb)
        oa, ob = DictLaurent(ca), DictLaurent(cb)
        assert same(a, oa) and same(b, ob)
        assert isinstance(a.coeffs, Mapping)
        with pytest.raises(TypeError):
            a.coeffs[0] = 1
        assert same(a + b, oa + ob)
        assert same(a - b, oa - ob)
        assert same(-a, -oa)
        assert same(a * b, oa * ob)
        assert same(a.scale(c), oa.scale(c))
        assert same(a.shift(k), oa.shift(k))
        assert same(a.reciprocal(), oa.reciprocal())
        assert a.evaluate(1) == oa.evaluate(1)
        assert a.evaluate(-1) == oa.evaluate(-1)
        assert a.content() == oa.content()
        assert str(a) == str(oa)
        assert LaurentPolynomial.parse(str(a)) == a
        assert repr(a) == f"LaurentPolynomial({oa.coeffs!r})"
        assert bool(a) == bool(oa.coeffs) == (not a.is_zero())
        assert (a == b) == (oa.coeffs == ob.coeffs)
        if a == b:
            assert hash(a) == hash(b)
        assert LaurentPolynomial(list(ca.items()) + [(k, c), (k, -c)]) == a
        if oa.coeffs:
            assert same(a.normalize_unit(), oa.normalize_unit())
            assert a.min_exponent == min(oa.coeffs)
            assert a.max_exponent == max(oa.coeffs)

    @given(coeffs_st, st.integers(-7, 7))
    def test_equal_values_hash_equal(self, ca, k):
        a = LaurentPolynomial(ca)
        b = LaurentPolynomial(ca).shift(k).shift(-k)
        assert a == b and hash(a) == hash(b)
        assert a != DictLaurent(ca)

    def test_constants(self):
        assert same(LaurentPolynomial.zero(), DictLaurent())
        assert same(LaurentPolynomial.constant(-3), DictLaurent({0: -3}))
        assert same(LaurentPolynomial.constant(0), DictLaurent())
