from fractions import Fraction

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

