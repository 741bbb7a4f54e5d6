"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import random
import time

import pytest

from determinant import determinant
from smith import smith_sides
from gluckknot.coset import certify_trivial, enumerate_cosets
from gluckknot.fox import alexander_polynomial
from gluckknot.groupring import (
    GroupRingElement,
    fox_derivative,
    fundamental_identity_check,
)
from gluckknot.intmatrix import IntMatrix, cokernel, smith_normal_form
from gluckknot.laurent import LaurentPolynomial, divides, laurent_gcd, unit_equivalent
from gluckknot.minors import alexander_matrix
from gluckknot.twoknot import (
    GluckVariant,
    SpunObstruction,
    classify,
    complement_handle_counts,
    delta_classes,
    distinct,
    family_knot,
    family_presentation,
    gluck_handle_counts,
    gluck_quotient,
    spun_obstruction,
)
from gluckknot.words import Presentation, Word

L = LaurentPolynomial.parse

REPRESENTATIVES = [(0, 0), (1, 1), (1, 0), (0, 1)]
GOLDEN_DELTAS = {
    (0, 0): "-t^2+3t-1",
    (1, 1): "1-t+2t^2-t^3",
    (1, 0): "2-2t+t^2",
    (0, 1): "2t^2-2t+1",
}


def report(number, passed, label):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {label}")
    assert passed, f"criterion {number} failed: {label}"


def test_criterion_1_golden_polynomials():
    start = time.monotonic()
    ok = True
    for pq in REPRESENTATIVES:
        result = alexander_polynomial(family_presentation(*pq))
        ok = ok and unit_equivalent(result.polynomial, L(GOLDEN_DELTAS[pq]))
        ok = ok and result.certified_principal
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(1, ok, f"golden Alexander polynomials for 4 parities ({elapsed:.3f}s)")


def test_criterion_2_proposition_three_classes():
    start = time.monotonic()
    pairs = [(p, q) for p in range(-5, 6) for q in range(-5, 6)]
    classes = delta_classes(pairs)
    ok = len(classes) == 3
    for pq in REPRESENTATIVES:
        for rs in REPRESENTATIVES:
            parity_pair = lambda a, b: frozenset(
                ((a % 2, b % 2), (b % 2, a % 2))
            )
            expected_distinct = parity_pair(*pq) != parity_pair(*rs)
            ok = ok and distinct(pq, rs) == expected_distinct
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(2, ok, f"11x11 grid gives exactly 3 delta classes ({elapsed:.3f}s)")


def test_criterion_3_remark_spun_obstruction():
    expectations = {
        (0, 0): SpunObstruction.POSSIBLY_ONE_KNOT,
        (1, 1): SpunObstruction.NOT_ONE_KNOT,
        (1, 0): SpunObstruction.NOT_ONE_KNOT,
        (0, 1): SpunObstruction.NOT_ONE_KNOT,
    }
    ok = all(
        spun_obstruction(classify(*pq).alexander.polynomial) is expected
        for pq, expected in expectations.items()
    )
    report(3, ok, "spun obstruction: EE possibly, OO/OE/EO not a 1-knot")


def test_criterion_4_gluck_triviality():
    ok = True
    for pq in REPRESENTATIVES:
        knot = family_knot(*pq)
        for meridian in ("x", "y"):
            cert = certify_trivial(gluck_quotient(knot, meridian), max_cosets=100)
            ok = ok and cert.trivial
    report(4, ok, "gluck quotient certified trivial for 4 parities x 2 meridians")


def test_criterion_5_handle_count_euler_suite():
    ok = complement_handle_counts(1, 1).as_tuple() == (1, 2, 2, 2, 1)
    for m in range(1, 51):
        for n in range(1, 51):
            c = complement_handle_counts(m, n)
            ok = ok and c.euler_characteristic == 0
            for variant in GluckVariant:
                ok = ok and gluck_handle_counts(c, variant).euler_characteristic == 2
    report(5, ok, "chi(complement)=0 and chi(gluck)=2 for 1<=m,n<=50; (1,1) matches")


def _random_word(rng, ngens, max_len):
    letters = [
        rng.choice([s * g for g in range(1, ngens + 1) for s in (1, -1)])
        for _ in range(rng.randint(0, max_len))
    ]
    return Word(letters)


def test_criterion_6_fox_property_suite():
    rng = random.Random(20240817)
    ok = True
    for _ in range(10000):
        n = rng.randint(1, 4)
        ok = ok and fundamental_identity_check(_random_word(rng, n, 32), n)
    for _ in range(10000):
        n = rng.randint(1, 4)
        u = _random_word(rng, n, 16)
        v = _random_word(rng, n, 16)
        g = rng.randrange(n)
        lhs = fox_derivative(u * v, g)
        rhs = fox_derivative(u, g) + GroupRingElement.from_word(u) * fox_derivative(
            v, g
        )
        ok = ok and lhs == rhs
    for pq in REPRESENTATIVES:
        p = family_presentation(*pq)
        m = alexander_matrix(p)
        total = LaurentPolynomial.zero()
        for g, entry in enumerate(m.entries[0]):
            total = total + entry * LaurentPolynomial({m.weights[g]: 1, 0: -1})
        ok = ok and total.is_zero()
    report(6, ok, "fundamental identity + product rule on 10^4 words; row identity")


def test_criterion_7_algebra_property_suite():
    start = time.monotonic()
    rng = random.Random(97)
    ok = True
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = IntMatrix(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )
        snf = smith_normal_form(a)
        for d1, d2 in zip(snf.diagonal, snf.diagonal[1:]):
            ok = ok and d1 >= 0 and (d2 % d1 == 0 if d1 else d2 == 0)
        reconstructed, diagonal = smith_sides(snf, a)
        ok = ok and reconstructed == diagonal
        ok = ok and determinant(snf.left.data) in (1, -1)
        ok = ok and determinant(snf.right.data) in (1, -1)
    for _ in range(1000):
        a = LaurentPolynomial(
            {rng.randint(-4, 4): rng.randint(-8, 8) for _ in range(rng.randint(1, 5))}
        )
        b = LaurentPolynomial(
            {rng.randint(-4, 4): rng.randint(-8, 8) for _ in range(rng.randint(1, 5))}
        )
        if a.is_zero() and b.is_zero():
            continue
        g = laurent_gcd(a, b)
        ok = ok and divides(g, a) and divides(g, b)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(7, ok, f"SNF + gcd property suites on 10^3 random inputs ({elapsed:.1f}s)")


def test_criterion_8_coset_oracle_corpus():
    corpus = []
    for n in range(1, 13):
        corpus.append((Presentation.parse(f"< x | x^{n} >"), n))
    for n in range(1, 7):
        corpus.append((Presentation.parse(f"< x, y | x^{n}, y^2, xyxy >"), 2 * n))
    corpus.append((Presentation.parse("< x, y | x^4, x^2Y^2, Yxyx >"), 8))
    corpus.append((Presentation.parse("< | >"), 1))
    corpus.append((Presentation.parse("< x, y | x, y >"), 1))
    corpus.append((Presentation.parse("< x, y | xyxYXyxyXY, x >"), 1))
    ok = True
    for presentation, order in corpus:
        outcome = enumerate_cosets(presentation, (), 1000)
        ok = ok and outcome.finite and outcome.order == order
    report(8, ok, f"coset enumeration matches known orders on {len(corpus)} groups")


def test_criterion_9_h1_check():
    ok = True
    for pq in REPRESENTATIVES:
        p = family_presentation(*pq)
        h1 = cokernel(IntMatrix(p.exponent_matrix(), cols=p.ngens))
        ok = ok and h1.is_infinite_cyclic()
    report(9, ok, "H1 of all four family complements is Z")
