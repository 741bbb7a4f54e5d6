import contextlib
import copy
import io
import operator
import pickle
import random
import re
import time
from itertools import combinations
from math import comb, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from determinant import determinant
from gluckknot import cli, fox, minors
from gluckknot.fox import (
    MAX_MINOR_WORK,
    MAX_ROW_SUBSETS,
    MinorBoundError,
    OrientationError,
    _abelianization,
    _eliminate,
    _fox_rows,
    alexander_polynomial,
    solve_orientation_weights,
)
from gluckknot.groupring import (
    GroupRingElement,
    abelianize,
    fox_derivative,
    fundamental_identity_check,
)
from gluckknot.intmatrix import IntMatrix, cokernel
from gluckknot.laurent import (
    LaurentPolynomial,
    divide_exact,
    laurent_gcd,
    unit_equivalent,
)
from gluckknot.minors import (
    AlexanderMatrix,
    _minors,
    alexander_matrix,
    first_ideal_minors,
)
from gluckknot.words import Presentation, Word, parse_word

L = LaurentPolynomial.parse
XY = ("x", "y")

EE = "xyxYXyxyXY"
OO = "xyxyXYxYXY"
OE = "xyxYXYxyXY"
EO = "xyxyXyxYXY"


def pres(relator_text):
    return Presentation.parse(f"< x, y | {relator_text} >")


def w(text):
    return parse_word(text, XY)


word_st = st.lists(
    st.integers(min_value=1, max_value=3).flatmap(lambda g: st.sampled_from([g, -g])),
    max_size=24,
).map(Word)


def prefix_oracle(word: Word, gen: int) -> GroupRingElement:
    """Independent expansion: sum over occurrences of +-(prefix)."""
    terms = []
    for i, letter in enumerate(word.letters):
        if letter == gen + 1:
            terms.append((Word(word.letters[:i]), 1))
        elif letter == -(gen + 1):
            terms.append((Word(word.letters[: i + 1]), -1))
    return GroupRingElement(terms)


class TestFoxDerivative:
    def test_base_rule(self):
        assert fox_derivative(w("x"), 0) == GroupRingElement.one()

    def test_inverse_rule(self):
        assert fox_derivative(w("X"), 0) == GroupRingElement({w("X"): -1})

    def test_other_generator(self):
        assert fox_derivative(w("y"), 0).is_zero()

    def test_trefoil_relator(self):
        d = fox_derivative(w("xyxYXY"), 0)
        expected = GroupRingElement({Word(): 1, w("xy"): 1, w("xyxYX"): -1})
        assert d == expected

    def test_empty_word(self):
        assert fox_derivative(Word(), 0).is_zero()

    @given(word_st, word_st)
    def test_product_rule(self, u, v):
        for g in range(3):
            lhs = fox_derivative(u * v, g)
            rhs = fox_derivative(u, g) + GroupRingElement.from_word(u) * fox_derivative(v, g)
            assert lhs == rhs

    @given(word_st)
    def test_fundamental_identity(self, word):
        assert fundamental_identity_check(word, 3)

    def test_fundamental_identity_family_relators(self):
        for text in (EE, OO, OE, EO):
            assert fundamental_identity_check(w(text), 2)

    @given(word_st)
    def test_matches_prefix_oracle(self, word):
        for g in range(3):
            assert fox_derivative(word, g) == prefix_oracle(word, g)


class TestOrientationWeights:
    def test_even_even(self):
        assert solve_orientation_weights(pres(EE)) == (1, -1)

    def test_odd_even(self):
        assert solve_orientation_weights(pres(OE)) == (1, 1)

    def test_free_rank_one(self):
        assert solve_orientation_weights(Presentation.parse("< x | >")) == (1,)

    def test_rank_two_rejected(self):
        with pytest.raises(OrientationError):
            solve_orientation_weights(Presentation.parse("< x, y | >"))

    def test_rank_zero_rejected(self):
        with pytest.raises(OrientationError):
            solve_orientation_weights(Presentation.parse("< x | x^3 >"))

    def test_weights_annihilate_exponents(self):
        for text in (EE, OO, OE, EO):
            p = pres(text)
            weights = solve_orientation_weights(p)
            sums = p.relators[0].exponent_sums(2)
            assert sum(a * b for a, b in zip(weights, sums)) == 0


class TestAbelianize:
    def test_trefoil_derivative(self):
        e = GroupRingElement({Word(): 1, w("xy"): 1, w("xyxYX"): -1})
        assert abelianize(e, (1, 1)) == L("1+t^2-t")

    def test_even_even_golden(self):
        d = fox_derivative(w(EE), 0)
        value = abelianize(d, (1, -1))
        assert value == L("3-t-t^-1")
        assert value.normalize_unit() == L("t^2-3t+1")

    def test_zero(self):
        assert abelianize(GroupRingElement.zero(), (1, 1)).is_zero()


class TestAlexanderMatrix:
    def test_odd_even_row(self):
        m = alexander_matrix(pres(OE))
        assert m.rows == 1 and m.cols == 2
        a_x, a_y = m.entries[0]
        assert unit_equivalent(a_x, L("2-2t+t^2"))
        # row identity forces a_y = -a_x when both weights are 1
        assert a_y == -a_x

    def test_free_group_no_rows(self):
        m = alexander_matrix(Presentation.parse("< x | >"))
        assert m.rows == 0 and m.cols == 1

    def test_row_identity_all_family(self):
        for text in (EE, OO, OE, EO):
            p = pres(text)
            m = alexander_matrix(p)
            total = LaurentPolynomial.zero()
            for g, entry in enumerate(m.entries[0]):
                total = total + entry * LaurentPolynomial({m.weights[g]: 1, 0: -1})
            assert total.is_zero()

    def test_row_subset_names_resolve_through_fox(self):
        # the row-subset path lives in `minors`; `fox` still answers for it
        assert fox.alexander_matrix is alexander_matrix
        assert fox.first_ideal_minors is first_ideal_minors
        with pytest.raises(AttributeError):
            fox.no_such_name


GOLDEN = {
    EE: "-t^2+3t-1",
    OO: "1-t+2t^2-t^3",
    OE: "2-2t+t^2",
    EO: "2t^2-2t+1",
}


class TestAlexanderPolynomial:
    @pytest.mark.parametrize("relator,delta", list(GOLDEN.items()))
    def test_golden_values(self, relator, delta):
        result = alexander_polynomial(pres(relator))
        assert unit_equivalent(result.polynomial, L(delta))
        assert result.certified_principal

    def test_normalized_output(self):
        result = alexander_polynomial(pres(EE))
        assert result.polynomial == result.polynomial.normalize_unit()

    def test_trefoil(self):
        result = alexander_polynomial(pres("xyxYXY"))
        assert unit_equivalent(result.polynomial, L("t^2-t+1"))

    def test_delta_at_one_is_unit(self):
        for relator in GOLDEN:
            d = alexander_polynomial(pres(relator)).polynomial
            assert d.evaluate(1) in (1, -1)

    def test_free_group_delta_one(self):
        # the unknot group: the single 0 x 0 minor is 1
        result = alexander_polynomial(Presentation.parse("< x | >"))
        assert result.polynomial == LaurentPolynomial.constant(1)
        assert result.certified_principal

    def test_weight_flip_gives_reciprocal(self):
        for relator in GOLDEN:
            p = pres(relator)
            weights = solve_orientation_weights(p)
            flipped = tuple(-x for x in weights)
            m1 = alexander_matrix(p, weights)
            m2 = alexander_matrix(p, flipped)
            for row1, row2 in zip(m1.entries, m2.entries):
                for e1, e2 in zip(row1, row2):
                    assert e2 == e1.reciprocal()
            d = alexander_polynomial(p).polynomial
            flipped_entry = m2.entries[0][0]
            assert unit_equivalent(flipped_entry, d.reciprocal())


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_values_copy_and_pickle(copier):
    # the immutable classes refuse setattr, through which the default
    # reduction would restore their slots
    p = pres(OO)
    result = alexander_polynomial(p)
    values = [result, result.polynomial, L("3-t^-2"), LaurentPolynomial.zero(), p]
    values += [p.relators[0], fox_derivative(p.relators[0], 1), GroupRingElement()]
    for value in values:
        twin = copier(value)
        assert type(twin) is type(value) and twin == value
        if type(value).__hash__ is not None:  # GroupRingElement is unhashable
            assert hash(twin) == hash(value)


def test_fundamental_identity_bulk_seeded():
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randint(1, 4)
        raw = [
            rng.choice([s * g for g in range(1, n + 1) for s in (1, -1)])
            for _ in range(rng.randint(0, 32))
        ]
        assert fundamental_identity_check(Word(raw), n)


def laplace_determinant(rows):
    """Oracle: first-row cofactor expansion over Z[t, t^-1], skipping the
    cofactors of zero entries."""
    if not rows:
        return LaurentPolynomial.constant(1)
    total = LaurentPolynomial.zero()
    for j, entry in enumerate(rows[0]):
        if not entry:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = entry * laplace_determinant(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def laurent_determinant(rows):
    """Oracle: fraction-free Bareiss elimination on the polynomial objects
    themselves, dividing exactly over Z[t, t^-1]; shares no row-shifting
    code with the minors it checks."""
    one = LaurentPolynomial.constant(1)
    return determinant(
        rows, operator.mul, operator.sub, lambda num, den: divide_exact(den, num), one
    )


small_poly_st = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-4, max_value=4),
    max_size=3,
).map(LaurentPolynomial)
laurent_square_st = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(small_poly_st, min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(laurent_square_st)
def test_bareiss_matches_laplace(rows):
    assert laurent_determinant(rows) == laplace_determinant(rows)


def test_bareiss_rank_deficient_and_swaps():
    t = L("t")
    one, zero = L("1"), L("0")
    assert laurent_determinant([[zero, t], [one, zero]]) == -t
    assert laurent_determinant([[t, t], [t, t]]).is_zero()
    assert laurent_determinant([[L("t^-2"), zero], [zero, L("t^3-1")]]) == L("t-t^-2")


def wirtinger_torus(n):
    """T(2,n): arc i+2 is arc i conjugated by arc i+1."""
    gens = [f"x{i}" for i in range(n)]
    rels = [
        Word([(i + 1) % n + 1, i + 1, -((i + 1) % n + 1), -((i + 2) % n + 1)])
        for i in range(n)
    ]
    return Presentation(gens, rels)


@pytest.mark.parametrize(
    "p",
    [pres(r) for r in GOLDEN]
    + [pres("xyxYXY"), Presentation.parse("< x | >")]
    + [wirtinger_torus(n) for n in (3, 5, 7, 9, 11)]
    # torsion in H1: weights (1, 0), and (3, 2, 2) with no weight +-1
    + [Presentation.parse("<x,y | y^2, xyXY>")]
    + [Presentation.parse("<x,y,z | x^2 Y^3, y^2 Z^2>")],
)
def test_minors_match_laplace(p):
    matrix = alexander_matrix(p)
    k = matrix.cols - 1
    expected = [
        laplace_determinant([[matrix.entries[i][j] for j in cols] for i in rows])
        for rows in combinations(range(matrix.rows), k)
        for cols in combinations(range(matrix.cols), k)
    ]
    assert first_ideal_minors(p) == expected


def per_minor_oracle(entries, cols):
    """Each (cols-1) x (cols-1) minor by its own elimination, rows before
    columns in lexicographic order."""
    k = cols - 1
    return [
        laurent_determinant([[entries[i][j] for j in col_idx] for i in row_idx])
        for row_idx in combinations(range(len(entries)), k)
        for col_idx in combinations(range(cols), k)
    ]


@st.composite
def wide_laurent_st(draw):
    """An r x (m+1) Laurent matrix, sometimes with a zero column, a repeated
    or scaled row (rank deficiency) or a zero top-left block (row swaps)."""
    m = draw(st.integers(min_value=0, max_value=4))
    r = draw(st.integers(min_value=0, max_value=5))
    rows = draw(
        st.lists(
            st.lists(small_poly_st, min_size=m + 1, max_size=m + 1),
            min_size=r,
            max_size=r,
        )
    )
    if rows and draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=m))
        for row in rows:
            row[j] = LaurentPolynomial.zero()
    if len(rows) >= 2 and draw(st.booleans()):
        factor = draw(small_poly_st)
        rows[1] = [entry * factor for entry in rows[0]]
    if rows and draw(st.booleans()):
        corner = draw(st.integers(min_value=1, max_value=m + 1))
        for row in rows[: len(rows) - 1]:
            row[:corner] = [LaurentPolynomial.zero()] * corner
    return rows, m + 1


@settings(max_examples=300, deadline=None)
@given(wide_laurent_st())
# each row is shifted into Z[t] by its own lowest exponent: rows whose lowest
# exponents lie far apart, an all-zero row (shift 0), a single nonzero entry
@example(
    ([[L("t^-40+t^-38"), L("3"), L("2t^-39")], [L("t^35"), L("0"), L("t^37-t^36")]], 3)
)
@example(([[L("t^-2"), L("1-t"), L("t^3")], [L("0")] * 3, [L("t"), L("2"), L("t^-1")]], 3))
@example(([[L("0"), L("-2t^-5"), L("0")], [L("1+t"), L("t^4"), L("2")]], 3))
def test_minors_match_per_minor_oracle(case):
    rows, cols = case
    matrix = AlexanderMatrix(tuple(map(tuple, rows)), weights=(0,) * cols)
    assert list(_minors(matrix)) == per_minor_oracle(rows, cols)


def test_minors_of_empty_block():
    # the 0 x 1 matrix has one maximal minor, the empty determinant
    minors = list(_minors(AlexanderMatrix((), weights=(1,))))
    assert minors == [LaurentPolynomial.constant(1)]


@settings(max_examples=200, deadline=None)
@given(word_st, st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
def test_fox_rows_match_derivative_oracle(word, wy, wz):
    """Rows from prefix weights against abelianize(fox_derivative(...)); the
    relator ends in x^-e, e its weight, so the row identity holds."""
    weights = (1, wy, wz)
    e = sum(w * s for w, s in zip(weights, word.exponent_sums(3)))
    relator = word * Word([1]) ** (-e)
    p = Presentation(("x", "y", "z"), [relator])
    (row,) = alexander_matrix(p, weights).entries
    r = relator.cyclically_reduced()
    assert row == tuple(abelianize(fox_derivative(r, g), weights) for g in range(3))


def test_torus_knot_25_from_words():
    # beyond the 26-letter text grammar; Delta comes from one elimination
    result = alexander_polynomial(wirtinger_torus(25))
    assert result.certified_principal
    expected = LaurentPolynomial({k: (-1) ** k for k in range(25)})
    assert unit_equivalent(result.polynomial, expected)


def relators_around_limit(extra, first="y"):
    """<x, y | FIRST, xyXY, ...> with MAX_ROW_SUBSETS + extra relators: one
    row subset per relator.  With FIRST = y, H1 = Z and x has weight 1; with
    FIRST = yy, H1 = Z + Z/2."""
    return Presentation.parse(
        f"<x, y | {first}, " + ", ".join(["xyXY"] * (MAX_ROW_SUBSETS - 1 + extra)) + ">"
    )


def test_row_subset_bound_at_limit():
    p = relators_around_limit(0)
    assert len(first_ideal_minors(p)) == 2 * MAX_ROW_SUBSETS
    assert alexander_polynomial(p).polynomial == LaurentPolynomial.constant(1)


def test_row_subset_bound_above_limit(monkeypatch):
    # the minors are refused; Delta, from one elimination of the y column
    # (x has weight 1), is not, and the elimination certifies it
    message = f"the Alexander matrix has {MAX_ROW_SUBSETS + 1} row subsets"
    p = relators_around_limit(1)
    with pytest.raises(MinorBoundError, match=message):
        first_ideal_minors(p)
    result = alexander_polynomial(p)
    assert result.polynomial == LaurentPolynomial.constant(1)
    assert result.certified_principal
    # with H1 = Z + Z/2 the input stays on the row-subset path and is refused
    # before any Alexander matrix is built
    def built(p, weights=None):
        raise AssertionError("the Alexander matrix was built")

    monkeypatch.setattr(minors, "alexander_matrix", built)
    p = relators_around_limit(1, first="yy")
    with pytest.raises(MinorBoundError, match=message):
        first_ideal_minors(p)
    with pytest.raises(MinorBoundError, match=message):
        alexander_polynomial(p)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["alex", str(p)])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith(f"error: {message}")


def chain3(e):
    """<x,y,z | x^e Y^e, y^e Z^e>: one 2 x 3 row block, both rows spanning
    e - 1 powers of t, so the estimate is 1 * 2 * e^2 coefficient products."""
    return Presentation.parse(f"<x, y, z | x^{e} Y^{e}, y^{e} Z^{e}>")


class EliminationReached(Exception):
    pass


def test_minor_work_bound_at_limit(monkeypatch):
    e = isqrt(MAX_MINOR_WORK // 2)  # 2e^2 <= limit < 2(e+1)^2

    def stop(rows, mul, sub, div, one):
        raise EliminationReached

    # the block at the limit is admitted (its eliminations take seconds)
    monkeypatch.setattr(minors, "maximal_minors", stop)
    with pytest.raises(EliminationReached):
        alexander_polynomial(chain3(e))
    with pytest.raises(EliminationReached):
        first_ideal_minors(chain3(e))


def test_minor_work_bound_above_limit(monkeypatch):
    e = isqrt(MAX_MINOR_WORK // 2) + 1
    monkeypatch.setattr(minors, "maximal_minors", None)  # never reached
    message = f"estimated {2 * e * e} coefficient products, more than the limit"
    with pytest.raises(MinorBoundError, match=message):
        alexander_polynomial(chain3(e))
    with pytest.raises(MinorBoundError, match=message):
        first_ideal_minors(chain3(e))


def torus_pair(n):
    """<x, y | x^n Y^(n-1)>, the torus knot T(n, n-1): weights (n-1, n), so
    the two entries, which are the minors, have (n-1)^2 + 1 and n(n-2) + 1
    coefficients, and Delta has (n-1)(n-2) + 1."""
    return Presentation.parse(f"<x, y | x^{n} Y^{n - 1}>")


def test_gcd_bound_at_limit_on_two_generators():
    # lengths 2501 and 2500: 2501 * 2500 for the gcd and 1251 * 1251 +
    # 1251 * 1250 for the divisions, 9381251 in all; the last n admitted
    n = 51
    t = lambda e: LaurentPolynomial({e: 1})  # t^e
    one = LaurentPolynomial.constant(1)
    expected = divide_exact(
        (t(n) - one) * (t(n - 1) - one),
        (t(n * (n - 1)) - one) * (t(1) - one),
    )
    result = alexander_polynomial(torus_pair(n))
    assert unit_equivalent(result.polynomial, expected)
    assert len(result.polynomial.dense) == (n - 1) * (n - 2) + 1
    assert len(first_ideal_minors(torus_pair(n))) == 2


def test_gcd_bound_above_limit_on_two_generators(monkeypatch):
    # lengths 2602 and 2601: 2602 * 2601 + 1302 * 1301 + 1301 * 1301; the
    # entries are the minors, so the sparse rows are refused before any
    # dense entry is built
    monkeypatch.setattr(minors, "LaurentPolynomial", None)  # never reached
    message = "the gcd of the Alexander minors needs an estimated 10154305 coefficient"
    with pytest.raises(MinorBoundError, match=message):
        alexander_polynomial(torus_pair(52))
    with pytest.raises(MinorBoundError, match=message):
        first_ideal_minors(torus_pair(52))


def test_gcd_bound_at_limit_on_three_generators():
    # chain3(e) has three minors +-a^2, a = 1 + ... + t^(e-1), of length
    # L = 2e - 1: 2 L^2 for the gcd and 3 e^2 for the divisions, 11e^2 - 8e + 2
    # = 9982677 for e = 953
    e = 953
    a = LaurentPolynomial({k: 1 for k in range(e)})
    result = alexander_polynomial(chain3(e))
    assert result.polynomial == a * a and result.certified_principal


def test_gcd_bound_above_limit_on_three_generators(monkeypatch):
    # 10003646 for e = 954; the minors themselves are admitted
    monkeypatch.setattr(minors, "laurent_gcd", None)  # never reached
    with pytest.raises(MinorBoundError, match="estimated 10003646 coefficient products"):
        alexander_polynomial(chain3(954))
    assert len(first_ideal_minors(chain3(954))) == 3


@pytest.mark.parametrize(
    "text,refusal",
    [
        ("<x,y | x^299 Y^298>", "the gcd of the Alexander minors needs"),
        ("<x,y | x^999 Y^998>", "the gcd of the Alexander minors needs"),
        ("<x,y | x^4999 Y^5000>", "the gcd of the Alexander minors needs"),
        ("<x,y,z | x^3000 Y^2999, y^3000 Z^2999>", "the Alexander minors need"),
    ],
)
def test_wide_entries_refused_quickly(text, refusal):
    # the entries span up to 2.7e10 exponents, so densifying them first
    # would exhaust memory
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["alex", text])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith(f"error: {refusal} an estimated")


@pytest.mark.parametrize(
    "text",
    [
        "<x,y,z | x^4000 Y^4000, y^4000 Z^4000>",
        "<w,x,y,z | w^3000 X^3000, x^3000 Y^3000, y^3000 Z^3000>",
        "<a,b,c,d,e,f | a^2000 B^2000, b^2000 C^2000, c^2000 D^2000,"
        " d^2000 E^2000, e^2000 F^2000>",
    ],
)
def test_large_blocks_refused_quickly(text):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["alex", text])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: the Alexander minors need an estimated")


def test_long_relator_on_two_generators_admitted():
    # a 1 x 2 block needs no products, whatever its exponent span
    result = alexander_polynomial(Presentation.parse("<x, y | x^9999 y>"))
    assert result.polynomial == LaurentPolynomial.constant(1)
    assert result.weights == (1, -9999)


def test_torus_knot_delta():
    # T(2,n) has delta = 1 - t + ... + t^(n-1), up to units
    for n in (3, 5, 7):
        expected = LaurentPolynomial({k: (-1) ** k for k in range(n)})
        result = alexander_polynomial(wirtinger_torus(n))
        assert unit_equivalent(result.polynomial, expected)
        assert result.certified_principal


@st.composite
def presentation_text_st(draw):
    """Up to 4 generators and 5 relators of up to 8 letters each."""
    gens = "abcd"[: draw(st.integers(min_value=1, max_value=4))]
    word = st.text(alphabet=gens + gens.upper(), min_size=1, max_size=8)
    relators = draw(st.lists(word, max_size=5))
    return f"<{', '.join(gens)} | {', '.join(relators)}>"


@settings(max_examples=300, deadline=None)
@given(presentation_text_st())
def test_alexander_total_on_small_presentations(text):
    """Either the free rank is not 1, or Delta(1) is nonzero and divides the
    order of H1's torsion: at t = 1 the minors are those of the exponent
    matrix, whose gcd is that order.  Certified principality makes the two
    equal.  The CLI reports either case without an internal error."""
    p = Presentation.parse(text)
    try:
        result = alexander_polynomial(p)
    except OrientationError:
        result = None
    if result is not None:
        torsion = prod(cokernel(IntMatrix(p.exponent_matrix(), cols=p.ngens)).torsion)
        at_one = abs(result.polynomial.evaluate(1))
        assert at_one != 0 and torsion % at_one == 0
        if result.certified_principal:
            assert at_one == torsion
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["alex", text, "--json"])
    assert code == (2 if result is None else 0), err.getvalue()


def row_subset_oracle(p):
    """Delta as the gcd of every first-ideal minor, with the labels of the
    all-minors rule (every nonzero minor a unit multiple of the gcd) and of
    the one-minor rule (some nonzero minor one)."""
    nonzero = [m for m in first_ideal_minors(p) if m]
    g = nonzero[0]
    for m in nonzero[1:]:
        g = laurent_gcd(g, m)
    every = all(unit_equivalent(m, g) for m in nonzero)
    return g.normalize_unit(), every, any(unit_equivalent(m, g) for m in nonzero)


def gcd_mod(polys, prime):
    """Monic gcd over GF(prime)[t, t^-1] of Laurent polynomials, as ascending
    coefficients with no power of t; [] when all vanish mod prime."""

    def reduce(f):
        f = [c % prime for c in f]
        while f and not f[-1]:
            f.pop()
        while f and not f[0]:
            f.pop(0)
        return f

    g = []
    for f in polys:
        a, b = reduce(f.dense), g
        while b:
            inverse = pow(b[-1], -1, prime)
            while len(a) >= len(b):
                k, shift = a[-1] * inverse, len(a) - len(b)
                a = reduce(a[:shift] + [x - k * y for x, y in zip(a[shift:], b)])
            a, b = b, a
        g = [c * pow(a[-1], -1, prime) for c in a] if a else a
    return [c % prime for c in g]


def unit_weight_elimination(p):
    """`_eliminate` on the matrix without the first column of weight +-1, or
    None when H1 has torsion or no weight is +-1."""
    h1, weights = _abelianization(p)
    units = [j for j, w in enumerate(weights) if w in (1, -1)]
    if h1.torsion or not units:
        return None
    k = units[0]
    return _eliminate([row[:k] + row[k + 1 :] for row in _fox_rows(p, weights)])


@settings(max_examples=300, deadline=None)
@given(presentation_text_st())
def test_alexander_matches_row_subset_oracle(text):
    """Delta equals the gcd of all minors.  The label certifies everything
    the one-minor rule certifies, which certifies everything the all-minors
    rule does; a certificate beyond the one-minor rule comes from an
    elimination invertible over Z[t, t^-1]."""
    p = Presentation.parse(text)
    try:
        result = alexander_polynomial(p)
    except OrientationError:
        return
    delta, every, one = row_subset_oracle(p)
    assert result.polynomial == delta
    assert one or not every
    elimination = unit_weight_elimination(p)
    if elimination is None:
        assert result.certified_principal == one
    else:
        assert elimination[0] == delta
        assert result.certified_principal == (one or elimination[1])
    if result.certified_principal:
        # E1 = (Delta) survives reduction mod each prime
        for prime in (2, 3, 5):
            minors = first_ideal_minors(p)
            assert gcd_mod(minors, prime) == gcd_mod([delta], prime)


def test_one_minor_rule_certifies():
    # four nonzero minors, two of them unit multiples of Delta = 1: the
    # all-minors rule left this gcd-only
    p = Presentation.parse("< a, b, c, d | d, DADbb, c, cdC >")
    nonzero = [m for m in first_ideal_minors(p) if m]
    assert nonzero == [L("-t^-2"), L("t^-1+t^-2"), L("-t^-2"), L("t^-1+t^-2")]
    assert row_subset_oracle(p) == (LaurentPolynomial.constant(1), False, True)
    result = alexander_polynomial(p)
    assert result.polynomial == LaurentPolynomial.constant(1)
    assert result.certified_principal


def test_torsion_input_stays_gcd_only():
    # H1 = Z + Z/2: the minors 2 and t - 1 have gcd 1, and neither is a unit
    p = Presentation.parse("<x, y | yy, xyXY>")
    assert [m for m in first_ideal_minors(p) if m] == [L("2"), L("t-1")]
    result = alexander_polynomial(p)
    assert result.polynomial == LaurentPolynomial.constant(1)
    assert not result.certified_principal


@pytest.mark.parametrize(
    "text,nonzero,prime,reduced",
    [
        # b has weight 1; the elimination scales a row by 3
        ("<a, b | AAA, bbaaBBA>", ["-3", "2t^2-1"], 3, [1, 0, 1]),
        # c has weight 1; every row step has c = 1, one divides by a content
        ("<a, b, c | BBaAA, BACbcbba, CcbA>", ["-1-t^-1", "-3", "1+t^-1"], 3, [1, 1]),
    ],
)
def test_non_principal_ideal_stays_gcd_only(text, nonzero, prime, reduced):
    # H1 = Z and Delta = 1, yet E1 is not principal: mod the prime the gcd
    # of the minors is not a unit, so nothing may certify Delta
    p = Presentation.parse(text)
    minors = first_ideal_minors(p)
    assert [m for m in minors if m] == list(map(L, nonzero))
    assert gcd_mod(minors, prime) == reduced
    assert unit_weight_elimination(p) == (LaurentPolynomial.constant(1), False)
    result = alexander_polynomial(p)
    assert result.polynomial == LaurentPolynomial.constant(1)
    assert not result.certified_principal


@pytest.mark.parametrize("n", range(13, 64, 2))
def test_torus_knots_beyond_the_minors(n):
    # T(2,27) and up were refused while Delta came from the minors
    result = alexander_polynomial(wirtinger_torus(n))
    assert result.polynomial == LaurentPolynomial({k: (-1) ** k for k in range(n)})
    assert result.certified_principal
    assert unit_weight_elimination(wirtinger_torus(n))[1]


def bound_pair(n):
    """<x, y, z | y z x^n Z X^n, z x y x^n y X^(n+1) Y>: weights (1, 0, 0),
    H1 = Z.  Without the x column the rows are (1, 1 - t^n) and (q, 1), q =
    t^(n+1) + t - 1; the elimination builds 4n + 10 coefficients, takes
    (n + 2)(n + 1) products for its one row step, and 1 + (2n + 2) for the
    pivot product: n^2 + 9n + 15 in all."""
    return Presentation.parse(
        f"<x, y, z | y z x^{n} Z X^{n}, z x y x^{n} y X^{n + 1} Y>"
    )


def test_elimination_bound_at_limit(monkeypatch):
    n = 3157  # 9995077 products; 3158 would take 10001401
    monkeypatch.setattr(minors, "maximal_minors", None)  # never reached
    result = alexander_polynomial(bound_pair(n))
    assert result.polynomial == L(f"t^{2 * n + 1}-t^{n}-t+2")
    assert result.certified_principal


def test_elimination_bound_above_limit(monkeypatch):
    steps = []

    def spy(a, b):
        steps.append(a)
        return fox_pseudo_quotient(a, b)

    fox_pseudo_quotient = fox.pseudo_quotient
    monkeypatch.setattr(fox, "pseudo_quotient", spy)
    monkeypatch.setattr(minors, "maximal_minors", None)  # never reached
    message = (
        "the elimination of the Alexander matrix needs an estimated 10001401 "
        f"coefficient products, more than the limit of {MAX_MINOR_WORK}"
    )
    with pytest.raises(MinorBoundError, match=message):
        alexander_polynomial(bound_pair(3158))
    assert len(steps) == 1  # refused mid-run, after the row step
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["alex", str(bound_pair(3158))])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue() == f"error: {message}\n"


def test_wide_entries_refused_before_they_are_built(monkeypatch):
    # weights (1, 3000, 9 * 10^6): the z column spans millions of powers of
    # t, so the first row step is charged, and refused, from the sparse
    # extents alone
    monkeypatch.setattr(fox, "LaurentPolynomial", None)  # never reached
    message = (
        "the elimination of the Alexander matrix needs an estimated 26991008 "
        f"coefficient products, more than the limit of {MAX_MINOR_WORK}"
    )
    with pytest.raises(MinorBoundError, match=message):
        alexander_polynomial(Presentation.parse("<x, y, z | y X^3000, z Y^3000, zxZX>"))


def test_wide_entry_of_a_later_column_refused_before_it_is_built(monkeypatch):
    # weights (1, 5, 3000): the z column has one live row, so no row step;
    # the y entry of the last relator spans about 5.1 * 10^6 powers of t and
    # meets its first row step in the y column, which is charged, and
    # refused, from the sparse extents before that entry is built
    built = []

    def spy(coeffs):
        built.append(len(coeffs))
        return LaurentPolynomial(coeffs)

    monkeypatch.setattr(fox, "LaurentPolynomial", spy)
    text = "<x, z, y | y X^3000, z X^5, x y^1700 X Y^1700>"
    message = (
        "the elimination of the Alexander matrix needs an estimated 15291009 "
        f"coefficient products, more than the limit of {MAX_MINOR_WORK}"
    )
    with pytest.raises(MinorBoundError, match=message):
        alexander_polynomial(Presentation.parse(text))
    assert built and max(built) == 1  # the z pivot and the product, one term each
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["alex", text])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue() == f"error: {message}\n"


# The one-minor check of `minors._one_minor_certifies` works within the
# bounds of `first_ideal_minors`; past them it gives up, and Delta, which
# the elimination left unproved, is printed gcd-only instead of refused.
# Seventy more copies of XXYX make C(72, 2) = 2556 row subsets of size 2.
WITHIN_ROW_SUBSETS = "< x, y, z | XXYX, XYxyyXY >"
PAST_ROW_SUBSETS = "< x, y, z | " + "XXYX, " * 71 + "XYxyyXY >"


def test_one_minor_check_past_its_bound_stays_gcd_only(monkeypatch):
    within = Presentation.parse(WITHIN_ROW_SUBSETS)
    past = Presentation.parse(PAST_ROW_SUBSETS)
    assert comb(len(past.relators), 2) == 2556 > MAX_ROW_SUBSETS
    with pytest.raises(MinorBoundError, match="2556 row subsets of size 2"):
        first_ideal_minors(past)
    verdicts = []
    check = minors._one_minor_certifies

    def spy(p, weights, delta):
        verdicts.append(check(p, weights, delta))
        return verdicts[-1]

    monkeypatch.setattr(minors, "_one_minor_certifies", spy)
    results = [alexander_polynomial(p) for p in (within, past)]
    # both eliminations leave E1 = (1) unproved; only the first check runs
    assert verdicts == [True, False]
    assert [r.polynomial for r in results] == [LaurentPolynomial.constant(1)] * 2
    assert [r.certified_principal for r in results] == [True, False]


def _drop_last_fox_entry(monkeypatch):
    row_of = fox._fox_row

    def dropped(r, weights):
        return row_of(r, weights)[:-1] + [{}]

    monkeypatch.setattr(fox, "_fox_row", dropped)


def _zero_fox_rows(monkeypatch):
    monkeypatch.setattr(
        fox, "_fox_rows", lambda p, weights: [[{}] * len(weights) for _ in p.relators]
    )


def _delta_times_t_plus_one(monkeypatch):
    eliminate = fox._eliminate

    def eliminated(rows):
        delta, exact = eliminate(rows)
        return delta * L("t+1"), exact

    monkeypatch.setattr(fox, "_eliminate", eliminated)


def _inexact_division(monkeypatch):
    monkeypatch.setattr(minors, "_div_exact", lambda num, den: None)


def _zero_minors(monkeypatch):
    def zeros(rows, mul, sub, div, one):
        return [sub(one, one)] * (len(rows) + 1)

    monkeypatch.setattr(minors, "maximal_minors", zeros)


def _product_for_gcd(monkeypatch):
    monkeypatch.setattr(minors, "laurent_gcd", operator.mul)


# Each invariant that fox and minors check, broken by one mutation, with a
# presentation whose path reaches that check and the message it raises.
BROKEN_INVARIANTS = [
    (_drop_last_fox_entry, "<x, y | xyxYXY>", "abelianized row identity failed"),
    (_zero_fox_rows, "<x, y | xyxYXY>", "the Alexander matrix has rank below n - 1"),
    (_delta_times_t_plus_one, "<x, y | xyxYXY>", "Delta(1) = 2, yet H1 = Z"),
    (_inexact_division, "< x, y, z | yy, zz >", "inexact division in Bareiss"),
    (_zero_minors, "<x, y | yy>", "all Alexander minors vanish"),
    (_product_for_gcd, "<x, y | yy, xyXY>", "gcd fails to divide a minor"),
]
BROKEN_IDS = [mutate.__name__.lstrip("_") for mutate, _, _ in BROKEN_INVARIANTS]


@pytest.mark.parametrize("mutate,text,message", BROKEN_INVARIANTS, ids=BROKEN_IDS)
def test_broken_invariant_raises(monkeypatch, mutate, text, message):
    p = Presentation.parse(text)
    alexander_polynomial(p)  # sound before the mutation
    mutate(monkeypatch)
    with pytest.raises(AssertionError, match=re.escape(message)):
        alexander_polynomial(p)


@pytest.mark.parametrize("mutate,text,message", BROKEN_INVARIANTS, ids=BROKEN_IDS)
def test_broken_invariant_exits_3(monkeypatch, mutate, text, message):
    mutate(monkeypatch)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["alex", text])
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue().startswith(f"internal error: {message}")
