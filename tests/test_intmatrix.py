import math
import operator
import random
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from determinant import determinant
from smith import matmul, smith_sides
from gluckknot.echelon import rank
from gluckknot.fox import solve_orientation_weights
from gluckknot.intmatrix import AbelianGroup, IntMatrix, cokernel, smith_normal_form
from gluckknot.minors import maximal_minors
from gluckknot.words import Presentation


def check_smith(a: IntMatrix):
    snf = smith_normal_form(a)
    # divisibility chain (d | 0 holds, 0 | d>0 does not)
    for d1, d2 in zip(snf.diagonal, snf.diagonal[1:]):
        assert d1 >= 0 and d2 >= 0
        if d1 == 0:
            assert d2 == 0
        else:
            assert d2 % d1 == 0
    reconstructed, diagonal = smith_sides(snf, a)
    assert reconstructed == diagonal
    assert determinant(snf.left.data) in (1, -1)
    assert determinant(snf.right.data) in (1, -1)
    return snf


class TestSmith:
    def test_row_vector(self):
        snf = check_smith(IntMatrix([[1, 1]]))
        assert snf.diagonal == (1,)

    def test_two_by_two(self):
        snf = check_smith(IntMatrix([[2, 4], [6, 8]]))
        assert snf.diagonal == (2, 4)

    def test_zero_matrix(self):
        snf = check_smith(IntMatrix([[0, 0, 0], [0, 0, 0]]))
        assert snf.diagonal == (0, 0)

    def test_empty_matrix(self):
        snf = check_smith(IntMatrix([], cols=2))
        assert snf.diagonal == ()

    def test_square_nonsingular_product_is_det(self):
        a = IntMatrix([[2, 1, 0], [1, -3, 2], [0, 4, 5]])
        snf = check_smith(a)
        product = 1
        for d in snf.diagonal:
            product *= d
        assert product == abs(determinant(a.data))

    def test_random_matrices(self):
        rng = random.Random(3)
        for _ in range(200):
            rows = rng.randint(0, 5)
            cols = rng.randint(0, 5)
            a = IntMatrix(
                [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            check_smith(a)

    def test_deterministic(self):
        a = IntMatrix([[2, 4], [6, 8]])
        s1 = smith_normal_form(a)
        s2 = smith_normal_form(a)
        assert s1.diagonal == s2.diagonal
        assert s1.left == s2.left and s1.right == s2.right


def wirtinger_exponents(n):
    """The exponent matrix of the Wirtinger presentation of T(2,n): relator i
    is x_{i+1} x_i x_{i+1}^-1 x_{i+2}^-1, indices mod n."""
    return [[(j == i) - (j == (i + 2) % n) for j in range(n)] for i in range(n)]


# (diagonal, left.data, right.data) with the left transform kept; without it
# the diagonal and right transform are the same and left.data is rows x []
SMITH_CORPUS = [
    pytest.param([], 3, ((), [], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), id="0x3"),
    pytest.param(
        [[], [], []], 0, ((), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], []), id="3x0"
    ),
    # the exponent matrix of every K2(p,q) record
    pytest.param([[1, -1]], 2, ((1,), [[1]], [[1, 1], [0, 1]]), id="family"),
    pytest.param(
        wirtinger_exponents(5),
        5,
        (
            (1, 1, 1, 1, 0),
            [
                [1, 0, 0, 0, 0],
                [0, 1, 0, 0, 0],
                [0, 0, 1, 0, 0],
                [1, 0, 1, 1, 0],
                [1, 1, 1, 1, 1],
            ],
            [
                [1, 0, 1, 0, 1],
                [0, 1, 0, 1, 1],
                [0, 0, 1, 0, 1],
                [0, 0, 0, 1, 1],
                [0, 0, 0, 0, 1],
            ],
        ),
        id="wirtinger-T(2,5)",
    ),
    pytest.param(
        [[6, -4], [9, 8]],
        2,
        ((1, 84), [[12, 1], [-25, -2]], [[1, 40], [2, 81]]),
        id="negated-pivot",  # the first pivot, -4
    ),
    pytest.param(
        [[2, 0], [0, 3]],
        2,
        ((1, 6), [[1, 1], [3, 2]], [[-1, 3], [1, -2]]),
        id="fix-up",  # 2 does not divide 3: row 1 is added to row 0
    ),
    # entries drawn by random.Random(22).randint(-9, 9), row by row
    pytest.param(
        [
            [-5, -2, -9, 5],
            [-4, -6, 2, -7],
            [-2, -1, -8, 1],
            [-4, 8, 4, -8],
            [9, -9, 9, -1],
        ],
        4,
        (
            (1, 1, 1, 4),
            [
                [0, 0, -1, 0, 0],
                [-1, 0, 2, 0, 0],
                [49, 12, -153, 1, -1],
                [289, -111, 33, 253, 231],
                [-1300, 500, -152, -1139, -1040],
            ],
            [
                [0, 1, 3, -2399],
                [1, -2, -5, 3988],
                [0, 0, 0, 1],
                [0, 0, 1, -802],
            ],
        ),
        id="random-5x4",
    ),
]


@pytest.mark.parametrize("with_left", [True, False])
@pytest.mark.parametrize("data,cols,expected", SMITH_CORPUS)
def test_smith_form_is_pinned(data, cols, expected, with_left):
    # the exact output, not only a valid one: a change in the pivot rule or
    # in the order of the operations shows here
    a = IntMatrix(data, cols=cols)
    snf = smith_normal_form(a, with_left=with_left)
    diagonal, left, right = expected
    if not with_left:
        left = [[] for _ in data]
    assert (snf.diagonal, snf.left.data, snf.right.data) == (diagonal, left, right)
    # the work matrix shares no row with the input
    assert a.data == data


def test_smith_form_without_left_transform_stays_lean():
    # a rows x rows left transform of 3000 x 3000 ints would take some 70 MB
    # of list slots alone; the lean form keeps O(rows x cols)
    rng = random.Random(7)
    a = IntMatrix([[rng.randint(-9, 9) for _ in range(2)] for _ in range(3000)])
    tracemalloc.start()
    try:
        snf = smith_normal_form(a, with_left=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (snf.left.rows, snf.left.cols) == (3000, 0)
    assert peak < 7_000_000


class TestShapeChecks:
    def test_ragged_rows_rejected(self):
        for data in ([[1, 2], [3]], [[1], [2, 3]], [[], [0]]):
            with pytest.raises(ValueError, match="ragged rows"):
                IntMatrix(data)

    def test_column_count_must_match(self):
        assert IntMatrix([[1, 2]], cols=2).cols == 2
        for data, cols in (([[1, 2]], 3), ([[1, 2], [3, 4]], 1), ([[]], 1)):
            with pytest.raises(ValueError, match="cols does not match row width"):
                IntMatrix(data, cols=cols)


class TestCokernel:
    def test_infinite_cyclic(self):
        ab = cokernel(IntMatrix([[1, 1]]))
        assert ab == AbelianGroup(rank=1, torsion=())
        assert ab.is_infinite_cyclic()
        assert str(ab) == "Z"

    def test_z2(self):
        ab = cokernel(IntMatrix([[2]]))
        assert ab == AbelianGroup(rank=0, torsion=(2,))
        assert str(ab) == "Z/2"

    def test_free_rank_two(self):
        ab = cokernel(IntMatrix([], cols=2))
        assert ab == AbelianGroup(rank=2, torsion=())
        assert str(ab) == "Z^2"

    def test_trivial_group(self):
        assert str(cokernel(IntMatrix([[1]]))) == "0"


# (presentation, orientation weights): the relators of the four parity
# classes of K2(p,q), Wirtinger T(2,5), a torus knot group, and presentations
# with H1 of rank 1 drawn by random.Random(23), torsion included
ORIENTATION_CORPUS = [
    pytest.param("<x, y | xyxYXyxyXY>", (1, -1), id="family-EE"),
    pytest.param("<x, y | xyxyXYxYXY>", (1, 1), id="family-OO"),
    pytest.param("<x, y | xyxYXYxyXY>", (1, 1), id="family-OE"),
    pytest.param("<x, y | xyxyXyxYXY>", (1, -1), id="family-EO"),
    pytest.param(
        "<a, b, c, d, e | baBC, cbCD, dcDE, edEA, aeAB>",
        (1, 1, 1, 1, 1),
        id="wirtinger-T(2,5)",
    ),
    pytest.param("<x, y | x^2 y^-3>", (3, 2), id="x2=y3"),
    pytest.param("<x, y, z | Y, XXY>", (0, 0, 1), id="random-0"),
    pytest.param("<x, y, z | yzXxyY, xxxZ>", (1, -3, 3), id="random-1"),
    pytest.param("<x, y, z | Y, ZXzxyx, zZyYy>", (0, 0, 1), id="random-2"),
    pytest.param("<x, y, z | zYzYz, z>", (1, 0, 0), id="random-3"),
    pytest.param("<x, y, z | XYyzyxY, xZXyzYy, YxXyXx>", (1, 0, 0), id="random-4"),
    pytest.param("<x, y, z, w | xZW, xy, WwW>", (1, -1, 1, 0), id="random-5"),
    pytest.param("<x, y, z | x, YZyZY>", (0, 2, -1), id="random-6"),
    pytest.param("<x, y, z, w | yZz, W, YZzZywX>", (1, 0, -1, 0), id="random-7"),
    pytest.param("<x, y, z, w | Zwz, yYywWW, XxYZxz>", (0, 0, 1, 0), id="random-8"),
    pytest.param("<x, y, z | XYXzZz, zzzz>", (1, -2, 0), id="random-9"),
    pytest.param("<x, y | xyX>", (1, 0), id="random-10"),
    pytest.param("<x, y | yyYXyYX>", (1, 2), id="random-11"),
]


class TestKernel:
    def test_row_sum_kernel(self):
        basis = smith_normal_form(IntMatrix([[1, 1]])).kernel_basis()
        assert len(basis) == 1
        assert basis[0] in ([1, -1], [-1, 1])

    def test_difference_kernel(self):
        basis = smith_normal_form(IntMatrix([[1, -1]])).kernel_basis()
        assert basis[0] in ([1, 1], [-1, -1])

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(5)
        for _ in range(100):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = IntMatrix(
                [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            for v in smith_normal_form(a).kernel_basis():
                image = matmul(a, IntMatrix([[x] for x in v], cols=1))
                assert all(row == [0] for row in image.data)

    @pytest.mark.parametrize("text,weights", ORIENTATION_CORPUS)
    def test_orientation_weights_are_pinned(self, text, weights):
        # the kernel column of the Smith form's unimodular right transform,
        # taken as it is up to sign: already primitive
        p = Presentation.parse(text)
        got = solve_orientation_weights(p)
        assert got == weights
        assert math.gcd(*got) == 1 and next(w for w in got if w) > 0
        assert all(sum(map(operator.mul, row, got)) == 0 for row in p.exponent_matrix())


def test_determinant_basics():
    assert determinant([]) == 1
    assert determinant([[3]]) == 3
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[1, 2], [2, 4]]) == 0


def leibniz_determinant(rows):
    """Oracle: the permutation expansion, with the sign from inversions."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


square_st = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(square_st)
def test_bareiss_determinant_matches_leibniz(rows):
    assert determinant(rows) == leibniz_determinant(rows)


def test_determinant_needs_row_swaps():
    # zero pivots force swaps; a zero column below the pivot ends early
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert determinant([[0, 1, 2], [0, 3, 4], [5, 6, 7]]) == -10
    assert determinant([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 0


wide_st = st.integers(min_value=0, max_value=4).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=m + 1, max_size=m + 1),
        min_size=m,
        max_size=m,
    )
)


def int_maximal_minors(rows):
    return maximal_minors(rows, operator.mul, operator.sub, operator.floordiv, 1)


@given(wide_st)
def test_maximal_minors_match_leibniz(rows):
    expected = [
        leibniz_determinant([row[:j] + row[j + 1 :] for row in rows])
        for j in range(len(rows) + 1)
    ]
    assert int_maximal_minors(rows) == expected


def test_maximal_minors_rank_and_swaps():
    minors = int_maximal_minors
    assert minors([]) == [1]
    assert minors([[0, 0]]) == [0, 0]
    assert minors([[1, 2, 3], [2, 4, 6]]) == [0, 0, 0]
    # the non-pivot column comes first; a zero pivot forces a swap
    assert minors([[0, 1, 2], [0, 3, 4]]) == [-2, 0, 0]
    assert minors([[0, 1, 0], [1, 0, 0]]) == [0, 0, -1]


# rows with small entries, some of them zero rows, for any shape up to 6 x 5
# (no rows, or rows with no columns, included)
matrix_st = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=5)
).flatmap(
    lambda shape: st.lists(
        st.one_of(
            st.just([0] * shape[1]),
            st.lists(
                st.integers(min_value=-4, max_value=4),
                min_size=shape[1],
                max_size=shape[1],
            ),
        ),
        min_size=shape[0],
        max_size=shape[0],
    ).map(lambda rows: (rows, shape[1]))
)


@given(matrix_st)
def test_rank_matches_smith_form(case):
    rows, cols = case
    # oracle: the Smith form's nonzero diagonal entries
    expected = sum(1 for d in smith_normal_form(IntMatrix(rows, cols=cols)).diagonal if d)
    assert rank(rows) == expected


def test_rank_edge_shapes():
    assert rank([]) == 0
    assert rank([[], []]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[0, 0], [0, 3]]) == 1
    assert rank([[1, 1], [1, -1]]) == 2  # full rank over Q, index 2 over Z
    assert rank([(1, -1), [2, -2]]) == 1  # tuples and lists alike


@given(matrix_st)
def test_smith_form_without_left_transform(case):
    # the same diagonal and right transform, and no rows x rows matrix
    rows, cols = case
    a = IntMatrix(rows, cols=cols)
    full, lean = smith_normal_form(a), smith_normal_form(a, with_left=False)
    assert (lean.diagonal, lean.right) == (full.diagonal, full.right)
    assert (lean.left.rows, lean.left.cols) == (len(rows), 0)
