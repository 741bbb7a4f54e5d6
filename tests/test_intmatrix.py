import operator
import random
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gluckknot.echelon import rank
from gluckknot.intmatrix import (
    AbelianGroup,
    IntMatrix,
    cokernel,
    determinant,
    kernel_basis,
    primitive_vector,
    smith_normal_form,
)
from gluckknot.minors import maximal_minors


def check_smith(a: IntMatrix):
    snf = smith_normal_form(a)
    # divisibility chain (d | 0 holds, 0 | d>0 does not)
    for d1, d2 in zip(snf.diagonal, snf.diagonal[1:]):
        assert d1 >= 0 and d2 >= 0
        if d1 == 0:
            assert d2 == 0
        else:
            assert d2 % d1 == 0
    reconstructed = snf.left @ a @ snf.right
    assert reconstructed == snf.diagonal_matrix(a.rows, a.cols)
    assert determinant(snf.left) in (1, -1)
    assert determinant(snf.right) in (1, -1)
    return snf


class TestSmith:
    def test_row_vector(self):
        snf = check_smith(IntMatrix([[1, 1]]))
        assert snf.diagonal == (1,)

    def test_two_by_two(self):
        snf = check_smith(IntMatrix([[2, 4], [6, 8]]))
        assert snf.diagonal == (2, 4)

    def test_zero_matrix(self):
        snf = check_smith(IntMatrix.zero(2, 3))
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
        assert product == abs(determinant(a))

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


class TestKernel:
    def test_row_sum_kernel(self):
        basis = kernel_basis(IntMatrix([[1, 1]]))
        assert len(basis) == 1
        assert primitive_vector(basis[0]) == [1, -1]

    def test_difference_kernel(self):
        basis = kernel_basis(IntMatrix([[1, -1]]))
        assert primitive_vector(basis[0]) == [1, 1]

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(5)
        for _ in range(100):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = IntMatrix(
                [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            for v in kernel_basis(a):
                image = a @ IntMatrix([[x] for x in v], cols=1)
                assert all(row == [0] for row in image.data)

    def test_primitive_vector(self):
        assert primitive_vector([-2, 2, -4]) == [1, -1, 2]
        with pytest.raises(ValueError):
            primitive_vector([0, 0])


def test_determinant_basics():
    assert determinant(IntMatrix([], cols=0)) == 1
    assert determinant(IntMatrix([[3]])) == 3
    assert determinant(IntMatrix([[1, 2], [3, 4]])) == -2
    assert determinant(IntMatrix([[1, 2], [2, 4]])) == 0
    with pytest.raises(ValueError):
        determinant(IntMatrix([[1, 2]]))


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
    assert determinant(IntMatrix(rows, cols=len(rows))) == leibniz_determinant(rows)


def test_determinant_needs_row_swaps():
    # zero pivots force swaps; a zero column below the pivot ends early
    assert determinant(IntMatrix([[0, 1], [1, 0]])) == -1
    assert determinant(IntMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == -1
    assert determinant(IntMatrix([[0, 1, 2], [0, 3, 4], [5, 6, 7]])) == -10
    assert determinant(IntMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])) == 0


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
