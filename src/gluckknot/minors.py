"""The row-subset path of the Alexander polynomial: the Alexander matrix,
its first-ideal minors (one fraction-free elimination per row subset), and
Delta as their gcd.  `fox.alexander_polynomial` imports it only when H1 has
torsion, no weight is +-1, or its one elimination leaves E1 = (Delta)
unproved; Wirtinger T(2,n) and the K2(p,q) family never load it."""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Callable, NamedTuple, Sequence

from .echelon import R, _echelon
from .fox import MAX_ROW_SUBSETS, AlexanderResult, FoxInternalError, MinorBoundError
from .fox import _bound, _fox_rows, solve_orientation_weights
from .intmatrix import AbelianGroup
from .laurent import LaurentPolynomial, _div_exact, _mul, _poly, _sub
from .laurent import divides, laurent_gcd, unit_equivalent
from .words import Presentation


def maximal_minors(
    rows: Sequence[Sequence[R]],
    mul: Callable[[R, R], R],
    sub: Callable[[R, R], R],
    div: Callable[[R, R], R],
    one: R,
) -> list[R]:
    """All maximal minors of an m x (m+1) matrix over an integral domain from
    one fraction-free elimination; entry j is the minor with column j
    deleted.  Ring operations as for `intmatrix.bareiss`.

    Below rank m every minor is 0.  At rank m one column f is not a pivot
    column, and the last pivot D is s * minor(-f), s the sign of the row
    swaps.  Fraction-free back substitution (Nakos, Turner and Williams
    1997) solves the echelon system for D times the coordinates of column f
    in the pivot columns: y_k = (D a[k][f] - sum_{j>k} a[k][p_j] y_j) /
    a[k][p_k], exact because by Cramer's rule y_k is the determinant with
    column p_k replaced by column f.  Moving f back into place past the
    |f - p_k| - 1 columns in between gives minor(-p_k) = +-s y_k."""
    m = len(rows)
    a, pivots, negated = _echelon(rows, mul, sub, div, one)
    zero = sub(one, one)
    if len(pivots) < m:
        return [zero] * (m + 1)
    (f,) = set(range(m + 1)).difference(pivots)
    d = a[-1][pivots[-1]] if m else one
    minors = [zero] * (m + 1)
    minors[f] = sub(zero, d) if negated else d
    y = [zero] * m
    for k in range(m - 1, -1, -1):
        row, p = a[k], pivots[k]
        if k == m - 1:  # D / a[k][p_k] = 1
            y[k] = row[f]
        else:
            acc = mul(d, row[f])
            for j in range(k + 1, m):
                acc = sub(acc, mul(row[pivots[j]], y[j]))
            y[k] = div(acc, row[p])
        flip = negated != (abs(f - p) % 2 == 0)
        minors[p] = sub(zero, y[k]) if flip else y[k]
    return minors


def _bareiss_div(num: list[int], den: list[int]) -> list[int]:
    q = _div_exact(num, den)
    if q is None:
        # Sylvester's identity makes every Bareiss division exact
        raise AssertionError("inexact division in Bareiss elimination")
    return q


def _shifted_dense(
    rows: Sequence[Sequence[LaurentPolynomial]],
) -> tuple[int, list[list[tuple[int, ...]]]]:
    """Each row times the power of t that makes its exponents non-negative,
    as dense coefficients over Z[t]; also the total power, by which every
    maximal minor is shifted."""
    shift = 0
    dense = []
    for row in rows:
        lo = min((entry.low for entry in row if entry), default=0)
        shift += lo
        dense.append([(0,) * (e.low - lo) + e.dense if e else () for e in row])
    return shift, dense


def laurent_maximal_minors(
    rows: Sequence[Sequence[LaurentPolynomial]],
) -> list[LaurentPolynomial]:
    """All maximal minors of an m x (m+1) matrix over Z[t, t^-1] from one
    elimination over Z[t] (`maximal_minors`) on the shifted rows
    (`_shifted_dense`); entry j is the minor with column j deleted."""
    shift, dense = _shifted_dense(rows)
    return [
        _poly(shift, minor)
        for minor in maximal_minors(dense, _mul, _sub, _bareiss_div, [1])
    ]


class AlexanderMatrix(NamedTuple):
    """Abelianized Fox derivatives: one row per relator, one column per
    generator."""

    entries: tuple[tuple[LaurentPolynomial, ...], ...]
    weights: tuple[int, ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.weights)


def alexander_matrix(
    p: Presentation, weights: tuple[int, ...] | None = None
) -> AlexanderMatrix:
    """Matrix of abelianized Fox derivatives of the cyclically reduced
    relators; entry (i, j) is `groupring.abelianize(fox_derivative(r_i, j),
    weights)`.

    Each row is checked by `fox._fox_rows`, and `_minor_work` (on two
    generators, whose minors are the entries, also `_check_fold`) against
    MAX_MINOR_WORK on the sparse rows, before any dense entry is built.
    """
    if weights is None:
        weights = solve_orientation_weights(p)
    rows = _fox_rows(p, weights)
    extents = [[(min(col), max(col)) for col in row if col] for row in rows]
    _bound(_minor_work(extents, len(weights)), "the Alexander minors need")
    if len(weights) == 2:
        _check_fold([hi - lo + 1 for row in extents for lo, hi in row])
    entries = tuple(tuple(map(LaurentPolynomial, row)) for row in rows)
    return AlexanderMatrix(entries=entries, weights=weights)


def first_ideal_minors(p: Presentation) -> list[LaurentPolynomial]:
    """All (n-1) x (n-1) minors of the Alexander matrix, n = generator count,
    rows before columns in lexicographic order.  With no relators the one
    0 x 0 minor is 1.  Raises MinorBoundError past MAX_ROW_SUBSETS or
    MAX_MINOR_WORK (see `alexander_matrix`)."""
    _check_row_subsets(p)
    return _minors(alexander_matrix(p))


def _check_row_subsets(p: Presentation) -> None:
    k = max(p.ngens - 1, 0)
    subsets = comb(len(p.relators), k)
    if subsets > MAX_ROW_SUBSETS:
        raise MinorBoundError(
            f"the Alexander matrix has {subsets} row subsets of size {k}, "
            f"more than the limit of {MAX_ROW_SUBSETS}"
        )


def _minor_work(extents: list[list[tuple[int, int]]], cols: int) -> int:
    """Estimated coefficient products of the first-ideal minors, from the
    (lowest, highest) exponent of each nonzero entry, one list per row.
    Each row subset is an m x (m+1) block, m = cols - 1; step k of its
    fraction-free elimination updates (m-k)(m+1-k) entries with products of
    polynomials of about k*S + 1 coefficients, S being the widest exponent
    span of a row.  Back substitution costs about as much again."""
    m = max(cols - 1, 0)
    span = max(
        (max(hi for _, hi in row) - min(lo for lo, _ in row) for row in extents if row),
        default=0,
    )
    block = sum((m - k) * (m + 1 - k) * (k * span + 1) ** 2 for k in range(1, m))
    return comb(len(extents), m) * block


def _check_fold(lengths: list[int]) -> None:
    """Bound the estimated coefficient products of the gcd fold over nonzero
    minors of these dense lengths, in order, and of dividing each by the gcd.
    A gcd of lengths a and b takes about a*b (the pseudo-remainder sequence)
    and is no longer than either; dividing length n by length h takes
    (n - h + 1) * h, largest at h = min(shortest length, (n + 1) // 2)."""
    work, least = 0, lengths[0] if lengths else 0
    for n in lengths[1:]:
        work += least * n
        least = min(least, n)
    for n in lengths:
        h = min(least, (n + 1) // 2)
        work += (n - h + 1) * h
    _bound(work, "the gcd of the Alexander minors needs")


def _minors(matrix: AlexanderMatrix) -> list[LaurentPolynomial]:
    """One elimination per row subset gives the minors of all its column
    subsets; lexicographic column subsets delete the last column first."""
    k = matrix.cols - 1
    return [
        minor
        for rows in combinations(matrix.entries, k)
        for minor in reversed(laurent_maximal_minors(rows))
    ]


def _one_minor_certifies(
    p: Presentation, weights: tuple[int, ...], delta: LaurentPolynomial
) -> bool:
    """Whether some first-ideal minor is a unit multiple of delta, row
    subsets in order; False past the bounds of `first_ideal_minors`."""
    try:
        _check_row_subsets(p)
        matrix = alexander_matrix(p, weights)
    except MinorBoundError:
        return False
    return any(
        unit_equivalent(m, delta)
        for rows in combinations(matrix.entries, matrix.cols - 1)
        for m in laurent_maximal_minors(rows)
    )


def _gcd_of_minors(
    p: Presentation, weights: tuple[int, ...], h1: AbelianGroup
) -> AlexanderResult:
    """Delta, the unit-normalized gcd of all first-ideal minors (some nonzero,
    as the exponent matrix has rank n-1), certified when a nonzero minor is a
    unit multiple of it.  Raises MinorBoundError past the bounds of
    `first_ideal_minors`, and past MAX_MINOR_WORK for the gcd, before it."""
    _check_row_subsets(p)
    minors = _minors(alexander_matrix(p, weights))
    nonzero = [m for m in minors if not m.is_zero()]
    if not nonzero:
        raise FoxInternalError("all Alexander minors vanish, yet H1 has free rank 1")
    _check_fold([len(m.dense) for m in nonzero])
    g = nonzero[0]
    for m in nonzero[1:]:
        g = laurent_gcd(g, m)
    if not all(divides(g, m) for m in minors):
        raise FoxInternalError("gcd fails to divide a minor")
    certified = any(unit_equivalent(m, g) for m in nonzero)
    return AlexanderResult(g.normalize_unit(), certified, weights, h1)
