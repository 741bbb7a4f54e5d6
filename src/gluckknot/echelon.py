"""Fraction-free row echelon form over an integral domain, and the rank
over Q of an integer matrix: all the linear algebra coset enumeration runs."""

from __future__ import annotations

import operator
from typing import Callable, Sequence, TypeVar

R = TypeVar("R")


def _echelon(
    rows: Sequence[Sequence[R]],
    mul: Callable[[R, R], R],
    sub: Callable[[R, R], R],
    div: Callable[[R, R], R],
    one: R,
) -> tuple[list[list[R]], list[int], bool]:
    """Fraction-free row echelon form over an integral domain (Bareiss 1968,
    Sylvester's identity): after k pivots, entry (i, j) below them is the
    minor on the pivot rows and row i by the pivot columns and column j, so
    each division by the previous pivot is exact.  A column without a
    nonzero entry at or below the current row is skipped.  A falsy entry is
    zero; `div` divides exactly and `one` is the ring's unit.  Returns the
    echelon rows, the pivot columns, and whether the row swaps negated."""
    a = [list(row) for row in rows]
    pivots: list[int] = []
    negated = False
    prev = one
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            negated = not negated
        pivot, pivot_row = a[r][c], a[r]
        for row in a[r + 1 :]:
            lead = row[c]
            for j in range(c + 1, len(row)):
                row[j] = div(sub(mul(row[j], pivot), mul(lead, pivot_row[j])), prev)
        prev = pivot
        pivots.append(c)
    return a, pivots, negated


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix given as equal-length rows, the
    number of pivots of one fraction-free elimination (`_echelon`).  It
    costs O(rows * cols * rank) operations on integers no wider than the
    minors, and builds no rows x rows transform."""
    return len(_echelon(rows, operator.mul, operator.sub, operator.floordiv, 1)[1])
