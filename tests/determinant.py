"""The one determinant reader of the tests: the last pivot of one
fraction-free elimination (`echelon._echelon`), the way `maximal_minors`
reads its minors, so a test of it also checks `_echelon`'s row-swap sign."""

import operator

from gluckknot.echelon import _echelon


def determinant(rows, mul=operator.mul, sub=operator.sub, div=operator.floordiv, one=1):
    """Determinant of a square matrix given as rows over an integral domain,
    with the ring operations of `_echelon`; integers by default."""
    zero = sub(one, one)
    a, pivots, negated = _echelon(rows, mul, sub, div, one)
    if len(pivots) < len(a):
        return zero
    det = a[-1][-1] if a else one
    return sub(zero, det) if negated else det
