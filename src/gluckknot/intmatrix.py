"""Exact integer matrices: Smith normal form, cokernels, kernel vectors, and
determinants by fraction-free elimination (`echelon`).

All arithmetic is arbitrary-precision; no floating point anywhere.  Coset
enumeration needs only the rank (`echelon.rank`), so `enum` and `gluck`
never load this module.
"""

from __future__ import annotations

import operator
from math import gcd as int_gcd
from typing import Callable, NamedTuple, Sequence

from .echelon import R, _echelon


class IntMatrix:
    """A rectangular integer matrix (row-major list of lists)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]], cols: int | None = None):
        data = [list(row) for row in data]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
        else:
            width = 0 if cols is None else cols
        self.rows = len(data)
        self.cols = width
        self.data = data

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return IntMatrix(
            [
                [
                    sum(self.data[i][k] * other.data[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ],
            cols=other.cols,
        )

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.data]

    def copy(self) -> "IntMatrix":
        return IntMatrix([row[:] for row in self.data], cols=self.cols)

    def __repr__(self) -> str:
        return f"IntMatrix({self.data!r})"


def bareiss(
    rows: Sequence[Sequence[R]],
    mul: Callable[[R, R], R],
    sub: Callable[[R, R], R],
    div: Callable[[R, R], R],
    one: R,
) -> tuple[R, bool]:
    """Determinant of a square matrix over an integral domain by fraction-free
    elimination (`_echelon`).  Returns the determinant up to sign, and
    whether the row swaps negated it."""
    a, pivots, negated = _echelon(rows, mul, sub, div, one)
    if len(pivots) < len(a):
        return sub(one, one), False
    return (a[-1][-1] if a else one), negated


def determinant(m: IntMatrix) -> int:
    """Exact integer determinant by Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    det, negated = bareiss(m.data, operator.mul, operator.sub, operator.floordiv, 1)
    return -det if negated else det


class SmithForm(NamedTuple):
    """Diagonalization D = L A R with unimodular L, R and d_i | d_{i+1}."""

    diagonal: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix

    def diagonal_matrix(self, rows: int, cols: int) -> IntMatrix:
        d = IntMatrix.zero(rows, cols)
        for i, v in enumerate(self.diagonal):
            d.data[i][i] = v
        return d

    def cokernel(self) -> "AbelianGroup":
        """Cokernel of the diagonalized matrix: one Z per zero or missing
        diagonal entry, one Z/d per entry d > 1."""
        nonzero = [d for d in self.diagonal if d]
        return AbelianGroup(
            rank=self.right.rows - len(nonzero),
            torsion=tuple(d for d in nonzero if d > 1),
        )

    def kernel_basis(self) -> list[list[int]]:
        """The columns of the right transform that the matrix sends to 0;
        there are as many as the cokernel's free rank."""
        return [
            self.right.column(j)
            for j in range(self.right.cols)
            if j >= len(self.diagonal) or self.diagonal[j] == 0
        ]


def smith_normal_form(a: IntMatrix, with_left: bool = True) -> SmithForm:
    """Smith normal form with transforms.

    Pivot rule: smallest nonzero absolute value in the working submatrix,
    rows scanned before columns, lowest index wins ties.  Deterministic.
    With `with_left` false the left transform, rows x rows, is not kept: it
    comes back rows x 0, and memory stays O(rows x cols).
    """
    m = a.copy()
    left = IntMatrix.identity(a.rows) if with_left else IntMatrix.zero(a.rows, 0)
    right = IntMatrix.identity(a.cols)
    size = min(a.rows, a.cols)

    def swap_rows(i, j):
        if i != j:
            m.data[i], m.data[j] = m.data[j], m.data[i]
            left.data[i], left.data[j] = left.data[j], left.data[i]

    def swap_cols(i, j):
        if i != j:
            for row in m.data:
                row[i], row[j] = row[j], row[i]
            for row in right.data:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        # row[dst] += factor * row[src]
        for j in range(m.cols):
            m.data[dst][j] += factor * m.data[src][j]
        for j in range(left.cols):
            left.data[dst][j] += factor * left.data[src][j]

    def add_col(src, dst, factor):
        for row in m.data:
            row[dst] += factor * row[src]
        for row in right.data:
            row[dst] += factor * row[src]

    def negate_row(i):
        m.data[i] = [-x for x in m.data[i]]
        left.data[i] = [-x for x in left.data[i]]

    def find_pivot(t):
        best = None
        for i in range(t, m.rows):
            for j in range(t, m.cols):
                v = abs(m.data[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    t = 0
    while t < size:
        found = find_pivot(t)
        if found is None:
            break
        _, pi, pj = found
        swap_rows(t, pi)
        swap_cols(t, pj)
        if m.data[t][t] < 0:
            negate_row(t)
        pivot = m.data[t][t]
        dirty = False
        for i in range(t + 1, m.rows):
            if m.data[i][t]:
                q = m.data[i][t] // pivot
                add_row(t, i, -q)
                if m.data[i][t]:
                    dirty = True
        for j in range(t + 1, m.cols):
            if m.data[t][j]:
                q = m.data[t][j] // pivot
                add_col(t, j, -q)
                if m.data[t][j]:
                    dirty = True
        if dirty:
            continue
        # ensure pivot divides the rest of the submatrix
        offender = None
        for i in range(t + 1, m.rows):
            for j in range(t + 1, m.cols):
                if m.data[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    diagonal = tuple(m.data[i][i] for i in range(size))
    return SmithForm(diagonal=diagonal, left=left, right=right)


class AbelianGroup(NamedTuple):
    """Finitely generated abelian group: free rank plus torsion coefficients."""

    rank: int
    torsion: tuple[int, ...]

    def is_infinite_cyclic(self) -> bool:
        return self.rank == 1 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel(a: IntMatrix) -> AbelianGroup:
    """Cokernel of a relator-by-generator exponent matrix."""
    return smith_normal_form(a, with_left=False).cokernel()


def kernel_basis(a: IntMatrix) -> list[list[int]]:
    """Integer kernel basis vectors (columns of the right transform with
    zero image)."""
    return smith_normal_form(a, with_left=False).kernel_basis()


def primitive_vector(v: Sequence[int]) -> list[int]:
    """Divide by the gcd of entries and make the first nonzero entry positive."""
    g = 0
    for x in v:
        g = int_gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    out = [x // g for x in v]
    first = next(x for x in out if x)
    if first < 0:
        out = [-x for x in out]
    return out
