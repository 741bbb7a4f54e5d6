"""Exact integer matrices: Smith normal form, cokernels and kernel vectors.

All arithmetic is arbitrary-precision; no floating point anywhere.  Coset
enumeration needs only the rank (`echelon.rank`), so `enum` and `gluck`
never load this module.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


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

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.data]

    def __repr__(self) -> str:
        return f"IntMatrix({self.data!r})"


class SmithForm(NamedTuple):
    """Diagonalization D = L A R with unimodular L, R and d_i | d_{i+1}."""

    diagonal: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix

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
    """Smith normal form with transforms, by one elimination on the work
    matrix W = [[A, I_rows], [I_cols, 0]] (Newman, *Integral Matrices*,
    ch. II; Cohen, GTM 138, 2.4.4).  Row operations on A's rows carry L
    along in the I_rows block, column operations on A's columns carry R in
    the I_cols block; D, L and R are read off the blocks at the end, and the
    zero block, never touched, is not stored.  Without `with_left` W has no
    I_rows block, L comes back rows x 0 and memory stays O(rows x cols).
    Pivot: smallest nonzero absolute value in the working submatrix, rows
    scanned before columns, lowest index wins ties.  Deterministic.
    """
    rows, cols = a.rows, a.cols
    eye = IntMatrix.identity(rows).data if with_left else [[]] * rows
    w = [row + e for row, e in zip(a.data, eye)] + IntMatrix.identity(cols).data
    size = min(rows, cols)
    t = 0
    while t < size:
        best = 0
        for i in range(t, rows):
            row = w[i]
            for j in range(t, cols):
                v = abs(row[j])
                if v and (not best or v < best):
                    best, pi, pj = v, i, j
        if not best:
            break
        w[t], w[pi] = w[pi], w[t]
        if pj != t:
            for row in w:
                row[t], row[pj] = row[pj], row[t]
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
        top, pivot = w[t], w[t][t]
        dirty = False
        for i in range(t + 1, rows):
            if w[i][t]:
                q = w[i][t] // pivot
                w[i] = [x - q * y for x, y in zip(w[i], top)]
                dirty = dirty or w[i][t] != 0
        for j in range(t + 1, cols):
            if top[j]:
                q = top[j] // pivot
                for row in w:
                    row[j] -= q * row[t]
                dirty = dirty or top[j] != 0
        if dirty:
            continue
        # the pivot must divide the rest of the submatrix: add the first row
        # with an entry it does not divide to the pivot row and search again
        for i in range(t + 1, rows):
            row = w[i]
            for j in range(t + 1, cols):
                if row[j] % pivot:
                    break
            else:
                continue
            w[t] = [x + y for x, y in zip(top, row)]
            break
        else:
            t += 1
    return SmithForm(
        diagonal=tuple(w[i][i] for i in range(size)),
        left=IntMatrix([row[cols:] for row in w[:rows]]),
        right=IntMatrix(w[rows:]),
    )


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
