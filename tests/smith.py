"""Both sides of D = L A R for a Smith form of the tests, as IntMatrices:
the product L·A·R and the diagonal matrix of the form, each of A's shape.
The library reads only the diagonal and the transforms, so the products
live here."""

from gluckknot.intmatrix import IntMatrix


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    assert a.cols == b.rows, "dimension mismatch"
    columns = [b.column(j) for j in range(b.cols)]
    return IntMatrix(
        [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a.data],
        cols=b.cols,
    )


def smith_sides(snf, a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(L·A·R, D) for `snf`, the Smith form of `a`; equal when it is right."""
    d = [[0] * a.cols for _ in range(a.rows)]
    for i, v in enumerate(snf.diagonal):
        d[i][i] = v
    return matmul(matmul(snf.left, a), snf.right), IntMatrix(d, cols=a.cols)
