"""Alexander invariants from the abelianized Fox calculus.

H1 and the orientation weights (generator g -> t^{w_g}) come from one Smith
normal form of the exponent matrix, and the abelianized Fox derivatives of
each relator from one pass over it, as sparse rows.  When H1 = Z and some
weight is +-1, Delta comes from one elimination of those rows.  Any other
input, and a certificate that the elimination leaves open, takes the
row-subset path of `minors`, which is imported only then; `groupring` holds
the textbook calculus in ZF that the rows are tested against.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import NamedTuple

from .intmatrix import AbelianGroup, IntMatrix, primitive_vector, smith_normal_form
from .laurent import LaurentPolynomial, divide_exact, pseudo_quotient
from .words import Presentation, Word


class OrientationError(ValueError):
    """The abelianization is not infinite cyclic up to torsion."""


class FoxInternalError(AssertionError):
    """A Fox identity failed; indicates an implementation fault."""


# Most row subsets C(relators, generators - 1) of the Alexander matrix, one
# elimination each, that the first-ideal minors may take; checked before the
# matrix is built.
MAX_ROW_SUBSETS = 2000

# Most coefficient products that the eliminations may take, as
# `minors._minor_work` estimates them before the row-subset eliminations and
# `minors._check_fold` before the gcd of their minors, and as `_eliminate`
# counts them while it runs.  On a 2-core machine a dense 2 x 3 block at the
# limit (exponent span 2235) takes about 3 s, and Wirtinger T(2,17) with every
# letter squared (H1 = Z + (Z/2)^16, so no elimination), estimated at 6.8e6,
# takes 0.5 s.
MAX_MINOR_WORK = 10**7


class MinorBoundError(ValueError):
    """The first elementary ideal needs more than MAX_ROW_SUBSETS eliminations,
    or its minors or their gcd more than MAX_MINOR_WORK coefficient products."""


def _abelianization(p: Presentation) -> tuple[AbelianGroup, tuple[int, ...]]:
    """H1 and the orientation weights, both from one Smith normal form of
    the relator exponent matrix; requires free rank exactly 1."""
    exponents = IntMatrix(p.exponent_matrix(), cols=p.ngens)
    snf = smith_normal_form(exponents, with_left=False)
    h1 = snf.cokernel()
    if h1.rank != 1:
        raise OrientationError(
            f"abelianization has free rank {h1.rank}, expected 1 (H1 = {h1})"
        )
    (kernel,) = snf.kernel_basis()
    return h1, tuple(primitive_vector(kernel))


def solve_orientation_weights(p: Presentation) -> tuple[int, ...]:
    """Integer exponent weights g -> t^{w_g} for the infinite-cyclic quotient.

    Recovered as the primitive kernel vector of the relator exponent matrix;
    requires the abelianization to have free rank exactly 1.
    """
    return _abelianization(p)[1]


def _fox_row(r: Word, weights: tuple[int, ...]) -> list[dict[int, int]]:
    """Abelianized Fox derivatives of one relator in one pass over it, as
    sparse maps exponent -> nonzero coefficient: an occurrence of x_g after
    a prefix of weight e adds t^e, one of x_g^-1 subtracts t^(e - w_g)
    (Crowell-Fox, ch. VII)."""
    columns: list[dict[int, int]] = [{} for _ in weights]
    e = 0
    for letter in r.letters:
        g = abs(letter) - 1
        column = columns[g]
        if letter > 0:
            column[e] = column.get(e, 0) + 1
            e += weights[g]
        else:
            e -= weights[g]
            column[e] = column.get(e, 0) - 1
    return [{e: c for e, c in column.items() if c} for column in columns]


def _fox_rows(p: Presentation, weights: tuple[int, ...]) -> list[list[dict[int, int]]]:
    """`_fox_row` of each cyclically reduced relator, checked against the
    abelianized fundamental identity sum_j entry(i,j) * (t^{w_j} - 1) = 0."""
    rows = []
    for r in p.relators:
        r = r.cyclically_reduced()
        row = _fox_row(r, weights)
        identity: Counter[int] = Counter()
        for w, column in zip(weights, row):
            identity.update({e + w: c for e, c in column.items()})
            identity.subtract(column)
        if any(identity.values()):
            raise FoxInternalError(
                f"abelianized row identity failed for relator {p.word_str(r)}"
            )
        rows.append(row)
    return rows


class AlexanderResult(NamedTuple):
    polynomial: LaurentPolynomial
    certified_principal: bool
    weights: tuple[int, ...]
    h1: AbelianGroup


def _bound(work: int, need: str) -> None:
    if work > MAX_MINOR_WORK:
        raise MinorBoundError(
            f"{need} an estimated {work} coefficient products, "
            f"more than the limit of {MAX_MINOR_WORK}"
        )


def _width(entry: dict[int, int] | LaurentPolynomial) -> int:
    """Coefficients of an entry once built; `_fox_row` drops zeros, so a
    sparse entry spans max - min + 1 of them."""
    if isinstance(entry, dict):
        return max(entry) - min(entry) + 1 if entry else 0
    return len(entry.dense)


def _built(entry: dict[int, int] | LaurentPolynomial) -> LaurentPolynomial:
    return LaurentPolynomial(entry) if isinstance(entry, dict) else entry


def _eliminate(rows: list[list[dict[int, int]]]) -> tuple[LaurentPolynomial, bool]:
    """Delta from one echelon form over Q[t] of these sparse rows, and
    whether each row step was invertible over Z[t, t^-1].

    In each column the live row whose entry spans the fewest powers of t
    (the first on ties) is the pivot; each other live row becomes c * row -
    q * pivot (`pseudo_quotient`) over its content.  Over Q[t, t^-1] the
    ideal of maximal minors is kept and generated by the pivot product,
    whose primitive part is Delta.  With every c and content 1 it is kept
    over Z[t, t^-1], which proves E1 = (Delta).  Coefficients built and
    multiplied count against MAX_MINOR_WORK: every entry at the start, then
    each row step and pivot product from the `_width` of the entries it
    reads, before it builds them.  An entry stays sparse until a row step or
    the pivot product reads it, so a refused step has built nothing."""
    need = "the elimination of the Alexander matrix needs"
    work = sum(_width(x) for row in rows for x in row)
    _bound(work, need)
    todo: list[list] = list(rows)
    product, exact = {0: 1}, True  # the constant 1, sparse like the entries
    for _ in range(len(todo[0]) if todo else 0):
        live = [i for i, row in enumerate(todo) if row[0]]
        while len(live) > 1:
            p = min(live, key=lambda i: _width(todo[i][0]))
            for i in live:
                if i == p:
                    continue
                row, pivot = todo[i], todo[p]
                span = _width(row[0]) - _width(pivot[0]) + 1  # of q, at most
                work += sum(_width(x) + span * _width(y) for x, y in zip(row, pivot))
                _bound(work, need)
                todo[p] = pivot = list(map(_built, pivot))
                row = list(map(_built, row))
                c, q = pseudo_quotient(row[0], pivot[0])
                row = row if c == 1 else [x.scale(c) for x in row]
                row = [x - q * y if y else x for x, y in zip(row, pivot)]
                content = gcd(*(x.content() for x in row))
                if content > 1:
                    divisor = LaurentPolynomial.constant(content)
                    row = [divide_exact(divisor, x) for x in row]
                todo[i], exact = row, exact and c == 1 and content < 2
            live = [i for i in live if todo[i][0]]
        if not live:
            raise FoxInternalError("the Alexander matrix has rank below n - 1")
        pivot = todo.pop(live[0])[0]
        work += _width(product) * _width(pivot)
        _bound(work, need)
        product = _built(product) * _built(pivot)
        todo = [row[1:] for row in todo]
    product = _built(product)
    delta = divide_exact(LaurentPolynomial.constant(product.content()), product)
    return delta.normalize_unit(), exact


def alexander_polynomial(p: Presentation) -> AlexanderResult:
    """Delta, the unit-normalized gcd of the first-elementary-ideal minors,
    and whether E1 = (Delta) is certified: by `_eliminate`, or because some
    minor is a unit multiple of Delta, which puts Delta in E1.

    When H1 = Z and a weight w_k is +-1 (the first such k), the minors
    without column k generate E1 (fundamental formula, Crowell-Fox ch. VII),
    so `_eliminate` without that column gives Delta (or raises
    MinorBoundError once past MAX_MINOR_WORK); Delta(1) = +-1 is checked,
    and the minors are consulted only when needed, within their bounds.
    Any other input takes the gcd of all minors (`minors._gcd_of_minors`).
    """
    h1, weights = _abelianization(p)
    k = next((j for j, w in enumerate(weights) if w in (1, -1)), None)
    if k is None or h1.torsion:
        from .minors import _gcd_of_minors

        return _gcd_of_minors(p, weights, h1)
    rows = [row[:k] + row[k + 1 :] for row in _fox_rows(p, weights)]
    delta, certified = _eliminate(rows)
    if delta.evaluate(1) not in (1, -1):
        raise FoxInternalError(f"Delta(1) = {delta.evaluate(1)}, yet H1 = Z")
    if not certified:
        from .minors import _one_minor_certifies

        certified = _one_minor_certifies(p, weights, delta)
    return AlexanderResult(delta, certified, weights, h1)


def __getattr__(name: str):
    # PEP 562: the row-subset path moved to `minors`, loaded on first use
    if name in ("alexander_matrix", "first_ideal_minors"):
        from . import minors

        return getattr(minors, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
