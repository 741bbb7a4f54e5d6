"""Fox free differential calculus and Alexander invariants.

Derivatives live in the integer group ring ZF of the free group; abelianizing
through integer orientation weights (generator g -> t^{w_g}) turns them into
Laurent polynomials, and minors of the resulting matrix give the Alexander
polynomial when the first elementary ideal is principal.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb, gcd
from typing import Iterable, Mapping, NamedTuple

from .intmatrix import AbelianGroup, IntMatrix, primitive_vector, smith_normal_form
from .laurent import (
    LaurentPolynomial,
    divide_exact,
    divides,
    laurent_gcd,
    laurent_maximal_minors,
    pseudo_quotient,
    unit_equivalent,
)
from .words import Presentation, Word


class OrientationError(ValueError):
    """The abelianization is not infinite cyclic up to torsion."""


class FoxInternalError(AssertionError):
    """A Fox identity failed; indicates an implementation fault."""


# Most row subsets C(relators, generators - 1) of the Alexander matrix, one
# elimination each, that the first-ideal minors may take; checked before the
# matrix is built.
MAX_ROW_SUBSETS = 2000

# Most coefficient products that the eliminations may take, as `_minor_work`
# estimates them before the row-subset eliminations and `_check_fold` before
# the gcd of their minors, and as `_eliminate` counts them while it runs.  On
# a 2-core machine a dense 2 x 3 block at the limit (exponent span 2235) takes
# about 3 s, and Wirtinger T(2,17) with every letter squared (H1 = Z +
# (Z/2)^16, so no elimination), estimated at 6.8e6, takes 0.5 s.
MAX_MINOR_WORK = 10**7


class MinorBoundError(ValueError):
    """The first elementary ideal needs more than MAX_ROW_SUBSETS eliminations,
    or its minors or their gcd more than MAX_MINOR_WORK coefficient products."""


class GroupRingElement:
    """Finite integer combination of freely reduced words (element of ZF)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, int] | Iterable[tuple[Word, int]] = ()):
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        clean: dict[Word, int] = {}
        for w, c in items:
            if c:
                clean[w] = clean.get(w, 0) + c
                if not clean[w]:
                    del clean[w]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    def __reduce__(self):  # copy and pickle: the slots cannot be set afterwards
        return GroupRingElement, (self.terms,)

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls()

    @classmethod
    def from_word(cls, w: Word, coefficient: int = 1) -> "GroupRingElement":
        return cls({w: coefficient})

    @classmethod
    def one(cls) -> "GroupRingElement":
        return cls({Word(): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement(out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        out: dict[Word, int] = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = u * v
                out[w] = out.get(w, 0) + a * b
        return GroupRingElement(out)

    def __repr__(self) -> str:
        return f"GroupRingElement({self.terms!r})"


def fox_derivative(w: Word, gen: int) -> GroupRingElement:
    """Free derivative d(w)/d(x_gen) in ZF.

    Rules: d(g)/d(g) = 1, d(g^-1)/d(g) = -g^-1, d(uv)/d(g) = du + u dv.
    """
    terms: dict[Word, int] = {}
    prefix: list[int] = []
    for letter in w.letters:
        if letter == gen + 1:
            key = Word(prefix)
            terms[key] = terms.get(key, 0) + 1
        elif letter == -(gen + 1):
            key = Word(prefix + [letter])
            terms[key] = terms.get(key, 0) - 1
        prefix.append(letter)
    return GroupRingElement(terms)


def fundamental_identity_check(w: Word, ngens: int) -> bool:
    """Verify sum_g d(w)/d(g) * (g - 1) = w - 1 exactly in ZF."""
    total = GroupRingElement.zero()
    for g in range(ngens):
        gen_minus_one = GroupRingElement({Word([g + 1]): 1, Word(): -1})
        total = total + fox_derivative(w, g) * gen_minus_one
    expected = GroupRingElement([(w, 1), (Word(), -1)])
    return total == expected


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


def abelianize(
    e: GroupRingElement, weights: tuple[int, ...]
) -> LaurentPolynomial:
    """Map each word u to t^{sum_g w_g * exp_g(u)} and extend linearly."""
    ngens = len(weights)
    coeffs: dict[int, int] = {}
    for w, c in e.terms.items():
        sums = w.exponent_sums(ngens)
        exp = sum(wg * s for wg, s in zip(weights, sums))
        coeffs[exp] = coeffs.get(exp, 0) + c
    return LaurentPolynomial(coeffs)


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


def alexander_matrix(
    p: Presentation, weights: tuple[int, ...] | None = None
) -> AlexanderMatrix:
    """Matrix of abelianized Fox derivatives of the cyclically reduced
    relators; entry (i, j) is `abelianize(fox_derivative(r_i, j), weights)`.

    Each row is checked by `_fox_rows`, and `_minor_work` (on two
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


class AlexanderResult(NamedTuple):
    polynomial: LaurentPolynomial
    certified_principal: bool
    weights: tuple[int, ...]
    h1: AbelianGroup


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


def _bound(work: int, need: str) -> None:
    if work > MAX_MINOR_WORK:
        raise MinorBoundError(
            f"{need} an estimated {work} coefficient products, "
            f"more than the limit of {MAX_MINOR_WORK}"
        )


def _minors(matrix: AlexanderMatrix) -> list[LaurentPolynomial]:
    """One elimination per row subset gives the minors of all its column
    subsets; lexicographic column subsets delete the last column first."""
    k = matrix.cols - 1
    return [
        minor
        for rows in combinations(matrix.entries, k)
        for minor in reversed(laurent_maximal_minors(rows))
    ]


def _eliminate(rows: list[list[dict[int, int]]]) -> tuple[LaurentPolynomial, bool]:
    """Delta from one echelon form over Q[t] of these sparse rows, and
    whether each row step was invertible over Z[t, t^-1].

    In each column the live row whose entry spans the fewest powers of t
    (the first on ties) is the pivot; each other live row becomes c * row -
    q * pivot (`pseudo_quotient`) over its content.  Over Q[t, t^-1] the
    ideal of maximal minors is kept and generated by the pivot product,
    whose primitive part is Delta.  With every c and content 1 it is kept
    over Z[t, t^-1], which proves E1 = (Delta).  Coefficients built and
    multiplied count against MAX_MINOR_WORK as they run; the first pass over
    column 0 is charged in advance from the sparse extents (`_fox_row` drops
    zeros, so they give the dense lengths), before any dense entry is built."""
    need = "the elimination of the Alexander matrix needs"
    lengths = [[max(col) - min(col) + 1 if col else 0 for col in row] for row in rows]
    work = sum(map(sum, lengths))
    _bound(work, need)
    live = [row for row in lengths if row and row[0]]
    first, pivot = work, min(live, key=lambda row: row[0], default=None)
    for row in live:
        if row is not pivot:
            first += sum(x + (row[0] - pivot[0] + 1) * y for x, y in zip(row, pivot))
            _bound(first, need)
    todo = [list(map(LaurentPolynomial, row)) for row in rows]
    product, exact = LaurentPolynomial.constant(1), True
    for _ in range(len(todo[0]) if todo else 0):
        live = [i for i, row in enumerate(todo) if row[0]]
        while len(live) > 1:
            pivot = todo[min(live, key=lambda i: len(todo[i][0].dense))]
            for i in live:
                row = todo[i]
                if row is pivot:
                    continue
                span = len(row[0].dense) - len(pivot[0].dense) + 1  # of q, at most
                work += sum(
                    len(x.dense) + span * len(y.dense) for x, y in zip(row, pivot)
                )
                _bound(work, need)
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
        work += len(product.dense) * len(pivot.dense)
        _bound(work, need)
        product = product * pivot
        todo = [row[1:] for row in todo]
    delta = divide_exact(LaurentPolynomial.constant(product.content()), product)
    return delta.normalize_unit(), exact


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


def alexander_polynomial(p: Presentation) -> AlexanderResult:
    """Delta, the unit-normalized gcd of the first-elementary-ideal minors,
    and whether E1 = (Delta) is certified: by `_eliminate`, or because some
    minor is a unit multiple of Delta, which puts Delta in E1.

    When H1 = Z and a weight w_k is +-1 (the first such k), the minors
    without column k generate E1 (fundamental formula, Crowell-Fox ch. VII),
    so `_eliminate` without that column gives Delta (or raises
    MinorBoundError once past MAX_MINOR_WORK); Delta(1) = +-1 is checked,
    and the minors are consulted only when needed and only within the
    bounds of `first_ideal_minors`.  Any other input takes the gcd of all
    minors, some nonzero as the exponent matrix has rank n-1, and raises
    MinorBoundError past MAX_ROW_SUBSETS or MAX_MINOR_WORK, before any
    elimination, and past MAX_MINOR_WORK for the gcd, before the gcd.
    """
    h1, weights = _abelianization(p)
    k = next((j for j, w in enumerate(weights) if w in (1, -1)), None)
    if k is not None and not h1.torsion:
        rows = [row[:k] + row[k + 1 :] for row in _fox_rows(p, weights)]
        delta, certified = _eliminate(rows)
        if delta.evaluate(1) not in (1, -1):
            raise FoxInternalError(f"Delta(1) = {delta.evaluate(1)}, yet H1 = Z")
        certified = certified or _one_minor_certifies(p, weights, delta)
        return AlexanderResult(delta, certified, weights, h1)
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
