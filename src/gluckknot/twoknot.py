"""Ribbon 2-knots, handle-count bookkeeping, the Gluck twist, and the
K2(p,q) family with its parity classification.

A ribbon 2-knot in normal form with m lower and n upper bands has a
complement handle decomposition with counts (1, m+1, m+n, n+1, 1); the
Gluck twist trades handles so that the closed result has Euler
characteristic 2.  At the group level the twist kills the meridian of a
dotted circle.  Each K2(p,q) quotient simplifies to < | >, which
`certify_trivial` certifies without a coset table, so its trivial verdict
rests on `kill_generator` and `simplify`.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .fox import AlexanderResult, alexander_polynomial
from .intmatrix import AbelianGroup, IntMatrix, cokernel
from .laurent import LaurentPolynomial, unit_equivalent
from .words import Presentation, PresentationError, Word, certify_trivial, parse_word


class InvalidRibbonError(ValueError):
    """Ribbon data fails a normal-form or homology requirement."""


class _HandleCountFields(NamedTuple):
    h0: int
    h1: int
    h2: int
    h3: int
    h4: int


class HandleCounts(_HandleCountFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "HandleCounts":
        self = super().__new__(cls, *args, **kwargs)
        if min(self) < 0:
            raise ValueError("handle counts must be non-negative")
        return self

    @classmethod
    def _make(cls, iterable) -> "HandleCounts":  # and so _replace: validated
        return cls(*iterable)

    @property
    def euler_characteristic(self) -> int:
        return self.h0 - self.h1 + self.h2 - self.h3 + self.h4

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return tuple(self)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self)) + ")"


class GluckVariant(enum.Enum):
    SINGLE = "single"
    DOUBLE = "double"


class ParityClass(enum.Enum):
    EVEN_EVEN = "even-even"
    ODD_ODD = "odd-odd"
    ODD_EVEN = "odd-even"
    EVEN_ODD = "even-odd"

    @classmethod
    def of(cls, p: int, q: int) -> "ParityClass":
        # mathematical parity: negative integers reduce mod 2 as usual
        return _PARITY[p % 2, q % 2]


# the relator of K2(p,q) by (p % 2, q % 2), in ParityClass's member order
_FAMILY_RELATORS = {
    (0, 0): "xyxy^-1x^-1yxyx^-1y^-1",
    (1, 1): "xyxyx^-1y^-1xy^-1x^-1y^-1",
    (1, 0): "xyxy^-1x^-1y^-1xyx^-1y^-1",
    (0, 1): "xyxyx^-1yxy^-1x^-1y^-1",
}
_PARITY = dict(zip(_FAMILY_RELATORS, ParityClass))


def complement_handle_counts(m: int, n: int) -> HandleCounts:
    """Handle counts of the 2-knot complement built from m lower-band and n
    upper-band ribbons: (1, m+1, m+n, n+1, 1), Euler characteristic 0."""
    if m < 1 or n < 1:
        raise InvalidRibbonError("normal form requires at least one band per hemisphere")
    return HandleCounts(1, m + 1, m + n, n + 1, 1)


def gluck_handle_counts(c: HandleCounts, variant: GluckVariant) -> HandleCounts:
    """Handle counts of the Gluck-twist result built on a complement count.

    Single blow-down: the meridional 2-handle cancels one 1-handle and the
    new 4-handle cancels one 3-handle, net (1, m, m+n, n, 1).  Double
    blow-down: two dotted circles cancel against the two new 2-handles and
    one new 3-handle cancels one 4-handle, net (1, m-1, m+n, n+1, 1).
    Both have Euler characteristic 2.
    """
    m = c.h1 - 1
    n = c.h3 - 1
    if c != (1, m + 1, m + n, n + 1, 1) or m < 1 or n < 1:
        raise InvalidRibbonError(f"{c} is not a ribbon complement handle count")
    if variant is GluckVariant.SINGLE:
        return HandleCounts(1, m, m + n, n, 1)
    return HandleCounts(1, m - 1, m + n, n + 1, 1)


class _RibbonFields(NamedTuple):
    label: str
    lower_bands: int
    upper_bands: int
    generators: tuple[str, ...]
    complement_relators: tuple[Word, ...]
    meridian_generators: tuple[str, ...]


class RibbonTwoKnot(_RibbonFields):
    """Ribbon-presentation bookkeeping for a 2-knot in normal form.

    Generators g_0..g_m are the meridians of the m+1 dotted circles; the
    relators come from the 2-handles of the two band families.  The family
    instances store a single merged relator (redundant relators already
    eliminated), so the relator count may fall short of m + n.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "RibbonTwoKnot":
        self = super().__new__(cls, *args, **kwargs)
        if self.lower_bands < 1 or self.upper_bands < 1:
            raise InvalidRibbonError("need at least one band per hemisphere")
        if len(self.generators) != self.lower_bands + 1:
            raise InvalidRibbonError(
                f"expected {self.lower_bands + 1} generators (one per dotted circle), "
                f"got {len(self.generators)}"
            )
        if not (
            1
            <= len(self.complement_relators)
            <= self.lower_bands + self.upper_bands
        ):
            raise InvalidRibbonError(
                "relator count must be between 1 and the total band count"
            )
        if not self.meridian_generators:
            raise InvalidRibbonError("at least one meridian generator required")
        for g in self.meridian_generators:
            if g not in self.generators:
                raise InvalidRibbonError(f"meridian {g!r} is not a generator")
        return self

    @classmethod
    def _make(cls, iterable) -> "RibbonTwoKnot":  # and so _replace: validated
        return cls(*iterable)

    def handle_counts(self) -> HandleCounts:
        return complement_handle_counts(self.lower_bands, self.upper_bands)


def complement_presentation(k: RibbonTwoKnot) -> Presentation:
    """Knot-group presentation of the complement; rejects data whose first
    homology is not infinite cyclic."""
    p = Presentation(k.generators, k.complement_relators)
    h1 = cokernel(IntMatrix(p.exponent_matrix(), cols=p.ngens))
    if not h1.is_infinite_cyclic():
        raise InvalidRibbonError(
            f"complement H1 is {h1}, not Z; invalid ribbon data"
        )
    return p


def gluck_quotient(k: RibbonTwoKnot, meridian: str) -> Presentation:
    """Fundamental group of the Gluck twist: kill a designated meridian."""
    if meridian not in k.meridian_generators:
        raise PresentationError(
            f"{meridian!r} is not a designated meridian of {k.label}"
        )
    return complement_presentation(k).kill_generator(meridian)


_FAMILY_GENERATORS = ("x", "y")


def family_relator(p: int, q: int) -> Word:
    """The knot-group relator of K2(p,q), chosen by the parity of (p, q) as the
    paper gives it: no per-(p,q) ribbon construction is here to check that."""
    return parse_word(_FAMILY_RELATORS[p % 2, q % 2], _FAMILY_GENERATORS)


def family_knot(p: int, q: int) -> RibbonTwoKnot:
    """The 2-knot K2(p,q): one band per hemisphere, merged single relator."""
    return RibbonTwoKnot(
        label=f"K2({p},{q})",
        lower_bands=1,
        upper_bands=1,
        generators=_FAMILY_GENERATORS,
        complement_relators=(family_relator(p, q),),
        meridian_generators=_FAMILY_GENERATORS,
    )


def family_presentation(p: int, q: int) -> Presentation:
    return complement_presentation(family_knot(p, q))


class SpunObstruction(enum.Enum):
    POSSIBLY_ONE_KNOT = "possibly-one-knot"
    NOT_ONE_KNOT = "not-one-knot"


def spun_obstruction(d: LaurentPolynomial) -> SpunObstruction:
    """Can d be the Alexander polynomial of a 1-knot?

    A 1-knot polynomial is symmetric under t -> t^-1 up to units and
    evaluates to +-1 at t = 1; failing either rules out a spun knot.
    """
    if d.is_zero():
        raise ValueError("zero polynomial has no obstruction status")
    if not unit_equivalent(d, d.reciprocal()):
        return SpunObstruction.NOT_ONE_KNOT
    if d.evaluate(1) not in (1, -1):
        return SpunObstruction.NOT_ONE_KNOT
    return SpunObstruction.POSSIBLY_ONE_KNOT


def delta_equivalent(a: LaurentPolynomial, b: LaurentPolynomial) -> bool:
    """Alexander polynomials compared up to units and t -> t^-1."""
    return unit_equivalent(a, b) or unit_equivalent(a, b.reciprocal())


class FamilyClassification(NamedTuple):
    p: int
    q: int
    parity: ParityClass
    alexander: AlexanderResult
    h1: AbelianGroup


def classify(p: int, q: int) -> FamilyClassification:
    result = alexander_polynomial(family_presentation(p, q))
    return FamilyClassification(
        p=p, q=q, parity=ParityClass.of(p, q), alexander=result, h1=result.h1
    )


T = TypeVar("T")


def per_parity(
    pairs: Iterable[tuple[int, int]], compute: Callable[[int, int], T]
) -> Iterator[tuple[int, int, T]]:
    """(p, q, compute(p, q)) for each pair, computed once per parity class:
    `family_relator` is chosen by the parity of (p, q), as the paper gives it,
    and no per-(p,q) ribbon construction is here to check that reduction."""
    # keyed on (p % 2, q % 2), not on ParityClass: Enum.__hash__ runs in Python
    by_parity: dict[tuple[int, int], T] = {}
    for p, q in pairs:
        parity = p % 2, q % 2
        if parity not in by_parity:
            by_parity[parity] = compute(p, q)
        yield p, q, by_parity[parity]


def distinct(pq: tuple[int, int], rs: tuple[int, int]) -> bool:
    """True when the family members are distinguished by their Alexander
    polynomials (exactly when the unordered parity pairs differ)."""
    a, b = (c.alexander.polynomial for _, _, c in per_parity((pq, rs), classify))
    return not delta_equivalent(a, b)


def delta_classes(
    pairs: Sequence[tuple[int, int]]
) -> list[tuple[LaurentPolynomial, list[tuple[int, int]]]]:
    """Partition (p,q) pairs by delta-equivalence of their polynomials."""
    classes: list[tuple[LaurentPolynomial, list[tuple[int, int]]]] = []
    for p, q, c in per_parity(pairs, classify):
        d = c.alexander.polynomial
        for rep, members in classes:
            if delta_equivalent(d, rep):
                members.append((p, q))
                break
        else:
            classes.append((d, [(p, q)]))
    return classes


def family_record(p: int, q: int, max_cosets: int = 10000) -> dict:
    """Serialized invariant record for one family member (the CLI schema)."""
    knot = family_knot(p, q)
    pres = complement_presentation(knot)
    alexander = alexander_polynomial(pres)
    # the Gluck quotient of `gluck_quotient(knot, "x")`, without validating
    # the complement presentation a second time
    cert = certify_trivial(pres.kill_generator("x"), max_cosets)
    complement = knot.handle_counts()
    return {
        "p": p,
        "q": q,
        "parity": ParityClass.of(p, q).value,
        "relator": pres.word_str(pres.relators[0]),
        "delta": str(alexander.polynomial),
        "delta_principal": alexander.certified_principal,
        "h1": str(alexander.h1),
        "gluck_pi1": cert.status,
        "handle_counts": {
            "complement": list(complement),
            "gluck_single": list(
                gluck_handle_counts(complement, GluckVariant.SINGLE)
            ),
            "gluck_double": list(
                gluck_handle_counts(complement, GluckVariant.DOUBLE)
            ),
        },
        "spun_obstruction": spun_obstruction(alexander.polynomial).value,
    }

