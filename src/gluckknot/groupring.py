"""Fox free differential calculus in the integer group ring ZF, and its
abelianization through orientation weights (generator g -> t^{w_g}): the
textbook oracle for the one-pass rows of `fox`, which runs none of it."""

from __future__ import annotations

from typing import Iterable, Mapping

from .laurent import LaurentPolynomial
from .words import Word


class GroupRingElement:
    """Finite integer combination of freely reduced words (element of ZF)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, int] | Iterable[tuple[Word, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
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
