"""Freely reduced words in a free group, finite group presentations, and
certificates that a presentation gives the trivial group.

Letters are encoded as signed nonzero integers: +(i+1) is generator number i,
-(i+1) is its inverse.  The empty word is the identity.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

MAX_GENERATORS = 64
# Letters of one parsed word after exponents are expanded; keeps a short
# exponent like x^99999999999 from allocating its run.
MAX_WORD_LETTERS = 10_000


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PresentationError(ValueError):
    pass


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs until none remain (stack pass)."""
    out: list[int] = []
    for a in letters:
        if a == 0:
            raise ValueError("letter 0 is not a valid generator encoding")
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


class Word:
    """A freely reduced word; immutable and hashable."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        object.__setattr__(self, "letters", free_reduce(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):  # copy and pickle: the slots cannot be set afterwards
        return Word, (self.letters,)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __invert__(self) -> "Word":
        return Word(tuple(-a for a in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        return Word(self.letters * n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(("Word", self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"Word({list(self.letters)!r})"

    def is_identity(self) -> bool:
        return not self.letters

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max((abs(a) - 1 for a in self.letters), default=-1)

    def cyclically_reduced(self) -> "Word":
        letters = list(self.letters)
        while len(letters) >= 2 and letters[0] == -letters[-1]:
            letters = letters[1:-1]
        return Word(letters)

    def exponent_sums(self, ngens: int) -> tuple[int, ...]:
        """Signed occurrence count per generator (image in Z^ngens)."""
        sums = [0] * ngens
        for a in self.letters:
            sums[abs(a) - 1] += 1 if a > 0 else -1
        return tuple(sums)


def parse_word(text: str, generators: Sequence[str]) -> Word:
    """Parse word text against a generator name list.

    Lowercase letters name generators, uppercase their inverses, and a
    letter may carry a signed integer exponent after a caret (``x^-3``).
    A word may expand to at most MAX_WORD_LETTERS letters.
    """
    index = {name: i for i, name in enumerate(generators)}
    letters: list[int] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if not ch.isalpha():
            raise WordSyntaxError(f"unexpected character {ch!r}", pos)
        name = ch.lower()
        if name not in index:
            raise WordSyntaxError(f"unknown generator {name!r}", pos)
        letter = index[name] + 1
        if ch.isupper():
            letter = -letter
        letter_pos = pos
        pos += 1
        exponent = 1
        if pos < n and text[pos] == "^":
            pos += 1
            start = pos
            if pos < n and text[pos] == "-":
                pos += 1
            while pos < n and "0" <= text[pos] <= "9":
                pos += 1
            if text[start:pos] in ("", "-"):
                raise WordSyntaxError("missing exponent after '^'", start)
            try:
                exponent = int(text[start:pos])
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                exponent = MAX_WORD_LETTERS + 1
        if len(letters) + abs(exponent) > MAX_WORD_LETTERS:
            raise WordSyntaxError(
                f"word longer than {MAX_WORD_LETTERS} letters", letter_pos
            )
        letters.extend([letter if exponent >= 0 else -letter] * abs(exponent))
    return Word(letters)


def word_to_str(w: Word, generators: Sequence[str]) -> str:
    """Print a word in case-flip form; empty word prints as '1'."""
    if w.is_identity():
        return "1"
    parts = []
    for a in w.letters:
        name = generators[abs(a) - 1]
        if a > 0:
            parts.append(name)
        elif len(name) == 1 and name.isalpha():
            parts.append(name.upper())
        else:
            parts.append(f"{name}^-1")
    return "".join(parts)


class Presentation:
    """A finitely generated presentation: generator names plus relator words."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: Sequence[str], relators: Iterable[Word] = ()):
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise PresentationError("generator names must be unique")
        if len(generators) > MAX_GENERATORS:
            raise PresentationError(
                f"at most {MAX_GENERATORS} generators supported, got {len(generators)}"
            )
        relators = tuple(relators)
        for r in relators:
            if r.max_generator() >= len(generators):
                raise PresentationError(
                    f"relator {r!r} uses a generator outside the presentation"
                )
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)

    def __setattr__(self, name, value):
        raise AttributeError("Presentation is immutable")

    def __reduce__(self):  # copy and pickle: the slots cannot be set afterwards
        return Presentation, (self.generators, self.relators)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Presentation)
            and self.generators == other.generators
            and self.relators == other.relators
        )

    def __hash__(self) -> int:
        return hash((self.generators, self.relators))

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def word(self, text: str) -> Word:
        return parse_word(text, self.generators)

    def word_str(self, w: Word) -> str:
        return word_to_str(w, self.generators)

    def generator_index(self, name: str) -> int:
        try:
            return self.generators.index(name)
        except ValueError:
            raise PresentationError(f"unknown generator {name!r}") from None

    def exponent_matrix(self) -> list[list[int]]:
        """Relator-by-generator matrix of exponent sums (abelianized relators)."""
        return [list(r.exponent_sums(self.ngens)) for r in self.relators]

    def kill_generator(self, name: str) -> "Presentation":
        """Quotient by a generator: delete its letters everywhere and drop it.

        Empty relators are dropped after reduction.
        """
        k = self.generator_index(name)
        new_gens = self.generators[:k] + self.generators[k + 1 :]
        killed = k + 1  # its letter; those of later generators move down one
        new_relators = []
        for r in self.relators:
            kept = [a for a in r.letters if abs(a) != killed]
            w = Word(a - 1 if a > killed else a + 1 if a < -killed else a for a in kept)
            if not w.is_identity():
                new_relators.append(w)
        return Presentation(new_gens, new_relators)

    def simplify(self) -> "Presentation":
        """Drop empty relators and kill generators with single-letter relators,
        repeating to a fixpoint.  Preserves the isomorphism class."""
        p = Presentation(
            self.generators, (r for r in self.relators if not r.is_identity())
        )
        while True:
            unit = next((r for r in p.relators if len(r) == 1), None)
            if unit is None:
                return p
            p = p.kill_generator(p.generators[abs(unit.letters[0]) - 1])

    def __str__(self) -> str:
        gens = ", ".join(self.generators)
        rels = ", ".join(self.word_str(r) for r in self.relators)
        return f"< {gens} | {rels} >".replace("  ", " ")

    def __repr__(self) -> str:
        return f"Presentation({self.generators!r}, {list(self.relators)!r})"

    @classmethod
    def parse(cls, text: str) -> "Presentation":
        """Parse `< x, y | xyxY, ... >`; whitespace is insignificant."""
        s = text.strip()
        if not (s.startswith("<") and s.endswith(">")):
            raise PresentationError(f"presentation must be bracketed in < >: {text!r}")
        body = s[1:-1]
        if "|" not in body:
            raise PresentationError("presentation needs a '|' separating generators from relators")
        gen_part, rel_part = body.split("|", 1)
        generators = [g.strip() for g in gen_part.split(",") if g.strip()]
        for g in generators:
            if not (len(g) == 1 and g.isalpha() and g.islower()):
                raise PresentationError(
                    f"generator names must be single lowercase letters, got {g!r}"
                )
        relators = [
            parse_word(r.strip(), generators) for r in rel_part.split(",") if r.strip()
        ]
        return cls(generators, relators)


class TableBudgetError(ValueError):
    """max_cosets could fill more than `coset.MAX_TABLE_ENTRIES` table entries."""


class TrivialityCertificate(NamedTuple):
    trivial: bool
    order: Optional[int]  # finite order found, when any

    @property
    def status(self) -> str:
        return "trivial" if self.trivial else "inconclusive"


def certify_trivial(p: Presentation, max_cosets: int = 10000) -> TrivialityCertificate:
    """Certify |G| = 1 by simplification plus coset enumeration.

    A trivial verdict is a proof; an inconclusive one is not a refutation
    (though a finite order > 1, when found, is attached as evidence).
    Where `simplify` reaches no generators, as for every K2(p,q) quotient,
    the group is trivial and no table is built.  Any other quotient is
    enumerated by `coset.coset_index`, which loads only then and may raise
    TableBudgetError.  Raises ValueError when max_cosets < 1.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    simplified = p.simplify()
    if not simplified.generators:
        return TrivialityCertificate(trivial=True, order=1)
    from .coset import coset_index

    order = coset_index(simplified, (), max_cosets)  # None if not finite
    return TrivialityCertificate(trivial=order == 1, order=order)
