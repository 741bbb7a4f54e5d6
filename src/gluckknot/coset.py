"""Bounded Todd-Coxeter coset enumeration (HLT strategy).

Certifies finite subgroup index -- in particular group order 1 for the
quotient presentations arising from Gluck blow-downs.  An Exceeded outcome
is inconclusive, never a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .words import Presentation, Word

# Most entries (cosets times 2 * generators) that max_cosets may let a coset
# table reach; checked before allocating.  At about 21 bytes an entry (84
# per coset with two generators) the limit is some 350 MB.
MAX_TABLE_ENTRIES = 1 << 24


class TableBudgetError(ValueError):
    """max_cosets could fill more than MAX_TABLE_ENTRIES table entries."""


class _TableOverflow(Exception):
    pass


class CosetTable:
    """Mutable enumeration state in one flat list of ints: row c occupies
    table[c * ncols : (c + 1) * ncols], one column per signed generator, and
    -1 marks an undefined entry.  Dead cosets forward to their replacement
    union-find style."""

    def __init__(self, ngens: int, max_cosets: int):
        self.ngens = ngens
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self._blank_row = (-1,) * self.ncols
        self.table: list[int] = list(self._blank_row)
        self.parent: list[int] = [0]

    @staticmethod
    def col(letter: int) -> int:
        g = abs(letter) - 1
        return 2 * g if letter > 0 else 2 * g + 1

    @classmethod
    def compile(cls, word: Word) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Forward and inverse column sequences of a word.  Scans take them
        precompiled, so an enumeration compiles each relator once."""
        cols = tuple(cls.col(a) for a in word.letters)
        return cols, tuple(c ^ 1 for c in cols)

    def rep(self, c: int) -> int:
        parent = self.parent
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(self, c: int, col: int) -> int:
        d = len(self.parent)
        if d >= self.max_cosets:
            raise _TableOverflow
        n = self.ncols
        self.parent.append(d)
        self.table.extend(self._blank_row)
        self.table[c * n + col] = d
        self.table[d * n + (col ^ 1)] = c
        return d

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self.rep(a), self.rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            self.parent[b] = a
            queue.append(b)

    def coincidence(self, a: int, b: int) -> None:
        table, n, rep = self.table, self.ncols, self.rep
        queue: list[int] = []
        self._merge(a, b, queue)
        for dead in queue:  # _merge appends while this loop runs
            base = dead * n
            for col in range(n):
                d = table[base + col]
                if d < 0:
                    continue
                inv = col ^ 1
                table[d * n + inv] = -1
                mu, nu = rep(dead), rep(d)
                e = table[mu * n + col]
                if e >= 0:
                    self._merge(nu, e, queue)
                    continue
                e = table[nu * n + inv]
                if e >= 0:
                    self._merge(mu, e, queue)
                else:
                    table[mu * n + col] = nu
                    table[nu * n + inv] = mu

    def scan_and_fill(
        self, start: int, cols: Sequence[int], back: Sequence[int]
    ) -> None:
        """Scan a compiled, freely reduced word from `start`, defining cosets
        at the first gap until it closes or deduces.

        Defining fills one gap and changes no other entry, so both scans
        resume where they stopped instead of restarting from `start`.
        """
        table, parent, n = self.table, self.parent, self.ncols
        length = len(cols)
        if parent[start] != start:
            start = self.rep(start)
        f, i = start, 0
        b, j = start, length - 1
        while True:
            while i < length:
                d = table[f * n + cols[i]]
                if d < 0:
                    break
                f = d if parent[d] == d else self.rep(d)
                i += 1
            if i == length:
                if f != start:
                    self.coincidence(f, start)
                return
            while j >= i:
                d = table[b * n + back[j]]
                if d < 0:
                    break
                b = d if parent[d] == d else self.rep(d)
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                table[f * n + cols[i]] = b
                table[b * n + back[i]] = f
                return
            f = self.define(f, cols[i])
            i += 1

    def live_cosets(self) -> list[int]:
        parent = self.parent
        return [c for c in range(len(parent)) if parent[c] == c]

    def is_complete(self) -> bool:
        table, n = self.table, self.ncols
        return all(-1 not in table[c * n : c * n + n] for c in self.live_cosets())

    def compact(self) -> list[list[int]]:
        """Renumber live cosets 0..n-1 and resolve entries through reps.
        Requires a complete table."""
        if not self.is_complete():
            raise ValueError("table is not complete")
        n = self.ncols
        live = self.live_cosets()
        index = {c: k for k, c in enumerate(live)}
        return [
            [index[self.rep(e)] for e in self.table[c * n : c * n + n]]
            for c in live
        ]


@dataclass(frozen=True)
class EnumerationOutcome:
    """Result of a bounded enumeration.  `order` is the subgroup index (the
    group order for the trivial subgroup) and is set only when finite."""

    finite: bool
    order: Optional[int]
    max_cosets: int
    table: Optional[tuple[tuple[int, ...], ...]] = None


def _replay(
    table: list[list[int]], relators: Sequence[Word], subgroup: Sequence[Word]
) -> None:
    def trace(c: int, cols: tuple[int, ...]) -> int:
        for col in cols:
            c = table[c][col]
        return c

    relator_cols = [CosetTable.compile(r)[0] for r in relators]
    for c in range(len(table)):
        for cols in relator_cols:
            if trace(c, cols) != c:
                raise AssertionError("relator does not close on the final table")
    for w in subgroup:
        if trace(0, CosetTable.compile(w)[0]) != 0:
            raise AssertionError("subgroup word moves the base coset")


def enumerate_cosets(
    p: Presentation,
    subgroup_words: Sequence[Word] = (),
    max_cosets: int = 10000,
) -> EnumerationOutcome:
    """HLT enumeration of cosets of <subgroup_words> in the presented group.

    Scans relators in presentation order from each live coset, defining new
    cosets at the first undefined slot and merging coincidences eagerly.
    Every finite outcome is replayed against the relators before returning.
    Raises TableBudgetError, a ValueError, when max_cosets could fill more
    than MAX_TABLE_ENTRIES.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    if max_cosets * 2 * p.ngens > MAX_TABLE_ENTRIES:
        raise TableBudgetError(
            f"max_cosets {max_cosets} times {2 * p.ngens} table columns exceeds "
            f"the budget of {MAX_TABLE_ENTRIES} table entries"
        )
    for w in subgroup_words:
        if w.max_generator() >= p.ngens:
            raise ValueError(f"subgroup word {w!r} uses an unknown generator")
    ct = CosetTable(p.ngens, max_cosets)
    table, parent, n = ct.table, ct.parent, ct.ncols
    relators = [ct.compile(r) for r in p.relators]
    try:
        for w in subgroup_words:
            ct.scan_and_fill(0, *ct.compile(w))
        while True:
            alpha = 0
            while alpha < len(parent):
                if parent[alpha] != alpha:
                    alpha += 1
                    continue
                for cols, back in relators:
                    ct.scan_and_fill(alpha, cols, back)
                    if parent[alpha] != alpha:
                        break
                else:
                    base = alpha * n
                    for col in range(n):
                        if table[base + col] < 0:
                            ct.define(alpha, col)
                alpha += 1
            # a late coincidence can clear an entry of an earlier live row
            if ct.is_complete():
                break
    except _TableOverflow:
        return EnumerationOutcome(finite=False, order=None, max_cosets=max_cosets)
    final = ct.compact()
    _replay(final, p.relators, subgroup_words)
    return EnumerationOutcome(
        finite=True,
        order=len(final),
        max_cosets=max_cosets,
        table=tuple(tuple(row) for row in final),
    )


@dataclass(frozen=True)
class TrivialityCertificate:
    trivial: bool
    order: Optional[int]  # finite order found, when any

    @property
    def status(self) -> str:
        return "trivial" if self.trivial else "inconclusive"


def certify_trivial(p: Presentation, max_cosets: int = 10000) -> TrivialityCertificate:
    """Certify |G| = 1 by simplification plus coset enumeration.

    A trivial verdict is a proof; an inconclusive one is not a refutation
    (though a finite order > 1, when found, is attached as evidence).
    """
    simplified = p.simplify()
    outcome = enumerate_cosets(simplified, (), max_cosets)
    if outcome.finite and outcome.order == 1:
        return TrivialityCertificate(trivial=True, order=1)
    return TrivialityCertificate(trivial=False, order=outcome.order)
