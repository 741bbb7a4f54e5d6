"""Bounded Todd-Coxeter coset enumeration (HLT strategy).

Certifies finite subgroup index -- in particular group order 1 for the
quotient presentations arising from Gluck blow-downs.  An Exceeded outcome
is inconclusive, never a refutation.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

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
    union-find style.  Once `coincidence` returns, live rows reference only
    live cosets, so scans read entries without resolving them."""

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

    def coincidence(self, a: int, b: int) -> None:
        """Merge the live cosets a and b and every coincidence that follows,
        the larger coset of each pair dying into the smaller (Holt, Eick and
        O'Brien, Handbook of Computational Group Theory, 5.1).  Afterwards
        live rows reference only live cosets."""
        table, parent, n, rep = self.table, self.parent, self.ncols, self.rep
        if a == b:
            return
        a, b = min(a, b), max(a, b)
        parent[b] = a
        queue = [b]
        for dead in queue:  # merges append while this loop runs
            base = dead * n
            for col in range(n):
                d = table[base + col]
                if d < 0:
                    continue
                inv = col ^ 1
                table[d * n + inv] = -1
                # rep(dead) and rep(d), calling rep only past one step
                mu = parent[dead]
                if parent[mu] != mu:
                    mu = rep(mu)
                nu = d if parent[d] == d else rep(d)
                e = table[mu * n + col]
                if e >= 0:
                    x = nu
                else:
                    e = table[nu * n + inv]
                    if e < 0:
                        table[mu * n + col] = nu
                        table[nu * n + inv] = mu
                        continue
                    x = mu
                # merge x, a live coset, with e
                if parent[e] != e:
                    e = rep(e)
                if x != e:
                    x, e = min(x, e), max(x, e)
                    parent[e] = x
                    queue.append(e)

    def scan_and_fill(
        self, start: int, words: Sequence[tuple[tuple[int, ...], tuple[int, ...]]]
    ) -> None:
        """Scan compiled, freely reduced words from the live coset `start`,
        in order, defining cosets at the first gap of each until it closes or
        deduces; stops early when a coincidence kills `start`.

        Defining fills one gap and changes no other entry: the backward scan
        resumes where it stopped, and the forward one stops at the next
        letter, since the new coset's only entry is the inverse of the letter
        that defined it.
        """
        table, parent, n = self.table, self.parent, self.ncols
        limit, blank = self.max_cosets, self._blank_row
        for cols, back in words:
            length = len(cols)
            f, i = start, 0
            while i < length:
                d = table[f * n + cols[i]]
                if d < 0:
                    break
                f = d
                i += 1
            else:  # the word closes from start
                if f != start:
                    self.coincidence(f, start)
                    if parent[start] != start:
                        return
                continue
            b, j = start, length - 1
            while True:
                while j >= i:
                    d = table[b * n + back[j]]
                    if d < 0:
                        break
                    b = d
                    j -= 1
                if j < i:
                    self.coincidence(f, b)
                    break
                if j == i:
                    table[f * n + cols[i]] = b
                    table[b * n + back[i]] = f
                    break
                d = len(parent)
                if d >= limit:
                    raise _TableOverflow
                parent.append(d)
                table.extend(blank)
                table[f * n + cols[i]] = d
                table[d * n + back[i]] = f
                f = d
                i += 1
            if parent[start] != start:
                return

    def live_cosets(self) -> list[int]:
        parent = self.parent
        return [c for c in range(len(parent)) if parent[c] == c]

    def is_complete(self) -> bool:
        table, n = self.table, self.ncols
        return all(-1 not in table[c * n : c * n + n] for c in self.live_cosets())

    def compact(self) -> list[tuple[int, ...]]:
        """Renumber live cosets 0..n-1 in one pass over their rows.  Requires
        a complete table: an undefined entry, or one naming a dead coset,
        raises ValueError."""
        table, n = self.table, self.ncols
        live = self.live_cosets()
        # index[-1], an undefined entry, stays -1 like every dead coset
        index = [-1] * (len(self.parent) + 1)
        for k, c in enumerate(live):
            index[c] = k
        rows = [tuple(map(index.__getitem__, table[c * n : c * n + n])) for c in live]
        if any(-1 in row for row in rows):
            raise ValueError("table is not complete")
        return rows


class EnumerationOutcome(NamedTuple):
    """Result of a bounded enumeration.  `order` is the subgroup index (the
    group order for the trivial subgroup) and is set only when finite."""

    finite: bool
    order: Optional[int]
    max_cosets: int
    table: Optional[tuple[tuple[int, ...], ...]] = None


def _gather(values: Sequence[int], indices: Sequence[int]) -> tuple[int, ...]:
    """The tuple of values[i] for i in indices, built in C."""
    if len(indices) == 1:  # itemgetter of one index returns the bare item
        return (values[indices[0]],)
    return itemgetter(*indices)(values)


def _replay(
    table: Sequence[Sequence[int]],
    relators: Sequence[Word],
    subgroup: Sequence[Word],
) -> None:
    """Every coset closes every relator and every subgroup word fixes coset
    0, checked a column at a time: all cosets go through a relator together,
    column[c] for each coset c at each letter.  Raises AssertionError
    otherwise."""
    columns = list(zip(*table))
    identity = tuple(range(len(table)))
    for r in relators:
        cols = CosetTable.compile(r)[0]
        cosets = columns[cols[0]] if cols else identity
        for col in cols[1:]:
            cosets = _gather(columns[col], cosets)
        if cosets != identity:
            raise AssertionError("relator does not close on the final table")
    for w in subgroup:
        c = 0
        for col in CosetTable.compile(w)[0]:
            c = table[c][col]
        if c != 0:
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
    scan = ct.scan_and_fill
    try:
        scan(0, [ct.compile(w) for w in subgroup_words])
        while True:
            # the list iterator also visits cosets defined while it runs
            for alpha, root in enumerate(parent):
                if root == alpha:
                    scan(alpha, relators)
                    if parent[alpha] == alpha:
                        base = alpha * n
                        for col in range(n):
                            if table[base + col] < 0:
                                ct.define(alpha, col)
            # a late coincidence can clear an entry of an earlier live row
            if ct.is_complete():
                break
    except _TableOverflow:
        return EnumerationOutcome(finite=False, order=None, max_cosets=max_cosets)
    final = ct.compact()
    _replay(final, p.relators, subgroup_words)
    return EnumerationOutcome(
        finite=True, order=len(final), max_cosets=max_cosets, table=tuple(final)
    )


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
    """
    simplified = p.simplify()
    outcome = enumerate_cosets(simplified, (), max_cosets)
    if outcome.finite and outcome.order == 1:
        return TrivialityCertificate(trivial=True, order=1)
    return TrivialityCertificate(trivial=False, order=outcome.order)
