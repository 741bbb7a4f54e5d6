"""Bounded Todd-Coxeter coset enumeration (HLT strategy).

Certifies finite subgroup index -- in particular group order 1 for a Gluck
quotient that `simplify` leaves with generators.  `certify_trivial` lives in
`words` and settles a quotient simplified to < | >, as every K2(p,q) one is,
without loading this module; it is re-exported here with
`TrivialityCertificate` and `TableBudgetError`.  An Exceeded outcome is
inconclusive, never a refutation.  When the abelianized quotient of the
group by the subgroup is infinite, as for every knot group and the trivial
subgroup, the index is proved infinite and `exceeded` comes back at once,
without a table; it is still reported as `exceeded`, like any overflow.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .echelon import rank
from .words import Presentation, TableBudgetError, TrivialityCertificate, Word
from .words import certify_trivial

# Most entries (cosets times 2 * generators) that max_cosets may let a coset
# table reach; checked before allocating.  Columns grow in blocks but never
# past one spare slot beyond max_cosets, so a table holds at most
# (max_cosets + 1) * 2g entries.  Peak RSS: about 19 bytes an entry on
# overflow, the worst case (two generators; 320 MB at the limit), 11 on S8.
MAX_TABLE_ENTRIES = 1 << 24
# the -1 slots a column grows by when a new coset takes its last slot
BLOCK = (-1,) * 1024


class _TableOverflow(Exception):
    pass


class CosetTable:
    """Mutable enumeration state, column-major: columns[col][c] is coset c's
    image under column col (2g for generator g, 2g + 1 for its inverse), -1
    if undefined.  Every slot past the last coset is -1 and each column has
    at least one, so column[-1] is -1 and a walk that meets a gap stays at
    -1.  Columns grow by a block of BLOCK slots when a new coset takes the
    last one (`grow`), to at most max_cosets + 1 slots.  Dead cosets forward
    to their replacement union-find style; once `coincidence` returns, live
    rows reference only live cosets, so scans read them unresolved.
    `renumber` ends the table, making it the final one."""

    def __init__(self, ngens: int, max_cosets: int):
        self.max_cosets = max_cosets
        self.columns: list[list[int]] = [[-1, -1] for _ in range(2 * ngens)]
        self.parent: list[int] = [0]
        # each column with the column of the inverse letter
        self.pairs = [(c, self.columns[k ^ 1]) for k, c in enumerate(self.columns)]

    @staticmethod
    def col(letter: int) -> int:
        g = abs(letter) - 1
        return 2 * g if letter > 0 else 2 * g + 1

    @classmethod
    def compile(cls, word: Word) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Forward and inverse column numbers of a word's letters."""
        cols = tuple(cls.col(a) for a in word.letters)
        return cols, tuple(c ^ 1 for c in cols)

    def bind(self, word: Word) -> tuple[tuple[list[int], ...], tuple[list[int], ...]]:
        """Forward and inverse column lists of a word's letters.  Scans take
        them bound, so an enumeration binds each relator once."""
        cols, back = self.compile(word)
        column = self.columns.__getitem__
        return tuple(map(column, cols)), tuple(map(column, back))

    def rep(self, c: int) -> int:
        parent = self.parent
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def coincidence(self, a: int, b: int) -> None:
        """Merge the live cosets a and b and every coincidence that follows,
        the larger coset of each pair dying into the smaller (Holt, Eick and
        O'Brien, Handbook of Computational Group Theory, 5.1).  Afterwards
        live rows reference only live cosets."""
        parent, pairs, rep = self.parent, self.pairs, self.rep
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        queue = [b]
        for dead in queue:  # merges append while this loop runs
            for column, inverse in pairs:
                d = column[dead]
                if d < 0:
                    continue
                inverse[d] = -1
                # rep(dead) and rep(d), calling rep only past one step
                mu = parent[dead]
                if parent[mu] != mu:
                    mu = rep(mu)
                nu = d if parent[d] == d else rep(d)
                e = column[mu]
                if e >= 0:
                    x = nu
                else:
                    e = inverse[nu]
                    if e < 0:
                        column[mu] = nu
                        inverse[nu] = mu
                        continue
                    x = mu
                # merge x, a live coset, with e
                if parent[e] != e:
                    e = rep(e)
                if x != e:
                    if x > e:
                        x, e = e, x
                    parent[e] = x
                    queue.append(e)

    def scan_and_fill(
        self, start: int, words: Sequence[tuple[tuple[list[int], ...], ...]]
    ) -> None:
        """Scan bound, freely reduced words from the live coset `start`, in
        order, defining cosets at the first gap of each until it closes or
        deduces; stops early when a coincidence kills `start`.

        Each word is first walked without an index, through column[-1], a
        slot past the last coset, once it meets a gap; only a word that does
        not close is walked again with the index, to its first gap, and then
        scanned backward.
        Defining fills one gap and changes no other entry: the backward scan
        resumes where it stopped, and the forward one stops at the next
        letter, since the new coset's only entry is the inverse of the letter
        that defined it.  A new coset that takes the last slot of the columns
        grows them first, or overflows at max_cosets.
        """
        parent = self.parent
        for cols, back in words:
            f = start
            for column in cols:  # past a gap f is -1, and column[-1] is -1
                f = column[f]
            if f >= 0:  # the word closes from start
                if f != start:
                    self.coincidence(f, start)
                    if parent[start] != start:
                        return
                continue
            f, i = start, 0
            while True:  # the walk again, to the first gap
                d = cols[i][f]
                if d < 0:
                    break
                f = d
                i += 1
            b, j = start, len(cols) - 1
            while True:
                while j >= i:
                    d = back[j][b]
                    if d < 0:
                        break
                    b = d
                    j -= 1
                if j < i:
                    self.coincidence(f, b)
                    break
                if j == i:
                    cols[i][f] = b
                    back[i][b] = f
                    break
                d = len(parent)
                column = cols[i]
                if d + 1 == len(column):  # d takes the last slot
                    self.grow(d)
                parent.append(d)
                column[f] = d
                back[i][d] = f
                f = d
                i += 1
            if parent[start] != start:
                return

    def grow(self, d: int) -> None:
        """Make room past coset d, which takes the last slot of every column:
        extend each by a block of -1 slots, never past max_cosets + 1 slots.
        Raises _TableOverflow instead when d would pass the bound."""
        if d >= self.max_cosets:
            raise _TableOverflow
        for column in self.columns:
            column.extend(BLOCK[: self.max_cosets - d])

    def complete(self) -> Optional[list[int]]:
        """The live cosets, or None while an entry of a live row is
        undefined.  Changes nothing, so the enumeration can go on."""
        # root, not the enumerate counter: the live cosets' own int objects
        live = [root for c, root in enumerate(self.parent) if root == c]
        if any(-1 in _gather(column, live) for column in self.columns):
            return None
        return live

    def renumber(self, live: list[int]) -> list[tuple[int, ...]]:
        """The columns of the live rows of a complete table, cosets renumbered
        0..n-1.  Destroys the table: each column list, once nothing else holds
        it, is freed as its live rows replace it, before the index ints exist;
        `parent` becomes the index, whose dead slots live rows never reach."""
        index, columns = self.parent, self.columns
        del self.pairs
        for col in range(len(columns)):
            columns[col] = _gather(columns[col], live)
        for k, c in enumerate(live):
            index[c] = k
        for col in range(len(columns)):
            columns[col] = _gather(index, columns[col])
        return columns


class EnumerationOutcome(NamedTuple):
    """Result of a bounded enumeration.  `order` is the subgroup index (the
    group order for the trivial subgroup) and is set only when finite, and
    `table` then holds the rows of the final table.  `coset_index` reports
    the same order without building those rows."""

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
    columns: Sequence[Sequence[int]],
    relators: Sequence[Word],
    subgroup: Sequence[Word],
) -> None:
    """Every coset closes every relator and every subgroup word fixes coset
    0, checked a column at a time (all cosets through a relator together,
    column[c] for each coset c at each letter), else AssertionError.  With
    no columns (no generators) the table has one coset."""
    identity = tuple(range(len(columns[0]) if columns else 1))
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
            c = columns[col][c]
        if c != 0:
            raise AssertionError("subgroup word moves the base coset")


def _final_columns(
    p: Presentation, subgroup_words: Sequence[Word], max_cosets: int
) -> Optional[list[tuple[int, ...]]]:
    """The columns of the final table of `enumerate_cosets`, cosets
    renumbered 0..n-1 and replayed, or None where it reports not finite."""
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
    sums = p.exponent_matrix() + [w.exponent_sums(p.ngens) for w in subgroup_words]
    if rank(sums) < p.ngens:
        return None
    ct = CosetTable(p.ngens, max_cosets)
    parent, pairs = ct.parent, ct.pairs
    relators = [ct.bind(r) for r in p.relators]
    scan = ct.scan_and_fill
    try:
        scan(0, [ct.bind(w) for w in subgroup_words])
        live = None
        while live is None:
            # the list iterator also visits cosets defined while it runs
            for alpha, root in enumerate(parent):
                if root == alpha:
                    scan(alpha, relators)
                    if parent[alpha] == alpha:
                        for column, inverse in pairs:
                            if column[alpha] < 0:
                                d = len(parent)
                                if d + 1 == len(column):  # d takes the last slot
                                    ct.grow(d)
                                parent.append(d)
                                column[alpha] = d
                                inverse[d] = alpha
            # a late coincidence can clear an entry of an earlier live row
            live = ct.complete()
    except _TableOverflow:
        return None
    pairs = relators = column = inverse = None  # renumber frees columns
    final = ct.renumber(live)
    del ct, parent, scan  # free the index before the replay
    _replay(final, p.relators, subgroup_words)
    return final


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

    The group maps onto Z^ngens modulo the exponent sums of the relators and
    the subgroup words, and the map kills the subgroup, so the index is at
    least that quotient's order (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, ch. 5).  When those rows have rank below
    ngens the index is infinite, no table can close, and the outcome is the
    overflow one, returned without building a table.
    """
    final = _final_columns(p, subgroup_words, max_cosets)
    if final is None:
        return EnumerationOutcome(False, None, max_cosets)
    # with no generators there are no columns, and coset 0 is the only one
    table = tuple(zip(*final)) or ((),)
    return EnumerationOutcome(True, len(table), max_cosets, table)


def coset_index(
    p: Presentation,
    subgroup_words: Sequence[Word] = (),
    max_cosets: int = 10000,
) -> Optional[int]:
    """The index `enumerate_cosets` reports, None where it reports not
    finite, read off the final columns without building the rows."""
    final = _final_columns(p, subgroup_words, max_cosets)
    return None if final is None else len(final[0]) if final else 1
