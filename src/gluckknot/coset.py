"""Bounded Todd-Coxeter coset enumeration (HLT strategy).

Certifies finite subgroup index -- in particular group order 1 for a Gluck
quotient that `simplify` leaves with generators.  `certify_trivial` lives in
`words` and settles a quotient simplified to < | >, as every K2(p,q) one is,
without loading this module; it is re-exported here with
`TrivialityCertificate`.  An Exceeded outcome is inconclusive, never a
refutation.  When the abelianized quotient of the group by the subgroup is
infinite, as for every knot group and the trivial subgroup, the index is
proved infinite and `exceeded` comes back at once, without a table; it is
still reported as `exceeded`, like any overflow.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Collection, NamedTuple, Optional, Sequence

from .echelon import rank
from .words import Presentation, TrivialityCertificate, Word
from .words import certify_trivial

# Most entries (cosets times column lists, an involution's two columns being
# one list) that max_cosets may let a coset table reach; checked before
# allocating.  Columns grow in blocks but never past one spare slot beyond
# max_cosets, so a list holds at most max_cosets + 1 entries.  Peak RSS on
# overflow, the worst case: about 28 bytes an entry for two involutions (two
# lists; some 470 MB at the limit), 18 for two other generators.  S8 defines
# 52457 cosets in seven lists, 367199 entries: 5.84 MiB of tracemalloc peak
# in coset_index, 17 bytes an entry.
MAX_TABLE_ENTRIES = 1 << 24
# the -1 slots a column grows by when a new coset takes its last slot
BLOCK = (-1,) * 1024


class TableBudgetError(ValueError):
    """max_cosets could fill more than MAX_TABLE_ENTRIES table entries."""


class _TableOverflow(Exception):
    pass


# column lists of a table, one a letter of a word
Columns = tuple[list[int], ...]
# a word bound to a table: the columns of its letters, then of their inverses
Bound = tuple[Columns, Columns]


def _columns(word: Word) -> tuple[int, ...]:
    """The table column of each letter: 2g for generator g, 2g + 1 for its
    inverse."""
    return tuple(2 * abs(a) - 2 + (a < 0) for a in word.letters)


class CosetTable:
    """Mutable enumeration state, column-major: columns[col][c] is coset c's
    image under column col (2g for generator g, 2g + 1 for its inverse), -1
    if undefined; the two columns of an involution are one list.  Every slot
    past the last coset is -1 and each column has at least one, so
    column[-1] is -1 and a walk that meets a gap stays at -1.  `define`
    makes every new coset, and grows the columns by a block of BLOCK slots
    when it takes the last one, to at most max_cosets + 1 slots.  Dead
    cosets forward to their replacement union-find style; once
    `coincidence` returns, live rows reference only live cosets, so scans
    read them unresolved."""

    def __init__(self, ngens: int, max_cosets: int, twins: Collection[int]):
        """An empty table, but for coset 0.  `twins` are the columns G of the
        involutions g: each is a twin of column g, the same list."""
        self.max_cosets = max_cosets
        columns = self.columns = [[-1, -1] for _ in range(2 * ngens)]
        for col in twins:
            columns[col] = columns[col - 1]
        self.parent: list[int] = [0]
        # each distinct column list once, with the column of the inverse
        # letter; an involution's list is its own inverse
        self.pairs = [
            (c, columns[k ^ 1]) for k, c in enumerate(columns) if k not in twins
        ]

    def bind(self, word: Word) -> Bound:
        """Forward and inverse column lists of a word's letters, each pair of
        adjacent letters on mutually inverse columns cancelled.  In a freely
        reduced word those are gg, gG, Gg and GG for an involution g.  So no
        letter's column is the inverse of the one before, as the scans need.
        Scans take words bound, so an enumeration binds each relator once."""
        columns, cols, back = self.columns, [], []
        for k in _columns(word):
            if back and back[-1] is columns[k]:
                cols.pop()
                back.pop()
            else:
                cols.append(columns[k])
                back.append(columns[k ^ 1])
        return tuple(cols), tuple(back)

    def rep(self, c: int) -> int:
        parent = self.parent
        while parent[c] != c:  # path halving
            parent[c] = c = parent[parent[c]]
        return c

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

    def define(self, column: list[int], inverse: list[int], c: int) -> int:
        """Make a new coset d the image of c under `column`, and c the
        image of d under `inverse`; return d.  If d takes the last slot,
        every column list first grows by a block, to at most max_cosets + 1
        slots, or _TableOverflow is raised at max_cosets, nothing written."""
        parent = self.parent
        d = len(parent)
        if d + 1 == len(column):  # d takes the last slot
            if d >= self.max_cosets:
                raise _TableOverflow
            for column_list, _ in self.pairs:
                column_list.extend(BLOCK[: self.max_cosets - d])
        parent.append(d)
        column[c] = d
        inverse[d] = c
        return d

    def scan_and_fill(self, start: int, words: Sequence[Bound]) -> None:
        """Scan words bound by `bind` from the live coset `start`, in
        order, defining cosets at the first gap of each until it closes or
        deduces; stops early when a coincidence kills `start`.

        Each word is first walked without an index, through column[-1], a
        slot past the last coset, once it meets a gap; only a word that does
        not close is walked again with the index, to its first gap, and then
        scanned backward.
        Defining fills one gap and changes no other entry: the backward scan
        resumes where it stopped, and the forward one stops at the next
        letter, since the new coset's only entry is the inverse of the letter
        that defined it.  `define` makes each new coset, growing the columns
        first when it takes their last slot, or overflowing at max_cosets.
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
                f = self.define(cols[i], back[i], f)
                i += 1
            if parent[start] != start:
                return

    def complete(self) -> Optional[list[int]]:
        """The live cosets, or None while an entry of a live row is
        undefined; AssertionError where one is a dead coset.  Changes
        nothing, so the enumeration can go on."""
        parent = self.parent
        # root, not the enumerate counter: the live cosets' own int objects
        live = [root for c, root in enumerate(parent) if root == c]
        for column, _ in self.pairs:
            row = _gather(column, live)
            # a live coset is its own parent; parent[-1], a coset, is not -1
            if _gather(parent, row) != row:
                if -1 in row:
                    return None
                raise AssertionError("a live row references a dead coset")
        return live


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
    live: Sequence[int],
    relators: Sequence[Word],
    subgroup: Sequence[Word],
) -> None:
    """Every coset of `live`, whose rows hold only cosets of `live`, closes
    every relator and every subgroup word fixes coset 0, checked a column at
    a time (all cosets through a relator together, column[c] for each coset
    c at each letter), else AssertionError."""
    identity = tuple(live)
    for r in relators:
        cosets = identity
        for col in _columns(r):
            cosets = _gather(columns[col], cosets)
        if cosets != identity:
            raise AssertionError("relator does not close on the final table")
    for w in subgroup:
        c = 0
        for col in _columns(w):
            c = columns[col][c]
        if c != 0:
            raise AssertionError("subgroup word moves the base coset")


def _final_columns(
    p: Presentation, subgroup_words: Sequence[Word], max_cosets: int
) -> Optional[tuple[list[list[int]], list[int], list[int]]]:
    """The column lists of the final HLT table of `enumerate_cosets`, its
    live cosets and its union-find list, replayed; None where it reports
    not finite."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    # a generator g whose square is a relator is an involution, and its
    # column G, 2g + 1 = 2|a| - 1 for either of its letters a, is a twin of
    # column g: g^2 then binds to no letters and closes on any table, so
    # like every relator that binds to none it is replayed, not scanned
    twins = {
        2 * abs(a) - 1 for r in p.relators for a in r.letters[:1] if r.letters == (a, a)
    }
    lists = 2 * p.ngens - len(twins)
    if max_cosets * lists > MAX_TABLE_ENTRIES:
        raise TableBudgetError(
            f"max_cosets {max_cosets} times {lists} table columns exceeds "
            f"the budget of {MAX_TABLE_ENTRIES} table entries"
        )
    for w in subgroup_words:
        if w.max_generator() >= p.ngens:
            raise ValueError(f"subgroup word {w!r} uses an unknown generator")
    sums = p.exponent_matrix() + [w.exponent_sums(p.ngens) for w in subgroup_words]
    if rank(sums) < p.ngens:
        return None
    ct = CosetTable(p.ngens, max_cosets, twins)
    parent, pairs = ct.parent, ct.pairs
    relators = [w for w in map(ct.bind, p.relators) if w[0]]
    scan = ct.scan_and_fill
    try:
        scan(0, [ct.bind(w) for w in subgroup_words])
        live = None
        while live is None:
            # the list iterator also visits cosets defined while it runs; the
            # table stores root, the coset's own int, never the counter alpha
            for alpha, root in enumerate(parent):
                if root == alpha:
                    scan(root, relators)
                    if parent[root] == root:
                        for column, inverse in pairs:
                            if column[root] < 0:
                                ct.define(column, inverse, root)
            # a late coincidence can clear an entry of an earlier live row
            live = ct.complete()
    except _TableOverflow:
        return None
    _replay(ct.columns, live, p.relators, subgroup_words)
    return ct.columns, live, parent


def enumerate_cosets(
    p: Presentation,
    subgroup_words: Sequence[Word] = (),
    max_cosets: int = 10000,
) -> EnumerationOutcome:
    """HLT enumeration of cosets of <subgroup_words> in the presented group.

    Scans relators in presentation order from each live coset, defining new
    cosets at the first undefined slot and merging coincidences eagerly.  A
    generator g with g^2 or g^-2 among the relators is an involution and
    gets one column for g and g^-1 both (Holt, Eick and O'Brien, ch. 5), so
    HLT defines about half as many cosets on a Coxeter group, and those
    relators close on every table: they are replayed, not scanned.  Every
    finite outcome is replayed on the HLT table against every relator, and
    only then are its live cosets renumbered 0..n-1, in order.
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
    # the union-find list becomes the index, whose dead slots live rows
    # never reach; each column list is freed once the tuple of its
    # renumbered live rows replaces it, and live and the index before rows
    columns, live, index = final
    for k, c in enumerate(live):
        index[c] = k
    for col in range(len(columns)):
        columns[col] = _gather(index, _gather(columns[col], live))
    del final, live, index
    # with no generators there are no columns, and coset 0 is the only one
    table = tuple(zip(*columns)) or ((),)
    return EnumerationOutcome(True, len(table), max_cosets, table)


def coset_index(
    p: Presentation,
    subgroup_words: Sequence[Word] = (),
    max_cosets: int = 10000,
) -> Optional[int]:
    """The index `enumerate_cosets` reports, None where it reports not
    finite: the count of live cosets of the replayed HLT table."""
    final = _final_columns(p, subgroup_words, max_cosets)
    return None if final is None else len(final[1])
