import gc
import json
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gluckknot.coset
from gluckknot.cli import main
from gluckknot.coset import (
    BLOCK,
    MAX_TABLE_ENTRIES,
    CosetTable,
    TableBudgetError,
    _TableOverflow,
    _replay,
    certify_trivial,
    coset_index,
    enumerate_cosets,
)
from gluckknot.twoknot import family_presentation, family_record
from gluckknot.words import Presentation, PresentationError, Word


def cyclic(n):
    return Presentation.parse(f"< x | x^{n} >")


def dihedral(n):
    # order 2n
    return Presentation.parse(f"< x, y | x^{n}, y^2, xyxy >")


QUATERNION_8 = Presentation.parse("< x, y | x^4, x^2Y^2, Yxyx >")

# the (2,3,7) triangle group: infinite, with H1 = 0, so only the enumeration
# can find its index infinite; a is an involution, and it overflows at 2000
# without a coincidence
TRIANGLE_237 = Presentation.parse("< a, b | a^2, b^3, ababababababab >")

# the Fibonacci group F(2,7), of order 29, with no involution relator: it
# overflows at 2000 after 360 coincidences
FIBONACCI_27 = Presentation.parse(
    "< a, b, c, d, e, f, g | abC, bcD, cdE, deF, efG, fgA, gaB >"
)


def word_on(ngens, max_size):
    letters = st.integers(min_value=1, max_value=ngens).flatmap(
        lambda g: st.sampled_from([g, -g])
    )
    return st.lists(letters, max_size=max_size).map(Word)


def letter_column(letter):
    """Oracle column of a letter, stated apart from `coset`: 2g for
    generator g, 2g + 1 for its inverse."""
    g = abs(letter) - 1
    return 2 * g if letter > 0 else 2 * g + 1


def trace(table, start, word):
    c = start
    for a in word.letters:
        c = table[c][letter_column(a)]
    return c


def replay(outcome, p, subgroup=()):
    assert outcome.finite
    table = outcome.table
    for c in range(len(table)):
        for r in p.relators:
            assert trace(table, c, r) == c
    for word in subgroup:
        assert trace(table, 0, word) == 0


class TestEnumerate:
    def test_cyclic_three(self):
        p = cyclic(3)
        outcome = enumerate_cosets(p, (), 100)
        assert outcome.finite and outcome.order == 3
        replay(outcome, p)

    def test_family_quotient_trivial(self):
        p = Presentation.parse("< x, y | xyxYXyxyXY, x >")
        outcome = enumerate_cosets(p, (), 1000)
        assert outcome.finite and outcome.order == 1

    def test_whole_group_subgroup_index_one(self):
        p = Presentation.parse("< x, y | xyXY >")
        outcome = enumerate_cosets(p, [p.word("x"), p.word("y")], 100)
        assert outcome.finite and outcome.order == 1

    def test_infinite_index_exceeds(self):
        p = Presentation.parse("< x, y | xyXY >")
        outcome = enumerate_cosets(p, [p.word("x")], 100)
        assert not outcome.finite and outcome.order is None

    def test_infinite_group_exceeds(self):
        outcome = enumerate_cosets(Presentation.parse("< x | >"), (), 50)
        assert not outcome.finite

    def test_subgroup_index(self):
        # index of <x> in dihedral group of order 12 is 2
        p = dihedral(6)
        outcome = enumerate_cosets(p, [p.word("x")], 100)
        assert outcome.finite and outcome.order == 2
        replay(outcome, p, [p.word("x")])

    def test_empty_presentation(self):
        outcome = enumerate_cosets(Presentation.parse("< | >"), (), 10)
        assert outcome.finite and outcome.order == 1

    def test_bad_subgroup_word_rejected(self):
        p = cyclic(3)
        q = Presentation.parse("< x, y | >")
        with pytest.raises(ValueError):
            enumerate_cosets(p, [q.word("y")], 10)

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cosets(cyclic(3), (), 0)

    def test_deterministic(self):
        p = dihedral(4)
        o1 = enumerate_cosets(p, (), 100)
        o2 = enumerate_cosets(p, (), 100)
        assert o1.table == o2.table


class TestTableBudget:
    def test_bound_at_budget_runs(self):
        # one generator: two table columns per coset
        outcome = enumerate_cosets(cyclic(1), (), MAX_TABLE_ENTRIES // 2)
        assert outcome.finite and outcome.order == 1

    def test_involution_list_counted_once(self):
        # a's two columns are one list: one table entry a coset
        p = Presentation.parse("< a | aa >")
        assert enumerate_cosets(p, (), MAX_TABLE_ENTRIES).order == 2
        with pytest.raises(TableBudgetError, match=str(MAX_TABLE_ENTRIES)):
            enumerate_cosets(p, (), MAX_TABLE_ENTRIES + 1)

    def test_bound_past_budget_refused(self):
        with pytest.raises(TableBudgetError, match=str(MAX_TABLE_ENTRIES)):
            enumerate_cosets(cyclic(1), (), MAX_TABLE_ENTRIES // 2 + 1)
        # y^2 is a relator of dihedral(3), so y has one column list of three
        with pytest.raises(ValueError):
            certify_trivial(dihedral(3), MAX_TABLE_ENTRIES // 3 + 1)

    def test_largest_benchmark_bound_inside_budget(self):
        # six generators at 60000 cosets (the Coxeter A6 case): under 5%
        p = Presentation.parse("< a, b, c, d, e, f | a, b, c, d, e, f >")
        assert 60000 * 2 * p.ngens <= MAX_TABLE_ENTRIES // 20
        assert enumerate_cosets(p, (), 60000).order == 1


class TestKnownOrders:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_cyclic_orders(self, n):
        outcome = enumerate_cosets(cyclic(n), (), 200)
        assert outcome.finite and outcome.order == n
        replay(outcome, cyclic(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dihedral_orders(self, n):
        p = dihedral(n)
        outcome = enumerate_cosets(p, (), 200)
        assert outcome.finite and outcome.order == 2 * n
        replay(outcome, p)

    def test_quaternion_order(self):
        outcome = enumerate_cosets(QUATERNION_8, (), 200)
        assert outcome.finite and outcome.order == 8
        replay(outcome, QUATERNION_8)

    @pytest.mark.parametrize(
        "text",
        [
            "< x | x >",
            "< x, y | x, y >",
            "< x, y | xyxYXyxyXY, x >",
            "< x, y | xy, x^2y >",
        ],
    )
    def test_trivial_presentations(self, text):
        outcome = enumerate_cosets(Presentation.parse(text), (), 200)
        assert outcome.finite and outcome.order == 1


class TestCertifyTrivial:
    def test_family_quotients(self):
        for relator in ("xyxYXyxyXY", "xyxyXYxYXY", "xyxYXYxyXY", "xyxyXyxYXY"):
            p = Presentation.parse(f"< x, y | {relator} >")
            for gen in ("x", "y"):
                cert = certify_trivial(p.kill_generator(gen), 100)
                assert cert.trivial and cert.order == 1

    def test_z2_inconclusive_with_order(self):
        cert = certify_trivial(Presentation.parse("< x | x^2 >"), 100)
        assert not cert.trivial
        assert cert.order == 2
        assert cert.status == "inconclusive"

    def test_empty_presentation_trivial(self):
        assert certify_trivial(Presentation.parse("< | >"), 10).trivial

    def test_infinite_inconclusive(self):
        cert = certify_trivial(Presentation.parse("< x | >"), 50)
        assert not cert.trivial and cert.order is None


def hlt_verdict(p, max_cosets):
    """Oracle: (trivial, order) from HLT on the simplified presentation, as
    certify_trivial computed it before generator-free quotients skipped it;
    the exception type when the enumeration refuses."""
    try:
        outcome = enumerate_cosets(p.simplify(), (), max_cosets)
    except ValueError as exc:
        return type(exc)
    return outcome.finite and outcome.order == 1, outcome.order


def certify_verdict(p, max_cosets):
    try:
        cert = certify_trivial(p, max_cosets)
    except ValueError as exc:
        return type(exc)
    return cert.trivial, cert.order


def gluck_golden_quotients():
    """(quotient, max_cosets) of every `gluck` golden call that kills a
    generator of its presentation.  Calls whose command line argparse
    refuses (an `error: argument` message, or the unrecorded stderr of an
    invalid choice) never reach the quotient and are left out."""
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    cases = set()
    for case in golden:
        argv = case["argv"]
        if argv[:1] != ["gluck"] or "--kill" not in argv:
            continue
        if case.get("stderr", "error: argument").startswith("error: argument"):
            continue
        bound = argv[argv.index("--max-cosets") + 1] if "--max-cosets" in argv else 10000
        try:
            quotient = Presentation.parse(argv[1]).kill_generator(
                argv[argv.index("--kill") + 1]
            )
        except PresentationError:
            continue
        cases.add((quotient, int(bound)))
    return sorted(cases, key=repr)


def unit_relators(n):
    """Single-letter relators on some of n generators: `simplify` kills
    those, so a presentation carrying all of them simplifies to < | >."""
    return st.lists(
        st.integers(min_value=1, max_value=n).flatmap(
            lambda g: st.sampled_from([Word([g]), Word([-g])])
        ),
        max_size=n,
    )


class TestCertifyAgainstHLT:
    """certify_trivial answers a quotient that simplifies to < | > without
    HLT; the verdict must still be the one HLT gives."""

    @pytest.mark.parametrize("gen", ["x", "y"])
    @pytest.mark.parametrize("pq", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_family_quotients(self, pq, gen):
        quotient = family_presentation(*pq).kill_generator(gen)
        assert certify_verdict(quotient, 10000) == hlt_verdict(quotient, 10000)
        assert certify_verdict(quotient, 10000) == (True, 1)

    @pytest.mark.parametrize("quotient,max_cosets", gluck_golden_quotients())
    def test_gluck_golden_inputs(self, quotient, max_cosets):
        assert certify_verdict(quotient, max_cosets) == hlt_verdict(quotient, max_cosets)

    def test_golden_inputs_cover_both_paths(self):
        simplified = [q.simplify().ngens for q, _ in gluck_golden_quotients()]
        assert 0 in simplified and max(simplified) > 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=3).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(word_on(n, 8), max_size=3) if n else st.just([]),
                unit_relators(n) if n else st.just([]),
                st.sampled_from([1, 2, 7, 50, 200]),
            )
        )
    )
    def test_random_presentations(self, case):
        n, relators, units, max_cosets = case
        p = Presentation(list("xyz"[:n]), relators + units)
        assert certify_verdict(p, max_cosets) == hlt_verdict(p, max_cosets)

    @pytest.mark.parametrize(
        "p",
        [
            Presentation.parse("< | >"),
            family_presentation(0, 0).kill_generator("x"),
            cyclic(2),
        ],
    )
    def test_zero_bound_still_raises(self, p):
        with pytest.raises(ValueError, match="at least 1"):
            certify_trivial(p, 0)

    def test_family_record_never_enumerates(self, monkeypatch):
        calls = []
        index = gluckknot.coset.coset_index

        def spy(p, subgroup_words=(), max_cosets=10000):
            calls.append(p)
            return index(p, subgroup_words, max_cosets)

        monkeypatch.setattr(gluckknot.coset, "coset_index", spy)
        for p in range(-2, 3):
            for q in range(-2, 3):
                assert family_record(p, q)["gluck_pi1"] == "trivial"
        assert calls == []
        # the spy sees the enumeration of a quotient with generators left
        assert not certify_trivial(cyclic(2), 10).trivial
        assert calls == [cyclic(2)]


class SeedTable:
    """Oracle: the list-of-lists HLT table that the flat one replaced, with
    relator columns rebuilt on every scan."""

    def __init__(self, ngens, max_cosets):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table = [[None] * self.ncols]
        self.parent = [0]

    def rep(self, c):
        while self.parent[c] != c:
            c = self.parent[c]
        return c

    def define(self, c, col):
        if len(self.table) >= self.max_cosets:
            raise OverflowError
        d = len(self.table)
        self.table.append([None] * self.ncols)
        self.parent.append(d)
        self.table[c][col] = d
        self.table[d][col ^ 1] = c

    def merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            self.parent[b] = a
            queue.append(b)

    def coincidence(self, a, b):
        queue = []
        self.merge(a, b, queue)
        i = 0
        while i < len(queue):
            dead = queue[i]
            i += 1
            for col in range(self.ncols):
                d = self.table[dead][col]
                if d is None:
                    continue
                self.table[d][col ^ 1] = None
                mu, nu = self.rep(dead), self.rep(d)
                if self.table[mu][col] is not None:
                    self.merge(nu, self.table[mu][col], queue)
                elif self.table[nu][col ^ 1] is not None:
                    self.merge(mu, self.table[nu][col ^ 1], queue)
                else:
                    self.table[mu][col] = nu
                    self.table[nu][col ^ 1] = mu

    def scan_and_fill(self, start, word):
        cols = [letter_column(a) for a in word]
        back_cols = [letter_column(-a) for a in word]
        while True:
            start = self.rep(start)
            f, i = start, 0
            while i < len(cols) and self.table[f][cols[i]] is not None:
                f = self.rep(self.table[f][cols[i]])
                i += 1
            if i == len(cols):
                if f != start:
                    self.coincidence(f, start)
                return
            b, j = start, len(cols) - 1
            while j >= i and self.table[b][back_cols[j]] is not None:
                b = self.rep(self.table[b][back_cols[j]])
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.table[f][cols[i]] = b
                self.table[b][back_cols[i]] = f
                return
            self.define(f, cols[i])

    def live(self):
        return [c for c in range(len(self.table)) if self.parent[c] == c]


def seed_enumerate(p, subgroup, max_cosets):
    """(finite, order, table) as the list-of-lists HLT computes them."""
    ct = SeedTable(p.ngens, max_cosets)
    try:
        for w in subgroup:
            ct.scan_and_fill(0, w.letters)
        while True:
            alpha = 0
            while alpha < len(ct.table):
                if ct.parent[alpha] == alpha:
                    for r in p.relators:
                        ct.scan_and_fill(alpha, r.letters)
                        if ct.parent[alpha] != alpha:
                            break
                    if ct.parent[alpha] == alpha:
                        for col in range(ct.ncols):
                            if ct.table[alpha][col] is None:
                                ct.define(alpha, col)
                alpha += 1
            if all(None not in ct.table[c] for c in ct.live()):
                break
    except OverflowError:
        return False, None, None
    index = {c: k for k, c in enumerate(ct.live())}
    table = tuple(tuple(index[ct.rep(e)] for e in ct.table[c]) for c in ct.live())
    return True, len(table), table


def coxeter(rank, m):
    """s_i^2, then (s_i s_j)^m_ij with m_ij = 2 for unjoined nodes."""
    rels = [Word([i + 1, i + 1]) for i in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            rels.append(Word([i + 1, j + 1] * m.get((i, j), 2)))
    return Presentation([f"s{i}" for i in range(rank)], rels)


def involution_generators(p):
    """Oracle: the generators g, numbered from 0, for which g^2 or g^-2 is a
    relator, so that g gets one table column."""
    squares = {Word([g + 1, g + 1]): g for g in range(p.ngens)}
    squares.update({Word([-g - 1, -g - 1]): g for g in range(p.ngens)})
    return {squares[r] for r in p.relators if r in squares}


def standardized(table):
    """`table` with its cosets renumbered in the order a walk from coset 0
    first reaches them, each row's columns read in order.  Two tables of the
    same transitive action, coset 0 fixed by the subgroup in both,
    standardize to the same table, whatever their numbering."""
    if table is None:
        return None
    number, order = {0: 0}, [0]
    for c in order:
        for e in table[c]:
            if e not in number:
                number[e] = len(order)
                order.append(e)
    assert len(order) == len(table)  # every coset is reached from coset 0
    return tuple(tuple(number[e] for e in table[c]) for c in order)


def assert_matches_seed(p, subgroup, max_cosets):
    """The outcome of `enumerate_cosets` is the oracle's.  Without a g^2
    relator the tables are equal as they are.  With one, the involution's
    shared column defines cosets in another order, so the tables are equal
    once standardized; and where only one side closes within max_cosets, the
    other must close within 100 times that, with the same standardized
    table."""
    outcome = enumerate_cosets(p, subgroup, max_cosets)
    seed = seed_enumerate(p, subgroup, max_cosets)
    if not involution_generators(p):
        assert (outcome.finite, outcome.order, outcome.table) == seed
        return outcome
    closed = outcome
    if outcome.finite and not seed[0]:
        seed = seed_enumerate(p, subgroup, 100 * max_cosets)
    elif seed[0] and not outcome.finite:
        closed = enumerate_cosets(p, subgroup, 100 * max_cosets)
    finite, order, table = seed
    assert (closed.finite, closed.order, standardized(closed.table)) == (
        finite,
        order,
        standardized(table),
    )
    return outcome


COXETER_CORPUS = [
    ("A4", 4, {(0, 1): 3, (1, 2): 3, (2, 3): 3}, 120),
    ("A5", 5, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3}, 720),
    ("F4", 4, {(0, 1): 3, (1, 2): 4, (2, 3): 3}, 1152),
    ("A6", 6, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3}, 5040),
    ("H4", 4, {(0, 1): 5, (1, 2): 3, (2, 3): 3}, 14400),
]

# cosets HLT defines before each group of the corpus closes, with one column
# per generator: every Coxeter generator is an involution.  With two columns
# a generator they were 217, 1493, 2167, 11894 and 30876.
COSETS_DEFINED = {"A4": 122, "A5": 776, "F4": 1200, "A6": 6033, "H4": 15905}


class TestAgainstSeedTable:
    @pytest.mark.parametrize("name,rank,m,order", COXETER_CORPUS)
    def test_coxeter(self, name, rank, m, order):
        outcome = assert_matches_seed(coxeter(rank, m), (), 60000)
        assert outcome.order == order

    def test_overflowing_z2(self):
        p = Presentation.parse("< x, y | xyXY >")
        assert not assert_matches_seed(p, (), 2000).finite

    @pytest.mark.parametrize("max_cosets", [2000, 60000])
    def test_overflowing_triangle_group(self, max_cosets):
        assert not assert_matches_seed(TRIANGLE_237, (), max_cosets).finite

    @pytest.mark.parametrize("max_cosets", [1, 2, 5, 11, 12, 13])
    def test_bound_is_total_cosets_defined(self, max_cosets):
        assert_matches_seed(dihedral(6), (), max_cosets)

    # cosets HLT defines before each group closes: the least bound that works
    @pytest.mark.parametrize(
        "name,rank,m,order", COXETER_CORPUS, ids=[c[0] for c in COXETER_CORPUS]
    )
    def test_overflow_edge(self, name, rank, m, order):
        p = coxeter(rank, m)
        outcome = enumerate_cosets(p, (), COSETS_DEFINED[name])
        assert outcome.finite and outcome.order == order
        assert not enumerate_cosets(p, (), COSETS_DEFINED[name] - 1).finite

    @pytest.mark.parametrize("max_cosets", [2, 3])
    def test_bound_reached_in_fill_loop(self, max_cosets):
        # Z/2 as <x, y | Yx, xy>: the scans from coset 0 define coset 1, and
        # filling coset 0's y entry defines coset 2, the third coset defined
        p = Presentation.parse("< x, y | Yx, xy >")
        outcome = assert_matches_seed(p, (), max_cosets)
        assert outcome.finite == (max_cosets == 3)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(word_on(n, 8), min_size=1, max_size=3),
                st.lists(word_on(n, 3), max_size=1),
                st.sampled_from([1, 2, 3, 7, 20, 50, 200, 400]),
            )
        )
    )
    def test_random_presentations(self, case):
        n, relators, subgroup, max_cosets = case
        p = Presentation(list("xyz"[:n]), relators)
        assert_matches_seed(p, subgroup, max_cosets)

    # g^2 and g^-2 relators among the others, so those generators get one
    # column and their letters cancel in pairs within the other words
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(word_on(n, 10), min_size=1, max_size=3),
                st.lists(
                    st.integers(min_value=1, max_value=n).flatmap(
                        lambda g: st.sampled_from([g, -g])
                    ),
                    min_size=1,
                    max_size=n,
                ),
                st.lists(word_on(n, 4), max_size=2),
                st.sampled_from([1, 2, 3, 7, 20, 50, 200, 400, 2000]),
                st.randoms(use_true_random=False),
            )
        )
    )
    def test_random_presentations_with_involutions(self, case):
        n, relators, squared, subgroup, max_cosets, rng = case
        relators = list(relators)
        for a in squared:
            relators.insert(rng.randrange(len(relators) + 1), Word([a, a]))
        p = Presentation(list("xyz"[:n]), relators)
        assert_matches_seed(p, subgroup, max_cosets)

    def test_involution_corpus(self):
        # a fixed corpus of the same kind; the shared columns must change
        # the numbering of some tables, or the comparison proves nothing
        rng = random.Random(29)
        renumbered = 0
        for _ in range(300):
            n = rng.randint(1, 3)

            def word(lo, hi):
                size = rng.randint(lo, hi)
                return Word(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(size))

            relators = [word(1, 10) for _ in range(rng.randint(1, 3))]
            for g in rng.sample(range(1, n + 1), rng.randint(1, n)):
                a = rng.choice((g, -g))
                relators.insert(rng.randrange(len(relators) + 1), Word([a, a]))
            subgroup = [word(1, 4) for _ in range(rng.randint(0, 2))]
            p = Presentation("xyz"[:n], relators)
            max_cosets = rng.choice([1, 7, 50, 400])
            outcome = assert_matches_seed(p, subgroup, max_cosets)
            seed_table = seed_enumerate(p, subgroup, max_cosets)[2]
            renumbered += outcome.finite and outcome.table != seed_table
        assert renumbered > 20

    # long words leave gaps far from either end, where the scans walk again
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(word_on(n, 16), min_size=1, max_size=3),
                st.lists(word_on(n, 16), max_size=2),
                st.sampled_from([50, 400, 2000]),
            )
        )
    )
    def test_random_long_words(self, case):
        n, relators, subgroup, max_cosets = case
        p = Presentation(list("xyz"[:n]), relators)
        assert_matches_seed(p, subgroup, max_cosets)


def same_lists(lists):
    """The identities of `lists`, which compare as the objects do, not as
    their contents."""
    return tuple(map(id, lists))


S3 = Presentation.parse("< x, y | xx, yyy, xyxy >")

# (presentation, subgroup words, index): an involution's letters side by
# side, or cancelling within a word
INVOLUTION_LETTERS = [
    (Presentation.parse("< x, y | xx, xxy >"), (), 2),
    (Presentation.parse("< x | x^2, x^4 >"), (), 2),
    (Presentation.parse("< x | X^2, x^3 >"), (), 1),
    (Presentation.parse("< x, y | xx, yyxxY >"), (), 2),
    (S3, ("xx",), 6),
    (S3, ("xxy",), 2),
    (S3, ("yxxY",), 6),
]


def uncancelled(self, word):
    """`CosetTable.bind` without its cancellation of involution letters."""
    cols = [letter_column(a) for a in word.letters]
    return (
        tuple(self.columns[k] for k in cols),
        tuple(self.columns[k ^ 1] for k in cols),
    )


class TestInvolutionColumns:
    """A generator whose square is a relator is an involution, and its two
    table columns are one list.  `bind` cancels its letters in pairs (gg,
    gG, Gg, GG) in every word it binds, because the scans assume a new
    coset's only entry is the one that defined it."""

    @pytest.mark.parametrize("p,subgroup,order", INVOLUTION_LETTERS)
    def test_matches_the_oracle(self, p, subgroup, order):
        words = [p.word(w) for w in subgroup]
        for max_cosets in (1, 2, 3, 100):
            outcome = assert_matches_seed(p, words, max_cosets)
        assert outcome.order == order
        replay(outcome, p, words)

    def test_one_list_per_involution(self):
        table = CosetTable(3, 10, {1, 5})
        x, X, y, Y, z, Z = table.columns
        assert x is X and z is Z and y is not Y
        # every column list once, each with its inverse (by identity: all the
        # lists of a new table are equal)
        assert list(map(same_lists, table.pairs)) == list(
            map(same_lists, [(x, x), (y, Y), (Y, y), (z, z)])
        )

    def test_bind_cancels_involution_letters(self):
        table = CosetTable(2, 10, {1})
        x, _, y, Y = table.columns

        def bound(letters):
            return tuple(map(same_lists, table.bind(Word(letters))))

        assert bound([1, 1]) == ((), ())
        assert bound([-1, -1, -1]) == (same_lists([x]), same_lists([x]))
        assert bound([1, 1, 2]) == (same_lists([y]), same_lists([Y]))
        # y x x Y cancels from the middle out
        assert bound([2, 1, 1, -2]) == ((), ())
        assert bound([2, 1, -2, 1]) == (
            same_lists([y, x, Y, x]),
            same_lists([Y, x, y, x]),
        )

    def test_square_relators_are_not_scanned(self, monkeypatch):
        scanned = []
        scan_and_fill = CosetTable.scan_and_fill

        def recorded(self, start, words):
            scanned.extend(len(cols) for cols, _ in words)
            scan_and_fill(self, start, words)

        monkeypatch.setattr(CosetTable, "scan_and_fill", recorded)
        assert enumerate_cosets(S3).order == 6
        assert scanned and 0 not in scanned

    def test_cancellation_is_needed(self, monkeypatch):
        # without it the scans define over an entry they take for a gap, and
        # the final table is refused: a live row references a dead coset, or
        # the replay finds a relator that does not close
        monkeypatch.setattr(CosetTable, "bind", uncancelled)
        refused = []
        for p, subgroup, _ in INVOLUTION_LETTERS:
            try:
                enumerate_cosets(p, [p.word(w) for w in subgroup], 100)
            except AssertionError as exc:
                assert re.search("does not close|dead coset", str(exc))
                refused.append((p, subgroup))
        # here: < x, y | xx, yyxxY > and S3 with the subgroup word xxy
        assert refused

    @pytest.mark.parametrize(
        "text", ["< x, y | xx, yxxy, X >", "< x, y | xx, X, yXXyxx >"]
    )
    def test_corrupt_table_is_an_internal_error(self, monkeypatch, capsys, text):
        # the replay of the renumbered copy once read these tables past their
        # last coset and raised IndexError, a traceback instead of exit 3
        monkeypatch.setattr(CosetTable, "bind", uncancelled)
        p = Presentation.parse(text)
        for run in (enumerate_cosets, coset_index):
            with pytest.raises(AssertionError):
                run(p, (), 100)
        assert main(["enum", text]) == 3
        assert capsys.readouterr().err.startswith("internal error: ")


A5 = coxeter(5, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3})
F4 = coxeter(4, {(0, 1): 3, (1, 2): 4, (2, 3): 3})
A6 = coxeter(6, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3})
H4 = coxeter(4, {(0, 1): 5, (1, 2): 3, (2, 3): 3})


def enumeration_peak(p):
    """The tracemalloc peak of a finite `enumerate_cosets(p, (), 60000)`."""
    tracemalloc.start()
    try:
        outcome = enumerate_cosets(p, (), 60000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.finite
    return peak


def reader_peaks(p):
    """The tracemalloc peak of each reader, enumerate_cosets and
    coset_index, on p at bound 60000.  Each is warmed up first, since a
    repeated call peaks a few bytes lower, and runs with the collector off:
    collected garbage left by earlier tests would move either peak."""
    coset_index(p, (), 60000)
    enumerate_cosets(p, (), 60000)
    peaks = {}
    for run in (enumerate_cosets, coset_index):
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            run(p, (), 60000)
            peaks[run] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
    return peaks


# (presentation, MiB): bounds on the tracemalloc peaks of the two readers.
# Each group was the tightest when it was added; the earlier ones stay.
# enumerate_cosets: 5.17 and 2.31 MiB while the whole HLT table outlived the
# renumbering, 3.34 and 1.71 while each involution had two column lists
ENUMERATION_PEAKS = [(H4, 3.0), (A6, 1.4)]
INDEX_PEAKS = [
    # 3.34 and 1.71 MiB while each involution had two column lists
    (H4, 2.75),
    (A6, 1.15),
    # the index reader builds no rows; since it replays the HLT lists in
    # place, without a renumbered copy (2.52 and 1.03 MiB with one)
    (H4, 1.8),
    (A6, 0.8),
]


class TestFinalTable:
    """The completeness check at the end of each pass leaves the table as it
    was and refuses a live row that references a dead coset; the replay of
    the HLT column lists gates every finite outcome, and only
    `enumerate_cosets` renumbers the table, freeing it column by column."""

    @pytest.mark.parametrize("p", [A5, H4], ids=["A5", "H4"])
    def test_completeness_check_destroys_nothing(self, monkeypatch, p):
        # no corpus input reaches a second pass, so the first check, run for
        # real, reports a gap, and the second pass scans the table it left
        calls = []
        complete = CosetTable.complete

        def incomplete_once(self):
            live = complete(self)
            calls.append(live is not None)
            return live if len(calls) > 1 else None

        monkeypatch.setattr(CosetTable, "complete", incomplete_once)
        assert_matches_seed(p, (), 60000)
        assert calls == [True, True]

    def test_complete_tells_a_gap_from_a_dead_coset(self):
        # Z/2 on one generator, written by hand: x swaps cosets 0 and 1
        table = CosetTable(1, 10, set())
        x, X = table.columns
        table.parent.append(1)
        x[:] = X[:] = [1, 0, -1]
        assert table.complete() == [0, 1]
        X[1] = -1
        assert table.complete() is None
        X[1] = 0
        table.parent[1] = 0  # coset 1 dies, yet the row of coset 0 names it
        with pytest.raises(AssertionError, match="dead coset"):
            table.complete()

    def test_replay_gate_guards_the_pipeline(self, monkeypatch, capsys):
        complete = CosetTable.complete

        def swapped(self):
            # two live entries of a complete table swapped: every entry of a
            # live row is still a live coset, but x^4 no longer closes
            live = complete(self)
            column, (a, b) = self.columns[0], live[:2]
            column[a], column[b] = column[b], column[a]
            return live

        monkeypatch.setattr(CosetTable, "complete", swapped)
        with pytest.raises(AssertionError, match="relator does not close"):
            enumerate_cosets(dihedral(4))
        code = main(["enum", "<x, y | xx, yy, xyxyxyxy>"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            3,
            "",
            "internal error: relator does not close on the final table\n",
        )

    @pytest.mark.parametrize("p,mib", ENUMERATION_PEAKS, ids=["H4", "A6"])
    def test_memory_peak(self, p, mib):
        assert enumeration_peak(p) < mib * 2**20

    @pytest.mark.parametrize(
        "p,mib", INDEX_PEAKS, ids=["H4", "A6", "H4-in-place", "A6-in-place"]
    )
    def test_index_memory_peak(self, p, mib):
        peaks = reader_peaks(p)
        assert peaks[coset_index] <= peaks[enumerate_cosets]
        assert peaks[coset_index] < mib * 2**20


def assert_spare_slots(table):
    # what the walk through gaps needs: every slot from len(parent) on holds
    # -1 and there is at least one, so column[-1] is -1; block growth stops
    # at max_cosets + 1 slots
    n = len(table.parent)
    for column in table.columns:
        assert n < len(column) <= table.max_cosets + 1
        assert column[n:] == [-1] * (len(column) - n)


class TestLiveRowsAfterCoincidence:
    """The scans read table entries without resolving them, which is sound
    only if no live row references a dead coset once `coincidence` returns.
    The forward walks run through gaps unchecked, which is sound only if
    every slot past the last coset holds -1."""

    # TRIANGLE_237 met 133 coincidences at 2000 while its involution had two
    # columns, and meets none with one; F(2,7) overflows there after 360
    @pytest.mark.parametrize(
        "p,max_cosets",
        [(A5, 60000), (F4, 60000), (FIBONACCI_27, 2000)],
    )
    def test_no_live_row_references_a_dead_coset(self, monkeypatch, p, max_cosets):
        calls = []
        coincidence = CosetTable.coincidence

        def checked(self, a, b):
            coincidence(self, a, b)
            calls.append((a, b))
            parent = self.parent
            for c in range(len(parent)):
                if parent[c] == c:
                    for e in (column[c] for column in self.columns):
                        assert e < 0 or parent[e] == e, (c, e)
            assert_spare_slots(self)

        monkeypatch.setattr(CosetTable, "coincidence", checked)
        enumerate_cosets(p, (), max_cosets)
        assert calls

    def test_live_rows_stay_consistent_on_random_inputs(self, monkeypatch):
        # after each coincidence every entry of a live row is a live coset
        # whose inverse entry leads back, and no pass ends with a gap in a
        # live row; 3000 such inputs at bound 300 and 2 x 40000 at bound 2000
        # never needed a second pass (the `while live is None` loop stays as
        # a guard)
        rng = random.Random(34)
        calls, passes = [], []
        coincidence, complete = CosetTable.coincidence, CosetTable.complete

        def checked(self, a, b):
            coincidence(self, a, b)
            calls.append((a, b))
            parent, columns = self.parent, self.columns
            for c in range(len(parent)):
                if parent[c] == c:
                    for k, column in enumerate(columns):
                        d = column[c]
                        if d >= 0:
                            assert parent[d] == d and columns[k ^ 1][d] == c, (c, k)

        def word(ngens, lo, hi):
            size = rng.randint(lo, hi)
            return Word(rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(size))

        def counted(self):
            live = complete(self)
            passes.append(live is not None)
            return live

        monkeypatch.setattr(CosetTable, "coincidence", checked)
        monkeypatch.setattr(CosetTable, "complete", counted)
        for _ in range(400):
            ngens = rng.randint(2, 3)
            relators = [word(ngens, 2, 12) for _ in range(rng.randint(1, 4))]
            subgroup = [word(ngens, 1, 4) for _ in range(rng.randint(0, 2))]
            coset_index(Presentation("xyz"[:ngens], relators), subgroup, 300)
        assert len(calls) > 500 and passes and all(passes)

    @pytest.mark.parametrize(
        "p,subgroup,max_cosets,order",
        [
            (A5, (), 60000, 720),
            # <s0 s1> has order 5: the first scan, from coset 0, defines
            (H4, [Word([1, 2])], 60000, 2880),
            (TRIANGLE_237, (), 2000, None),
        ],
        ids=["A5", "H4-subgroup", "237-overflow"],
    )
    def test_spare_slot_after_each_scan(
        self, monkeypatch, p, subgroup, max_cosets, order
    ):
        calls = []  # (start, cosets defined) after each scan
        scan_and_fill = CosetTable.scan_and_fill

        def checked(self, start, words):
            try:
                scan_and_fill(self, start, words)
            finally:
                calls.append((start, len(self.parent)))
                assert_spare_slots(self)

        monkeypatch.setattr(CosetTable, "scan_and_fill", checked)
        outcome = enumerate_cosets(p, subgroup, max_cosets)
        assert outcome.order == order
        # the subgroup words are scanned from coset 0 first, defining if any
        assert calls[0][0] == calls[1][0] == 0 and len(calls) > 2
        assert (calls[0][1] > 1) == bool(subgroup)


class TestBlockGrowth:
    """Columns grow by a block of -1 slots, only when a new coset takes the
    last slot, and never past max_cosets + 1 slots; HLT defines the same
    cosets and overflows at the same bound as with one slot per coset."""

    @pytest.mark.parametrize("max_cosets", [1, 2, len(BLOCK), len(BLOCK) + 1])
    @pytest.mark.parametrize("n", [1, 2, len(BLOCK) - 1, len(BLOCK), len(BLOCK) + 1])
    def test_bound_edges(self, monkeypatch, n, max_cosets):
        grown = []
        define = CosetTable.define

        def checked(self, column, inverse, c):
            d = len(self.parent)
            if d + 1 < len(column):
                return define(self, column, inverse, c)
            # the new coset d takes the last slot of every column
            assert {len(col) for col in self.columns} == {d + 1}
            try:
                define(self, column, inverse, c)
            except _TableOverflow:
                # at the bound, before anything is written
                assert d == self.max_cosets and len(self.parent) == d
                assert column[c] == -1 and inverse[d] == -1
                raise
            grown.append(d)
            for col in self.columns:
                assert d + 2 <= len(col) <= self.max_cosets + 1
                assert col[d + 1 :] == [-1] * (len(col) - d - 1)
            assert column[c] == d and inverse[d] == c
            return d

        monkeypatch.setattr(CosetTable, "define", checked)
        outcome = assert_matches_seed(cyclic(n), (), max_cosets)
        # <x | x^n> defines exactly n cosets
        assert outcome.order == (n if max_cosets >= n else None)
        # the first growth is at coset 1, then one a block
        assert grown == list(range(1, min(n, max_cosets), len(BLOCK)))

    @pytest.mark.parametrize(
        "max_cosets,order",
        [(1, None), (2, None), (len(BLOCK), 1024), (len(BLOCK) + 1, 1024)],
    )
    def test_two_generators_at_the_edges(self, max_cosets, order):
        outcome = assert_matches_seed(dihedral(512), (), max_cosets)
        assert outcome.order == order


Z2 = Presentation.parse("< x, y | xyXY >")


def rotated(p, k):
    """p with each relator rotated left by k letters, as the bench relabels
    and rotates its ladder: a conjugate relator, so the same group."""
    rels = [Word(r.letters[k % len(r) :] + r.letters[: k % len(r)]) for r in p.relators]
    return Presentation(p.generators, rels)


def assert_index_matches(p, subgroup, max_cosets):
    """coset_index agrees with enumerate_cosets: the same order, None where
    that is not finite, and the same exception where that raises."""
    try:
        order = enumerate_cosets(p, subgroup, max_cosets).order
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            coset_index(p, subgroup, max_cosets)
        return exc
    assert coset_index(p, subgroup, max_cosets) == order
    return order


class TestCosetIndex:
    """coset_index reads the index off the replayed columns that
    enumerate_cosets turns into rows; it must report that reader's order."""

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize(
        "name,rank,m,order", COXETER_CORPUS, ids=[c[0] for c in COXETER_CORPUS]
    )
    def test_coxeter_ladder(self, name, rank, m, order, k):
        assert assert_index_matches(rotated(coxeter(rank, m), k), (), 60000) == order

    @pytest.mark.parametrize(
        "p,max_cosets",
        [(Z2, 2000), (TRIANGLE_237, 2000), (TRIANGLE_237, 60000), (cyclic(9), 8)],
    )
    def test_overflow(self, p, max_cosets):
        assert assert_index_matches(p, (), max_cosets) is None

    @pytest.mark.parametrize(
        "p,subgroup,order",
        [
            (H4, [Word([1, 2])], 2880),
            (dihedral(6), [Word([1])], 2),
            (Z2, [Word([1]), Word([2])], 1),
            (Z2, [Word([1])], None),
            (QUATERNION_8, [Word([1])], 2),
            (cyclic(6), [Word([1, 1])], 2),
        ],
    )
    def test_subgroup_words(self, p, subgroup, order):
        assert assert_index_matches(p, subgroup, 60000) == order

    @pytest.mark.parametrize(
        "name,rank,m,order", COXETER_CORPUS, ids=[c[0] for c in COXETER_CORPUS]
    )
    def test_overflow_edge(self, name, rank, m, order):
        p = coxeter(rank, m)
        assert assert_index_matches(p, (), COSETS_DEFINED[name]) == order
        assert assert_index_matches(p, (), COSETS_DEFINED[name] - 1) is None

    def test_no_generators(self):
        p = Presentation.parse("< | >")
        assert assert_index_matches(p, (), 1) == 1
        assert assert_index_matches(Presentation([], [Word()]), (), 10) == 1

    @pytest.mark.parametrize(
        "p,subgroup,max_cosets",
        [(Z2, (), 0), (Z2, (), MAX_TABLE_ENTRIES), (Z2, [Word([3])], 10)],
    )
    def test_refusals(self, p, subgroup, max_cosets):
        assert isinstance(assert_index_matches(p, subgroup, max_cosets), ValueError)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(word_on(n, 8), max_size=3),
                st.lists(word_on(n, 3), max_size=2),
                st.sampled_from([1, 2, 3, 7, 20, 50, 200, 400]),
            )
        )
    )
    def test_random_presentations(self, case):
        n, relators, subgroup, max_cosets = case
        p = Presentation(list("xyz"[:n]), relators)
        assert_index_matches(p, subgroup, max_cosets)

    @pytest.mark.parametrize(
        "argv",
        [
            ["enum", "<x | x^3>"],
            ["enum", "<x, y | xyXY>", "--max", "50", "--json"],
            ["enum", "<x, y | x^6, y^2, xyxy>", "--subgroup", "x, y^2"],
            ["enum", "<a, b | a^2, b^3, ababababababab>", "--max", "300"],
        ],
    )
    def test_enum_reads_only_the_index(self, monkeypatch, capsys, argv):
        expected = main(argv), capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("enum built the rows")

        monkeypatch.setattr(gluckknot.coset, "enumerate_cosets", refuse)
        assert (main(argv), capsys.readouterr()) == expected
        monkeypatch.setattr(gluckknot.coset, "coset_index", refuse)
        assert main(argv) == 3



class TestAbelianShortcut:
    """An infinite abelianized quotient proves the index infinite, so the
    overflow outcome comes back before any coset table is built."""

    @pytest.mark.parametrize("max_cosets", [1, 2000, 10**6])
    @pytest.mark.parametrize(
        "p,subgroup",
        [
            (Z2, ()),
            (Presentation.parse("< x | >"), ()),
            (family_presentation(0, 0), ()),
            (family_presentation(0, 1), ()),
            (family_presentation(1, 0), ()),
            (family_presentation(1, 1), ()),
            (Z2, ("x",)),
        ],
    )
    def test_overflow_without_a_table(self, monkeypatch, p, subgroup, max_cosets):
        def refuse(self, ngens, max_cosets, twins):
            raise AssertionError("a coset table was built")

        monkeypatch.setattr(CosetTable, "__init__", refuse)
        words = [p.word(w) for w in subgroup]
        outcome = enumerate_cosets(p, words, max_cosets)
        assert outcome == (False, None, max_cosets, None)

    @pytest.mark.parametrize(
        "p,subgroup",
        [(Presentation.parse("< | >"), ()), (Z2, ("x", "y")), (TRIANGLE_237, ())]
        + [(dihedral(n), ()) for n in range(1, 7)]
        + [(dihedral(6), ("x",)), (QUATERNION_8, ())]
        + [(coxeter(rank, m), ()) for _, rank, m, _ in COXETER_CORPUS],
    )
    def test_finite_quotient_builds_the_table(self, monkeypatch, p, subgroup):
        built = []
        init = CosetTable.__init__

        def counted(self, ngens, max_cosets, twins):
            built.append((ngens, twins))
            init(self, ngens, max_cosets, twins)

        monkeypatch.setattr(CosetTable, "__init__", counted)
        enumerate_cosets(p, [p.word(w) for w in subgroup], 60000)
        assert built == [(p.ngens, {2 * g + 1 for g in involution_generators(p)})]

    def test_checks_before_the_shortcut(self):
        with pytest.raises(ValueError, match="at least 1"):
            enumerate_cosets(Z2, (), 0)
        with pytest.raises(TableBudgetError):
            enumerate_cosets(Z2, (), MAX_TABLE_ENTRIES)
        with pytest.raises(ValueError, match="unknown generator"):
            enumerate_cosets(Z2, [Word([3])], 10)


def trace_replay(table, relators, subgroup):
    """Oracle: the per-coset replay that the column-wise one replaced."""

    def trace(c, cols):
        for col in cols:
            c = table[c][col]
        return c

    relator_cols = [[letter_column(a) for a in r.letters] for r in relators]
    for c in range(len(table)):
        for cols in relator_cols:
            if trace(c, cols) != c:
                raise AssertionError("relator does not close on the final table")
    for w in subgroup:
        if trace(0, [letter_column(a) for a in w.letters]) != 0:
            raise AssertionError("subgroup word moves the base coset")


def replay_rows(table, relators, subgroup):
    """`_replay` on a table given by its rows, as `trace_replay` reads it."""
    _replay(list(zip(*table)), range(len(table)), relators, subgroup)


def accepts(replay, table, relators, subgroup):
    try:
        replay(table, relators, subgroup)
    except AssertionError:
        return False
    return True


class TestColumnReplay:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(word_on(n, 8), min_size=1, max_size=3),
                st.lists(word_on(n, 3), max_size=1),
                st.lists(word_on(n, 6), max_size=2),
                st.randoms(use_true_random=False),
            )
        )
    )
    def test_agrees_with_per_coset_oracle(self, case):
        n, relators, subgroup, extra, rng = case
        p = Presentation(list("xyz"[:n]), relators)
        outcome = enumerate_cosets(p, subgroup, 200)
        if not outcome.finite:
            return
        table = [list(row) for row in outcome.table]
        # valid as enumerated; the extra words need not close on it
        for words in (p.relators, list(p.relators) + extra):
            assert accepts(replay_rows, table, words, subgroup) == accepts(
                trace_replay, table, words, subgroup
            )
        # one entry corrupted, within the range of coset numbers
        c = rng.randrange(len(table))
        col = rng.randrange(2 * n)
        table[c][col] = rng.randrange(len(table))
        for sub in (subgroup, extra):
            assert accepts(replay_rows, table, p.relators, sub) == accepts(
                trace_replay, table, p.relators, sub
            )

    def test_rejection_raises_assertion_error(self):
        p = dihedral(3)
        table = [list(row) for row in enumerate_cosets(p, (), 100).table]
        table[0][0] = 0 if table[0][0] else 1
        with pytest.raises(AssertionError, match="relator does not close"):
            _replay(list(zip(*table)), range(len(table)), p.relators, ())
        q = cyclic(6)
        table = enumerate_cosets(q, (), 100).table
        with pytest.raises(AssertionError, match="moves the base coset"):
            _replay(list(zip(*table)), range(len(table)), q.relators, [q.word("x")])

    def test_one_coset(self):
        # gathering one coset, where itemgetter alone would return a bare int
        p = Presentation.parse("< x, y | x^2y, xy >")
        outcome = enumerate_cosets(p, [p.word("xY")], 10)
        assert outcome.table == ((0, 0, 0, 0),)
        _replay(((0,), (0,), (0,), (0,)), range(1), p.relators, [p.word("xY")])
        with pytest.raises(AssertionError):
            _replay(((1, 0), (1, 0)), range(2), [Word([1, 1, 1])], ())


if __name__ == "__main__":
    # each tracemalloc peak that TestFinalTable bounds, its tightest bound
    # and the room left under that bound
    print("MiB\tbound\troom\treader")
    for name, p in (("H4", H4), ("A6", A6)):
        peaks = {enumerate_cosets: enumeration_peak(p)}
        peaks[coset_index] = reader_peaks(p)[coset_index]
        readers = (enumerate_cosets, ENUMERATION_PEAKS), (coset_index, INDEX_PEAKS)
        for run, bounds in readers:
            bound = min(mib for q, mib in bounds if q is p)
            mib = peaks[run] / 2**20
            print(f"{mib:.2f}\t{bound}\t{bound - mib:.2f}\t{run.__name__} {name}")
