import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gluckknot.words import (
    MAX_WORD_LETTERS,
    Presentation,
    PresentationError,
    Word,
    WordSyntaxError,
    free_reduce,
    parse_word,
    word_to_str,
)

XY = ("x", "y")


def w(text, gens=XY):
    return parse_word(text, gens)


letters_st = st.lists(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda g: st.sampled_from([g, -g])
    ),
    max_size=64,
)
word_st = letters_st.map(Word)


class TestParse:
    def test_basic_letters(self):
        assert w("xyxY").letters == (1, 2, 1, -2)

    def test_cancelling_pair(self):
        assert w("xX").is_identity()

    def test_odd_odd_relator_caret_form(self):
        assert w("xyxyx^-1y^-1xy^-1x^-1y^-1") == w("xyxyXYxYXY")
        assert len(w("xyxyXYxYXY")) == 10

    def test_caret_exponents_expand(self):
        assert w("x^3") == w("xxx")
        assert w("x^-2") == w("XX")
        assert w("x^0").is_identity()

    def test_unknown_generator(self):
        with pytest.raises(WordSyntaxError):
            w("xz")

    def test_syntax_error_position(self):
        with pytest.raises(WordSyntaxError) as err:
            w("xy*")
        assert err.value.position == 2

    def test_word_length_cap(self):
        tracemalloc.start()
        try:
            with pytest.raises(WordSyntaxError, match="longer than"):
                w("x^99999999999")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the run is refused before it is allocated
        with pytest.raises(WordSyntaxError, match="longer than"):
            w("y^-" + "9" * 5000)  # more digits than int() converts
        assert len(w(f"y^{MAX_WORD_LETTERS}")) == MAX_WORD_LETTERS
        with pytest.raises(WordSyntaxError, match="longer than"):
            w(f"xy^{MAX_WORD_LETTERS}")

    def test_exponent_digits_are_ascii(self):
        with pytest.raises(WordSyntaxError, match="missing exponent"):
            w("x^\u00b2")

    def test_missing_exponent(self):
        with pytest.raises(WordSyntaxError):
            w("x^")

    @given(word_st)
    def test_print_parse_roundtrip(self, word):
        gens = ("a", "b", "c")
        if word.is_identity():
            return
        assert parse_word(word_to_str(word, gens), gens) == word


class TestGroupOps:
    def test_multiply_cancels_middle(self):
        assert w("xy") * w("Yx") == w("xx")

    def test_inverse_law(self):
        word = w("xyxYXyx")
        assert (word * ~word).is_identity()

    def test_invert_example(self):
        assert ~w("xyX") == w("xYX")

    def test_invert_empty(self):
        assert ~Word() == Word()

    @given(word_st)
    def test_invert_involutive(self, word):
        assert ~~word == word

    @given(word_st, word_st, word_st)
    def test_multiply_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(word_st, word_st)
    def test_invert_antihomomorphism(self, a, b):
        assert ~(a * b) == (~b) * (~a)

    @given(word_st, word_st)
    def test_exponent_sums_homomorphism(self, a, b):
        sa = a.exponent_sums(3)
        sb = b.exponent_sums(3)
        assert (a * b).exponent_sums(3) == tuple(x + y for x, y in zip(sa, sb))

    def test_exponent_sums_examples(self):
        assert w("xyxYXyxyXY").exponent_sums(2) == (1, 1)
        assert w("xyxYXYxyXY").exponent_sums(2) == (1, -1)
        assert Word().exponent_sums(2) == (0, 0)

    def test_power(self):
        assert w("xy") ** 3 == w("xyxyxy")
        assert w("xy") ** -1 == w("YX")
        assert w("xy") ** 0 == Word()


def reduce_random_order(letters, rng):
    """Oracle reducer: cancel a randomly chosen adjacent inverse pair until
    no pair remains."""
    letters = list(letters)
    while True:
        pairs = [
            i
            for i in range(len(letters) - 1)
            if letters[i] == -letters[i + 1]
        ]
        if not pairs:
            return tuple(letters)
        i = rng.choice(pairs)
        del letters[i : i + 2]


class TestFreeReduction:
    def test_confluence_random_orders(self):
        rng = random.Random(7)
        for _ in range(500):
            raw = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 64))]
            expected = free_reduce(raw)
            for _ in range(4):
                assert reduce_random_order(raw, rng) == expected

    def test_reduced_is_fixed_point(self):
        word = w("xyxYXyxyXY")
        assert free_reduce(word.letters) == word.letters

    def test_cyclic_reduction(self):
        assert w("Xyxyx").cyclically_reduced() == w("yxy")
        assert w("xyX").cyclically_reduced() == w("y")


class TestPresentation:
    def test_parse_and_str_roundtrip(self):
        p = Presentation.parse("< x, y | xyxY, yx >")
        assert p.generators == ("x", "y")
        assert str(p) == "< x, y | xyxY, yx >"
        assert Presentation.parse(str(p)) == p

    def test_parse_empty(self):
        p = Presentation.parse("< | >")
        assert p.ngens == 0 and p.relators == ()
        assert Presentation.parse(str(p)) == p

    def test_duplicate_generators_rejected(self):
        with pytest.raises(PresentationError):
            Presentation.parse("< x, x | >")

    def test_out_of_range_relator_rejected(self):
        with pytest.raises(PresentationError):
            Presentation(("x",), (Word([2]),))

    def test_kill_generator_ee_x(self):
        p = Presentation.parse("< x, y | xyxYXyxyXY >")
        killed = p.kill_generator("x")
        assert killed.generators == ("y",)
        assert killed.relators == (killed.word("y"),)

    def test_kill_generator_ee_y(self):
        p = Presentation.parse("< x, y | xyxYXyxyXY >")
        killed = p.kill_generator("y")
        assert killed.generators == ("x",)
        assert killed.relators == (killed.word("x"),)

    def test_kill_last_generator(self):
        p = Presentation.parse("< x | >")
        assert p.kill_generator("x") == Presentation.parse("< | >")

    def test_kill_commutes_with_reduction(self):
        rng = random.Random(11)
        for _ in range(300):
            raw = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 40))]
            delete_then_reduce = free_reduce(a for a in raw if abs(a) != 2)
            reduce_then_delete = free_reduce(
                a for a in free_reduce(raw) if abs(a) != 2
            )
            assert delete_then_reduce == reduce_then_delete

    def test_simplify_single_relator(self):
        p = Presentation.parse("< y | y >")
        assert p.simplify() == Presentation.parse("< | >")

    def test_simplify_cascades(self):
        p = Presentation.parse("< x, y | xyxYXyxyXY, x >")
        assert p.simplify() == Presentation.parse("< | >")

    def test_simplify_fixpoint(self):
        p = Presentation.parse("< x | x^3 >")
        assert p.simplify() == p
