import pytest

from gluckknot.coset import certify_trivial
from gluckknot.laurent import LaurentPolynomial, unit_equivalent
from gluckknot.twoknot import (
    GluckVariant,
    HandleCounts,
    InvalidRibbonError,
    ParityClass,
    RibbonTwoKnot,
    classify,
    complement_handle_counts,
    complement_presentation,
    delta_classes,
    delta_equivalent,
    distinct,
    family_knot,
    family_presentation,
    family_record,
    family_relator,
    gluck_handle_counts,
    gluck_quotient,
    spun_obstruction,
    SpunObstruction,
)
from gluckknot.words import Presentation, PresentationError, parse_word

L = LaurentPolynomial.parse


class TestHandleCounts:
    def test_figure_counts(self):
        assert complement_handle_counts(1, 1).as_tuple() == (1, 2, 2, 2, 1)

    def test_examples(self):
        assert complement_handle_counts(2, 1).as_tuple() == (1, 3, 3, 2, 1)
        assert complement_handle_counts(1, 3).as_tuple() == (1, 2, 4, 4, 1)

    def test_complement_euler_zero(self):
        for m in range(1, 51):
            for n in range(1, 51):
                assert complement_handle_counts(m, n).euler_characteristic == 0

    def test_band_minimum(self):
        with pytest.raises(InvalidRibbonError):
            complement_handle_counts(0, 1)

    def test_single_blow_down(self):
        c = complement_handle_counts(1, 1)
        assert gluck_handle_counts(c, GluckVariant.SINGLE).as_tuple() == (1, 1, 2, 1, 1)

    def test_single_blow_down_no_one_handles(self):
        # m = 1 admits a decomposition without 1-handles after the twist
        c = complement_handle_counts(1, 2)
        out = gluck_handle_counts(c, GluckVariant.SINGLE)
        assert out.h1 == 1
        c11 = complement_handle_counts(1, 1)
        assert gluck_handle_counts(c11, GluckVariant.SINGLE).h1 == 1

    def test_double_blow_down(self):
        c = complement_handle_counts(1, 1)
        assert gluck_handle_counts(c, GluckVariant.DOUBLE).as_tuple() == (1, 0, 2, 2, 1)

    def test_gluck_euler_two(self):
        for m in range(1, 51):
            for n in range(1, 51):
                c = complement_handle_counts(m, n)
                for variant in GluckVariant:
                    assert gluck_handle_counts(c, variant).euler_characteristic == 2

    def test_rejects_non_complement_counts(self):
        with pytest.raises(InvalidRibbonError):
            gluck_handle_counts(HandleCounts(1, 1, 1, 1, 1), GluckVariant.SINGLE)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            HandleCounts(1, -1, 0, 0, 1)
        with pytest.raises(ValueError):
            HandleCounts(h0=1, h1=1, h2=0, h3=0, h4=-2)
        with pytest.raises(ValueError):
            HandleCounts(1, 1, 1, 1, 1)._replace(h2=-1)
        with pytest.raises(ValueError):
            HandleCounts._make((1, 1, -1, 1, 1))

    def test_record_semantics(self):
        c = HandleCounts(1, 2, 2, 2, 1)
        assert c == HandleCounts(h0=1, h1=2, h2=2, h3=2, h4=1) == (1, 2, 2, 2, 1)
        assert hash(c) == hash((1, 2, 2, 2, 1))
        assert repr(c) == "HandleCounts(h0=1, h1=2, h2=2, h3=2, h4=1)"
        assert str(c) == "(1,2,2,2,1)"
        assert c._replace(h2=3).euler_characteristic == 1
        with pytest.raises(AttributeError):
            c.h0 = 5
        with pytest.raises(AttributeError):
            c.extra = 5


class TestParity:
    def test_classes(self):
        assert ParityClass.of(0, 0) is ParityClass.EVEN_EVEN
        assert ParityClass.of(1, 1) is ParityClass.ODD_ODD
        assert ParityClass.of(3, -2) is ParityClass.ODD_EVEN
        assert ParityClass.of(-4, 7) is ParityClass.EVEN_ODD
        assert ParityClass.of(-3, -3) is ParityClass.ODD_ODD

    def test_relator_depends_only_on_parity(self):
        for p in range(-5, 6):
            for q in range(-5, 6):
                assert family_relator(p, q) == family_relator(p % 2, q % 2)

    def test_relator_golden_words(self):
        gens = ("x", "y")
        assert family_relator(0, 0) == parse_word("xyxYXyxyXY", gens)
        assert family_relator(1, 1) == parse_word("xyxyXYxYXY", gens)
        assert family_relator(3, -2) == parse_word("xyxYXYxyXY", gens)


class TestRibbonModel:
    def test_family_presentation(self):
        p = family_presentation(0, 0)
        assert p == Presentation.parse("< x, y | xyxYXyxyXY >")

    def test_h1_is_z_for_family(self):
        for pq in [(0, 0), (1, 1), (1, 0), (0, 1)]:
            assert classify(*pq).h1.is_infinite_cyclic()

    def test_trivial_relators_rejected(self):
        with pytest.raises(InvalidRibbonError):
            complement_presentation(
                RibbonTwoKnot(
                    label="bad",
                    lower_bands=1,
                    upper_bands=1,
                    generators=("x", "y"),
                    complement_relators=(parse_word("xyXY", ("x", "y")),),
                    meridian_generators=("x",),
                )
            )

    def test_validation_on_replace(self):
        k = family_knot(0, 0)
        assert k._replace(label="renamed").label == "renamed"
        with pytest.raises(InvalidRibbonError):
            k._replace(lower_bands=0)
        with pytest.raises(InvalidRibbonError):
            k._replace(meridian_generators=("z",))
        with pytest.raises(AttributeError):
            k.label = "renamed"

    def test_generator_count_enforced(self):
        with pytest.raises(InvalidRibbonError):
            RibbonTwoKnot(
                label="bad",
                lower_bands=2,
                upper_bands=1,
                generators=("x", "y"),
                complement_relators=(parse_word("x", ("x", "y")),),
                meridian_generators=("x",),
            )

    def test_gluck_quotient_kills_meridian(self):
        k = family_knot(0, 0)
        q = gluck_quotient(k, "x")
        assert q == Presentation.parse("< y | y >")
        q = gluck_quotient(k, "y")
        assert q == Presentation.parse("< x | x >")

    def test_gluck_quotient_non_meridian_rejected(self):
        k = RibbonTwoKnot(
            label="k",
            lower_bands=1,
            upper_bands=1,
            generators=("x", "y"),
            complement_relators=(family_relator(0, 0),),
            meridian_generators=("x",),
        )
        with pytest.raises(PresentationError):
            gluck_quotient(k, "y")

    def test_gluck_quotients_all_trivial(self):
        for pq in [(0, 0), (1, 1), (1, 0), (0, 1)]:
            k = family_knot(*pq)
            for meridian in ("x", "y"):
                cert = certify_trivial(gluck_quotient(k, meridian), 100)
                assert cert.trivial


class TestClassification:
    def test_three_delta_classes(self):
        pairs = [(p, q) for p in range(-2, 3) for q in range(-2, 3)]
        classes = delta_classes(pairs)
        assert len(classes) == 3

    def test_distinct_parities_distinct(self):
        assert distinct((0, 0), (1, 1))
        assert distinct((0, 0), (1, 0))
        assert distinct((1, 1), (0, 1))

    def test_mixed_parities_merge_by_reciprocal(self):
        a = classify(1, 0).alexander.polynomial
        b = classify(0, 1).alexander.polynomial
        assert not unit_equivalent(a, b)
        assert delta_equivalent(a, b)
        assert not distinct((1, 0), (0, 1))

    def test_delta_classes_match_per_pair_oracle(self):
        pairs = [(p, q) for p in range(-5, 6) for q in range(-5, 6)]
        # oracle: one classify per pair, each polynomial compared to the
        # representatives found so far
        expected = []
        for pq in pairs:
            d = classify(*pq).alexander.polynomial
            for rep, members in expected:
                if delta_equivalent(d, rep):
                    members.append(pq)
                    break
            else:
                expected.append((d, [pq]))
        assert delta_classes(pairs) == expected
        assert [distinct(pq, (0, 1)) for pq in pairs] == [
            not delta_equivalent(
                classify(*pq).alexander.polynomial,
                classify(0, 1).alexander.polynomial,
            )
            for pq in pairs
        ]

    def test_same_parity_same_delta(self):
        assert classify(2, 4).alexander.polynomial == classify(0, 0).alexander.polynomial
        assert not distinct((2, 4), (0, 0))


class TestSpunObstruction:
    def test_even_even_possible(self):
        assert spun_obstruction(L("t^2-3t+1")) is SpunObstruction.POSSIBLY_ONE_KNOT

    def test_mixed_not_one_knot(self):
        assert spun_obstruction(L("2-2t+t^2")) is SpunObstruction.NOT_ONE_KNOT

    def test_odd_odd_not_one_knot(self):
        assert spun_obstruction(L("1-t+2t^2-t^3")) is SpunObstruction.NOT_ONE_KNOT

    def test_symmetric_but_wrong_determinant(self):
        # palindromic yet |d(1)| != 1
        assert spun_obstruction(L("t^2+t+1")) is SpunObstruction.NOT_ONE_KNOT

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            spun_obstruction(LaurentPolynomial.zero())


class TestFamilyRecord:
    def test_record_schema(self):
        record = family_record(1, 0)
        assert record["parity"] == "odd-even"
        assert record["gluck_pi1"] == "trivial"
        assert record["h1"] == "Z"
        assert record["delta_principal"] is True
        assert record["spun_obstruction"] == "not-one-knot"
        assert record["handle_counts"]["complement"] == [1, 2, 2, 2, 1]
        assert record["handle_counts"]["gluck_single"] == [1, 1, 2, 1, 1]
        assert record["handle_counts"]["gluck_double"] == [1, 0, 2, 2, 1]
        assert unit_equivalent(L(record["delta"]), L("2-2t+t^2"))

    def test_record_deterministic(self):
        assert family_record(0, 1) == family_record(0, 1)
