"""Sublinks, band sums, Alexander evaluation, Arf."""

import itertools
import random
from fractions import Fraction

import pytest

from kirby4.diagram import FramedLink, linking_matrix, mirror
from kirby4.errors import LengthMismatch, MalformedInput, NotAKnot
from kirby4.forms import characteristic_vector
from kirby4.fixtures import (
    FIGURE_EIGHT_PD,
    TREFOIL_PD,
    clasp_link,
    corpus,
    e8_link,
    hopf_link,
    insert_kink,
    split_union,
    tie_trefoil,
    trefoil,
)
from kirby4.knot import (
    alexander_at_minus_one,
    alexander_polynomial,
    arf_invariant,
    band_sum,
    characteristic_sublink,
)

from conftest import (
    S,
    pd_face_count,
    pd_piece_count,
    wirtinger_determinant_recount,
    wirtinger_minor_at,
)

TREFOIL = FramedLink.build(TREFOIL_PD, framings=[0])
FIG8 = FramedLink.build(FIGURE_EIGHT_PD, framings=[0])
UNKNOT = FramedLink.build([], unknots=1, framings=[0])

# Odd framings that make a path of doubled clasps unimodular; with even
# off-diagonal entries the whole link is characteristic.
CHAIN_FRAMINGS = [(1, 1, 3, 1), (1, 1, 1, 3, 3), (1, 1, 1, 3, -1, -1)]
LONG_CHAIN_FRAMINGS = [(1, 1, 1, 3, -1, 3, 1), (1, 1, 1, 1, 1, 3, 3, 3),
                       (1, 3, 1, 1, 3, 1, 3, 3, 1, 1, 3, 1),
                       (1, 5, 5, 5, 5, 5, 5, 5, 5, 3, 3, 1, 5, 3, -3, 3, 5, 1)]


def mirror_knot(k):
    """Swap over and under at every crossing of a knot diagram, revalidated."""
    return FramedLink.build(mirror(k).crossings, framings=[0])


def chain_link(framings):
    n = len(framings)
    rows = [[0] * n for _ in range(n)]
    for i, f in enumerate(framings):
        rows[i][i] = f
        if i + 1 < n:
            rows[i][i + 1] = rows[i + 1][i] = 2 * (-1) ** i
    return clasp_link(S(rows))


def chain_sublinks(framing_list=CHAIN_FRAMINGS):
    for framings in framing_list:
        link = chain_link(framings)
        for variant in (link, tie_trefoil(link, 0)):
            c = characteristic_vector(linking_matrix(variant))
            yield characteristic_sublink(variant, c)


def characteristic_band_sum(link):
    return band_sum(characteristic_sublink(link, characteristic_vector(linking_matrix(link))))


def band_variants(link):
    n = link.component_count()
    for order in (None, list(reversed(range(n))), list(range(1, n)) + [0]):
        for offset in range(3):
            yield band_sum(link, order=order, arc_offset=offset)


class TestCharacteristicSublink:
    def test_hopf_empty(self):
        sub = characteristic_sublink(hopf_link(0, 0), (0, 0))
        assert sub.component_count() == 0
        assert sub.crossings == ()

    def test_split_unknots_kept(self):
        link = FramedLink.build([], unknots=2, framings=[1, 1])
        sub = characteristic_sublink(link, (1, 1))
        assert sub.component_count() == 2
        assert sub.framings == (1, 1)

    def test_three_component_middle_deleted(self):
        # chain: comp1 - comp2 - comp3, delete the middle one
        chain = clasp_link(S([[1, 1, 0], [1, 2, 1], [0, 1, 1]]))
        assert chain.component_count() == 3
        sub = characteristic_sublink(chain, (1, 0, 1))
        assert sub.component_count() == 2
        # comps 1 and 3 only crossed comp 2, so they come back crossingless
        assert sub.crossings == ()
        assert sub.unknots == 2
        assert sub.framings == (1, 1)

    def test_sub_diagram_revalidates(self):
        cl = clasp_link(S([[1, 2], [2, 3]]))
        tied = tie_trefoil(cl, 0)
        sub = characteristic_sublink(tied, (1, 0))
        assert sub.component_count() == 1
        # the trefoil tangle survives on component 0
        assert len(sub.crossings) == 3
        assert linking_matrix(sub).entries == ((1,),)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            characteristic_sublink(hopf_link(0, 0), (1,))

    def test_entries_checked(self):
        with pytest.raises(MalformedInput):
            characteristic_sublink(hopf_link(0, 0), (2, 0))

    def test_non_integer_entries_rejected(self):
        with pytest.raises(MalformedInput):
            characteristic_sublink(hopf_link(0, 0), [1.5, 1])


def seeded_links(seed=5, count=6):
    """Clasp chains with random framings and clasps, trefoils tied in,
    kinks inserted, and split unions with the corpus."""
    rng = random.Random(seed)
    links = list(corpus().values())
    for _ in range(count):
        n = rng.randint(2, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(-3, 3)
            if i + 1 < n:
                rows[i][i + 1] = rows[i + 1][i] = rng.choice((-2, -1, 1, 2))
        link = tie_trefoil(clasp_link(S(rows)), rng.randrange(n))
        link = insert_kink(link, rng.randint(1, 2 * len(link.crossings)), rng.choice((1, -1)))
        links += [link, split_union(link, rng.choice(links))]
    return links


def sublink_vectors(link, rng):
    """Every 0/1 vector for up to four components, else a seeded sample."""
    m = link.component_count()
    if m <= 4:
        return list(itertools.product((0, 1), repeat=m))
    return [tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(12)]


class TestDerivedDiagrams:
    """Sublinks, mirrors and band sums skip validation, so they must equal
    what validating their own crossings gives."""

    def test_mirror_equals_built(self):
        for link in seeded_links():
            m = mirror(link)
            assert m == FramedLink.build(
                m.crossings, unknots=m.unknots, framings=m.framings, name=m.name
            )

    def test_sublinks_and_band_sums_equal_built(self):
        rng = random.Random(11)
        for link in seeded_links():
            for c in sublink_vectors(link, rng):
                sub = characteristic_sublink(link, c)
                assert sub == FramedLink.build(
                    sub.crossings, unknots=sub.unknots, framings=sub.framings
                ), (link.name, c)
                kc = band_sum(sub)
                if kc.crossings:
                    assert pd_face_count(kc.crossings) == len(kc.crossings) + 2
                    assert FramedLink.build(kc.crossings, framings=[0]) == kc


class TestBandSum:
    def test_empty_gives_unknot(self):
        k = band_sum(FramedLink.build([], framings=[]))
        assert k.crossings == ()
        assert arf_invariant(k) == 0

    def test_single_component_unchanged(self):
        k = band_sum(trefoil(1))
        assert k.crossings == TREFOIL_PD

    def test_split_unknots_band_to_unknot(self):
        link = FramedLink.build([], unknots=2, framings=[1, 1])
        k = band_sum(link)
        assert alexander_at_minus_one(k) == 1
        assert arf_invariant(k) == 0

    def test_hopf_bands_to_unknot(self):
        k = band_sum(hopf_link(0, 0))
        assert alexander_at_minus_one(k) == 1
        assert arf_invariant(k) == 0

    def test_split_trefoils_band_to_connected_sum(self):
        # trefoil # trefoil: determinant 9, Arf 1+1 = 0
        xs = list(TREFOIL_PD) + [tuple(a + 6 for a in t) for t in TREFOIL_PD]
        link = FramedLink.build(xs, framings=[0, 0])
        k = band_sum(link)
        assert alexander_at_minus_one(k) == 9
        assert arf_invariant(k) == 0

    def test_trefoil_plus_unknot_keeps_arf(self):
        xs = list(TREFOIL_PD)
        link = FramedLink.build(xs, unknots=1, framings=[0, 0])
        k = band_sum(link)
        assert alexander_at_minus_one(k) == 3
        assert arf_invariant(k) == 1

    def test_banding_choices_preserve_arf(self):
        fixtures = [
            clasp_link(S([[1, 2], [2, 3]])),
            tie_trefoil(clasp_link(S([[1, 2], [2, 3]])), 0),
            hopf_link(0, 0),
        ]
        for link in fixtures:
            variants = [
                band_sum(link),
                band_sum(link, arc_offset=1),
                band_sum(link, order=list(reversed(range(link.component_count())))),
                band_sum(link, arc_offset=2),
                band_sum(link, order=[1, 0], arc_offset=1),
            ]
            arfs = {arf_invariant(k) for k in variants}
            assert len(arfs) == 1, f"banding choice changed Arf on {link.name}"

    def test_banded_diagrams_are_valid_knots(self):
        link = tie_trefoil(clasp_link(S([[1, 2], [2, 3]])), 0)
        for offset in range(4):
            k = band_sum(link, arc_offset=offset)
            rebuilt = FramedLink.build(k.crossings, framings=[0])
            assert rebuilt == k

    def test_chain_band_sums_match_recount(self):
        for sub in chain_sublinks():
            arfs = set()
            for k in band_variants(sub):
                assert alexander_at_minus_one(k) == wirtinger_determinant_recount(k.crossings)
                arfs.add(arf_invariant(k))
            assert len(arfs) == 1

    def test_each_fusion_adds_at_most_one_crossing(self):
        # A smoothing fusion adds no crossing at all, so the bound of the
        # old strand-surgery band (one crossing per fusion) holds loosely.
        for sub in chain_sublinks():
            bound = len(sub.crossings) + sub.component_count() - 1
            for k in band_variants(sub):
                assert len(k.crossings) <= bound
                assert len(k.crossings) <= len(sub.crossings)
                assert pd_face_count(k.crossings) == len(k.crossings) + 2

    def test_half_twist_taken_both_ways(self):
        # Every crossing of this clasp is positive and every crossing of its
        # mirror negative; a band that twisted on one sign would give the two
        # a different crossing count.  Smoothing needs no half-twist, so
        # every order and offset on either side drops the same one crossing.
        link = clasp_link(S([[1, 2], [2, 3]]))
        drops = set()
        for sub in (link, mirror(link)):
            for k in band_variants(sub):
                assert pd_face_count(k.crossings) == len(k.crossings) + 2
                assert alexander_at_minus_one(k) == wirtinger_determinant_recount(k.crossings)
                drops.add(len(sub.crossings) - len(k.crossings))
        assert drops == {link.component_count() - link.unknots - pd_piece_count(link.crossings)}

    def test_smoothings_give_exact_crossing_and_face_counts(self):
        # Each piece of mu_p components loses the mu_p - 1 crossings its
        # spanning tree smooths, and split fusions add none, so K_c is a
        # connected plane diagram with n - sum_p (mu_p - 1) crossings.
        split = split_union(clasp_link(S([[1, 2], [2, 3]])), trefoil(1))
        for link in [*chain_sublinks(), split]:
            for sub in (link, mirror(link)):
                drop = sub.component_count() - sub.unknots - pd_piece_count(sub.crossings)
                for k in band_variants(sub):
                    assert len(k.crossings) == len(sub.crossings) - drop
                    assert pd_face_count(k.crossings) == len(k.crossings) + 2
                    assert alexander_at_minus_one(k) == wirtinger_determinant_recount(k.crossings)

    def test_bad_order_rejected(self):
        with pytest.raises(MalformedInput):
            band_sum(hopf_link(0, 0), order=[0, 0])

    @pytest.mark.parametrize("kwargs", [
        {"order": [0.0, 1]}, {"order": ["0", 1]}, {"order": [0, None]},
        {"arc_offset": 1.0}, {"arc_offset": "1"},
    ])
    def test_non_integer_choices_rejected(self, kwargs):
        with pytest.raises(MalformedInput):
            band_sum(hopf_link(0, 0), **kwargs)


class TestAlexander:
    def test_unknot(self):
        assert alexander_at_minus_one(UNKNOT) == 1

    def test_trefoil(self):
        assert alexander_at_minus_one(TREFOIL) == 3

    def test_figure_eight(self):
        assert alexander_at_minus_one(FIG8) == 5

    def test_polynomials_up_to_units(self):
        # trefoil: t - 1 + t^{-1} up to +-t^k
        p = alexander_polynomial(TREFOIL)
        exps = sorted(p)
        assert [abs(p[e]) for e in exps] == [1, 1, 1]
        assert exps[2] - exps[0] == 2
        # figure-eight: -t + 3 - t^{-1} up to +-t^k
        q = alexander_polynomial(FIG8)
        assert sorted(abs(c) for c in q.values()) == [1, 1, 3]

    def test_matches_independent_recount(self):
        diagrams = [
            UNKNOT,
            TREFOIL,
            FIG8,
            band_sum(hopf_link(0, 0)),
            band_sum(clasp_link(S([[1, 2], [2, 3]]))),
            band_sum(tie_trefoil(clasp_link(S([[1, 2], [2, 3]])), 0)),
        ]
        for k in diagrams:
            assert alexander_at_minus_one(k) == wirtinger_determinant_recount(k.crossings)

    def test_polynomial_matches_wirtinger_oracle(self):
        # Band sums of chains of rank 4-8, 12 and 18 (up to 54 crossings) with
        # and without a tied trefoil, their mirrors, and the one-crossing
        # kinks, whose minor is 0x0.
        knots = [FramedLink.build([(1, 1, 2, 2)], framings=[0]),
                 FramedLink.build([(1, 2, 2, 1)], framings=[0])]
        for sub in chain_sublinks(CHAIN_FRAMINGS + LONG_CHAIN_FRAMINGS):
            k = band_sum(sub)
            knots += [k, mirror_knot(k)]
        assert max(len(k.crossings) for k in knots) >= 40
        for k in knots:
            p = alexander_polynomial(k)
            for t in (2, 3, -2):
                value = sum(c * Fraction(t) ** e for e, c in p.items())
                assert value == wirtinger_minor_at(k.crossings, t), (len(k.crossings), t)
            assert abs(sum(p.values())) == 1 and all(p.values())
            lo, hi = min(p), max(p)
            dense = [p.get(e, 0) for e in range(lo, hi + 1)]
            assert dense[::-1] in (dense, [-c for c in dense])

    def test_split_unions_of_long_chains_match_oracle(self):
        # Two and three copies of the rank-18 chain with a trefoil tied in:
        # band sums of 108 and 162 crossings, a connected sum of the
        # copies' band sums, so the determinant is the product of theirs.
        one = tie_trefoil(chain_link(LONG_CHAIN_FRAMINGS[-1]), 0)
        single = alexander_at_minus_one(characteristic_band_sum(one))
        link = one
        for copies in (2, 3):
            link = split_union(link, one)
            k = characteristic_band_sum(link)
            assert len(k.crossings) >= 50 * copies
            p = alexander_polynomial(k)
            for t in (2, -2):
                value = sum(c * Fraction(t) ** e for e, c in p.items())
                assert value == wirtinger_minor_at(k.crossings, t), (copies, t)
            assert abs(sum(-c if e % 2 else c for e, c in p.items())) == single ** copies

    def test_non_integer_labels_rejected(self):
        with pytest.raises(MalformedInput):
            FramedLink.build([(1.9, 4, 2.2, 5), (3, 6, 4, 1), (5, 2, 6, 3)], framings=[0])

    def test_multi_component_rejected(self):
        # The knot functions check the component count themselves: the
        # Wirtinger minor of a link is no knot invariant, and on E8 it would
        # fail the generator count as an internal error, not an input error.
        links = [hopf_link(0, 0), e8_link(), FramedLink.build([], framings=[]),
                 FramedLink.build([], unknots=2, framings=[0, 0])]
        for link in links:
            for fn in (alexander_polynomial, alexander_at_minus_one, arf_invariant):
                message = f"needs one component, got {link.component_count()}"
                with pytest.raises(NotAKnot, match=message):
                    fn(link)

    def test_determinant_odd_on_band_sums(self):
        for offset in range(3):
            k = band_sum(clasp_link(S([[1, 2], [2, 3]])), arc_offset=offset)
            assert alexander_at_minus_one(k) % 2 == 1


class TestArf:
    def test_values(self):
        assert arf_invariant(UNKNOT) == 0
        assert arf_invariant(TREFOIL) == 1
        assert arf_invariant(FIG8) == 1

    def test_mirror_invariance(self):
        for k in (TREFOIL, FIG8, band_sum(clasp_link(S([[1, 2], [2, 3]])))):
            m = mirror_knot(k)
            assert alexander_at_minus_one(m) == alexander_at_minus_one(k)
            assert arf_invariant(m) == arf_invariant(k)

    def test_additive_on_connected_sums(self):
        xs = list(TREFOIL_PD) + [tuple(a + 6 for a in t) for t in TREFOIL_PD]
        two_trefoils = FramedLink.build(xs, framings=[0, 0])
        assert arf_invariant(band_sum(two_trefoils)) == 0
        xs3 = xs + [tuple(a + 12 for a in t) for t in TREFOIL_PD]
        three_trefoils = FramedLink.build(xs3, framings=[0, 0, 0])
        assert arf_invariant(band_sum(three_trefoils)) == 1
