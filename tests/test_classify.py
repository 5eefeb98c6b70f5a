"""Homeomorphism verdicts: oriented, unoriented, smooth mode, slides."""

import pytest

from kirby4.classify import (
    FORMS_NOT_CONGRUENT,
    KS_DIFFER,
    MATCH,
    MATCH_AFTER_REVERSAL,
    homeomorphic_oriented,
    homeomorphic_unoriented,
)
from kirby4.diagram import FramedLink, mirror
from kirby4.errors import NotUnimodular
from kirby4.fixtures import corpus, e8_link, hopf_link, tie_trefoil, trefoil, unknot

from conftest import sandwich


def test_cp2_vs_chern_ks_differ():
    v = homeomorphic_oriented(unknot(1), trefoil(1))
    assert not v.homeomorphic
    assert v.reason == KS_DIFFER
    assert v.left.form.entries == v.right.form.entries == ((1,),)
    assert (v.left.ks, v.right.ks) == (0, 1)


def test_odd_indefinite_rank3_match():
    left = FramedLink.build(
        [(1, 3, 2, 4), (3, 1, 4, 2)], unknots=1, framings=[0, 0, 1]
    )
    right = FramedLink.build([], unknots=3, framings=[1, 1, -1])
    v = homeomorphic_oriented(left, right)
    assert v.homeomorphic and v.reason == MATCH
    assert (v.left.ks, v.right.ks) == (0, 0)


def test_reflexivity():
    for name, link in corpus().items():
        if name.startswith("invalid"):
            continue
        v = homeomorphic_oriented(link, link)
        assert v.homeomorphic and v.reason == MATCH, name


def test_symmetry_on_fixture_pairs():
    c = corpus()
    pairs = [
        ("cp2", "chern"),
        ("cp2", "cp2_bar"),
        ("s2xs2", "e8"),
        ("slide1_a", "slide1_b"),
        ("e8", "e8_trefoil"),
        ("clasp_12_23", "clasp_12_23_trefoil"),
    ]
    for a, b in pairs:
        assert (
            homeomorphic_oriented(c[a], c[b]).homeomorphic
            == homeomorphic_oriented(c[b], c[a]).homeomorphic
        )


def test_unoriented_cp2():
    left, right = unknot(1), unknot(-1)
    assert not homeomorphic_oriented(left, right).homeomorphic
    v = homeomorphic_unoriented(left, right)
    assert v.homeomorphic and v.reason == MATCH_AFTER_REVERSAL


def test_unoriented_analyses_the_left_link_once(monkeypatch):
    from kirby4 import classify

    calls = []
    ks = classify.kirby_siebenmann
    monkeypatch.setattr(classify, "kirby_siebenmann", lambda link: calls.append(link) or ks(link))
    v = homeomorphic_unoriented(unknot(1), unknot(-1))
    assert v.homeomorphic and v.reason == MATCH_AFTER_REVERSAL
    assert len(calls) == 3


@pytest.mark.parametrize("left,right,mirrored", [("chern", "cp2", False), ("cp2", "cp2_bar", True)])
def test_unoriented_skips_the_mirror_after_ks_differ(monkeypatch, left, right, mirrored):
    # mirroring keeps ks, so a first pass that ends in KsDiffer decides
    from kirby4 import classify

    calls = []
    monkeypatch.setattr(classify, "mirror", lambda link: calls.append(link) or mirror(link))
    c = corpus()
    v = homeomorphic_unoriented(c[left], c[right])
    assert bool(calls) == mirrored
    assert (v.homeomorphic, v.reason) == ((True, MATCH_AFTER_REVERSAL) if mirrored
                                          else (False, KS_DIFFER))


def test_unoriented_rank_mismatch():
    v = homeomorphic_unoriented(unknot(1), hopf_link(0, 0))
    assert not v.homeomorphic
    assert v.reason == FORMS_NOT_CONGRUENT


def test_link_vs_own_mirror_unoriented():
    for link in (unknot(1), trefoil(1), e8_link(), hopf_link(0, 0)):
        assert homeomorphic_unoriented(link, mirror(link)).homeomorphic


def test_handle_slide_pairs():
    c = corpus()
    for i in (1, 2, 3):
        v = homeomorphic_oriented(c[f"slide{i}_a"], c[f"slide{i}_b"])
        assert v.homeomorphic, f"slide{i}"
        assert v.left.ks == v.right.ks


def test_witness_is_a_congruence():
    c = corpus()
    v = homeomorphic_oriented(c["slide1_a"], c["slide1_b"])
    assert v.congruence_witness is not None
    a = [list(r) for r in v.congruence_witness]
    assert sandwich(a, v.left.form.rows()) == v.right.form.rows()


def test_ks_short_circuit_skips_form_comparison():
    # same definite rank-1 form but different ks: reason must be KsDiffer
    v = homeomorphic_oriented(trefoil(1), unknot(1))
    assert v.reason == KS_DIFFER
    assert v.congruence_witness is None


def test_e8_trefoil_same_manifold():
    v = homeomorphic_oriented(e8_link(), tie_trefoil(e8_link(), 0))
    assert v.homeomorphic and v.reason == MATCH


def test_fig8_and_trefoil_present_the_same_manifold():
    # different knots, same framing: both have Arf 1, so both give ks = 1
    c = corpus()
    v = homeomorphic_oriented(c["fig8_plus1"], c["chern"])
    assert v.homeomorphic and v.reason == MATCH
    assert v.left.knot_determinant == 5 and v.right.knot_determinant == 3


def test_smooth_mode():
    # smooth mode compares definite forms by classification only
    left, right = unknot(1), trefoil(1)
    v = homeomorphic_oriented(left, right, smooth=True)
    assert v.homeomorphic  # ks skipped by assertion of smoothness
    assert v.left is None and v.right is None
    # still distinguishes genuinely different forms
    v2 = homeomorphic_oriented(unknot(1), unknot(-1), smooth=True)
    assert not v2.homeomorphic
    v3 = homeomorphic_unoriented(unknot(1), unknot(-1), smooth=True)
    assert v3.homeomorphic


def test_not_unimodular_rejected():
    with pytest.raises(NotUnimodular):
        homeomorphic_oriented(unknot(2), unknot(1))
