"""Top-level homeomorphism decision for two framed-link diagrams.

Two closed, simply connected, topological 4-manifolds are
orientation-preserving homeomorphic exactly when their Kirby-Siebenmann
invariants agree and their intersection forms are congruent over the
integers.  The unoriented question reduces to running the oriented test
against the second diagram and, when ks and the signature allow a match,
against its mirror.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .diagram import FramedLink, mirror
from .forms import classify as classify_form, congruent_with_witness
from .invariants import ManifoldInvariants, intersection_form, kirby_siebenmann
from .matrices import IntRows

FORMS_NOT_CONGRUENT = "FormsNotCongruent"
KS_DIFFER = "KsDiffer"
MATCH = "Match"
MATCH_AFTER_REVERSAL = "MatchAfterReversal"


@dataclass(frozen=True)
class Verdict:
    """Decision record with the witnessing invariants."""

    homeomorphic: bool
    oriented: bool
    left: Optional[ManifoldInvariants]
    right: Optional[ManifoldInvariants]
    congruence_witness: Optional[IntRows]
    reason: str


def homeomorphic_oriented(
    left: FramedLink, right: FramedLink, *, smooth: bool = False
) -> Verdict:
    """Decide orientation-preserving homeomorphism of the presented manifolds.

    The Kirby-Siebenmann comparison runs first and short-circuits the
    potentially expensive definite-form enumeration.  With smooth=True both
    manifolds are asserted smooth: ks vanishes and definite forms are
    compared by their classification alone.
    """
    return _compare(_analyse(left, smooth), right, smooth)


def _analyse(link: FramedLink, smooth: bool):
    """The form (smooth) or the full invariant bundle of one side."""
    return intersection_form(link) if smooth else kirby_siebenmann(link)


def _compare(li, right: FramedLink, smooth: bool) -> Verdict:
    """The oriented decision against `right`, given the left side's analysis."""
    if smooth:
        # Definite forms of smooth manifolds are diagonalizable over the
        # integers, so rank, signature and parity decide congruence without
        # enumeration.
        ok = classify_form(li) == classify_form(intersection_form(right))
        return Verdict(ok, True, None, None, None, MATCH if ok else FORMS_NOT_CONGRUENT)
    ri = kirby_siebenmann(right)
    if li.ks != ri.ks:
        return Verdict(False, True, li, ri, None, KS_DIFFER)
    ok, witness = congruent_with_witness(li.form, ri.form)
    reason = MATCH if ok else FORMS_NOT_CONGRUENT
    return Verdict(ok, True, li, ri, witness, reason)


def homeomorphic_unoriented(
    left: FramedLink, right: FramedLink, *, smooth: bool = False
) -> Verdict:
    """Decide homeomorphism disregarding orientations.

    Runs the oriented test as given, then against the mirror of the second
    diagram when that can match, analysing the first diagram once for both
    passes; the reason records which pass matched.  Mirroring keeps ks and
    negates sigma, so the mirror pass runs only when ks agree and
    sigma(left) = -sigma(right) != 0; at sigma = 0, -N matches exactly when
    N does.  With smooth=True it runs whenever the first pass fails.
    """
    li = _analyse(left, smooth)
    first = _compare(li, right, smooth)
    ri = first.right  # None when smooth
    if first.homeomorphic or ri is not None and not (
            li.ks == ri.ks and 0 != li.signature == -ri.signature):
        return replace(first, oriented=False)
    second = _compare(li, mirror(right), smooth)
    if second.homeomorphic:
        return replace(second, oriented=False, reason=MATCH_AFTER_REVERSAL)
    return replace(first, oriented=False)
