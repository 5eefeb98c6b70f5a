"""The two classification invariants of the 4-manifold presented by a diagram.

A framed link with unimodular linking matrix presents a closed, simply
connected, topological 4-manifold; its intersection form is the linking
matrix in the handle basis, and its Kirby-Siebenmann invariant is

    ks = Arf(K_c) + (c^T V c - signature(V)) / 8   mod 2,

where c is a 0/1 characteristic vector of V and K_c is any knot fused from
the sublink L_c of components marked by c.  L_c is a proper link, so by
Robertello's theorem every such knot, here the one `band_sum` makes by
oriented smoothings, has the same Arf invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import FramedLink, linking_matrix
from .errors import InternalInvariantViolation, NotUnimodular
from .forms import characteristic_vector, classify
from .knot import _arf_from_determinant, alexander_at_minus_one, band_sum, characteristic_sublink
from .matrices import SymIntMatrix


@dataclass(frozen=True)
class ManifoldInvariants:
    """The invariant bundle of the presented manifold."""

    form: SymIntMatrix
    ks: int
    signature: int
    characteristic: tuple[int, ...]
    arf: int
    knot_determinant: int


def intersection_form(link: FramedLink) -> SymIntMatrix:
    """The linking matrix, rejected unless it is unimodular."""
    v = linking_matrix(link)
    if not v.is_unimodular():
        raise NotUnimodular(
            f"linking matrix determinant {v.det} is not +-1;"
            " the diagram does not present a closed 4-manifold"
        )
    return v


def kirby_siebenmann(link: FramedLink) -> ManifoldInvariants:
    """Full invariant pipeline: form, characteristic vector, band sum, Arf, ks."""
    v = intersection_form(link)
    c = characteristic_vector(v)
    sub = characteristic_sublink(link, c)
    kc = band_sum(sub)
    det = alexander_at_minus_one(kc)
    arf = _arf_from_determinant(det)
    sigma = classify(v).signature
    cvc = sum(
        c[i] * v[i][j] * c[j] for i in range(v.n) for j in range(v.n)
    )
    if (cvc - sigma) % 8 != 0:
        raise InternalInvariantViolation(
            f"c^T V c - signature = {cvc - sigma} is not divisible by 8"
        )
    ks = (arf + (cvc - sigma) // 8) % 2
    return ManifoldInvariants(v, ks, sigma, c, arf, det)
