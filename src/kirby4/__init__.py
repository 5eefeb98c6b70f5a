"""kirby4: exact homeomorphism decision for closed, simply connected,
topological 4-manifolds presented as framed links with unimodular linking
matrix.

The decision computes and compares two complete invariants: the
intersection form (the linking matrix, up to integral congruence) and the
Kirby-Siebenmann invariant (from the Arf invariant of a band sum of the
characteristic sublink).  All arithmetic is exact.

The form classifier lives at kirby4.forms.classify; the top-level
homeomorphism procedures live in the kirby4.classify module.
"""

from .classify import (
    Verdict,
    homeomorphic_oriented,
    homeomorphic_unoriented,
)
from .diagram import (
    FramedLink,
    crossing_sign,
    linking_matrix,
    mirror,
    parse_framed_link,
)
from .errors import (
    InputError,
    InternalInvariantViolation,
    KirbyError,
    ResourceLimitExceeded,
)
from .forms import (
    FormClass,
    characteristic_vector,
    congruent,
    congruent_definite,
    congruent_indefinite,
    diagonalize_over_Q,
)
from .invariants import ManifoldInvariants, intersection_form, kirby_siebenmann
from .knot import (
    alexander_at_minus_one,
    alexander_polynomial,
    arf_invariant,
    band_sum,
    characteristic_sublink,
)
from .matrices import SymIntMatrix

__version__ = "0.1.0"

__all__ = [
    "FormClass",
    "FramedLink",
    "InputError",
    "InternalInvariantViolation",
    "KirbyError",
    "ManifoldInvariants",
    "ResourceLimitExceeded",
    "SymIntMatrix",
    "Verdict",
    "alexander_at_minus_one",
    "alexander_polynomial",
    "arf_invariant",
    "band_sum",
    "characteristic_sublink",
    "characteristic_vector",
    "congruent",
    "congruent_definite",
    "congruent_indefinite",
    "crossing_sign",
    "diagonalize_over_Q",
    "homeomorphic_oriented",
    "homeomorphic_unoriented",
    "intersection_form",
    "kirby_siebenmann",
    "linking_matrix",
    "mirror",
    "parse_framed_link",
]
