"""Exception hierarchy.

Everything caused by user-supplied data derives from InputError so the CLI
can map it to exit code 1.  InternalInvariantViolation and
ResourceLimitExceeded map to exit code 2.
"""


class KirbyError(Exception):
    """Base class for all kirby4 errors."""


class InputError(KirbyError):
    """A problem with user-supplied data."""


class MalformedInput(InputError):
    """Input is not valid JSON or violates the documented schema."""


class InvalidPD(InputError):
    """A PD code violates a structural invariant."""


class FramingCountMismatch(InputError):
    """Number of framings does not match the number of components."""


class IndexOutOfRange(InputError, IndexError):
    """Crossing index outside the diagram."""


class LengthMismatch(InputError):
    """Vector length does not match the number of components."""


class NotAKnot(InputError):
    """A knot-only operation was applied to a diagram without exactly one component."""


class NotUnimodular(InputError):
    """Matrix determinant is not +1 or -1."""


class NotIndefinite(InputError):
    """Indefinite-only comparison applied to a definite form."""


class NotPositiveDefinite(InputError):
    """Positive-definite-only routine applied to some other form."""


class DimensionMismatch(InputError):
    """Incompatible matrix/vector dimensions."""


class InternalInvariantViolation(KirbyError):
    """A mathematical invariant failed; indicates a bug, not bad input."""


class ResourceLimitExceeded(KirbyError):
    """KIRBY4_MAX_ENUM cap hit comparing definite forms."""
