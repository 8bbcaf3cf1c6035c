"""Exception types shared across the package."""


class MonoidOrdersError(Exception):
    """Base class for every error this package raises deliberately."""


class NonExactDivision(MonoidOrdersError):
    """Polynomial division left a nonzero remainder.

    Every division performed by the order formulas is exact, so this
    always signals a bug or inconsistent lattice data.
    """


class IndexOutOfRange(MonoidOrdersError):
    """A subspace-dimension or rank parameter is outside 0..n."""


class UnsupportedType(MonoidOrdersError):
    """Cartan family/rank pair outside the supported catalog."""


class ClassificationFailure(MonoidOrdersError):
    """A Dynkin sub-diagram matched no catalog entry (internal bug)."""


class GroupTooLarge(MonoidOrdersError):
    """Weyl group enumeration would exceed the configured bound."""


class LatticeTooLarge(MonoidOrdersError):
    """Cross-section lattice generation would exceed the configured bound."""


class InvalidSupport(MonoidOrdersError):
    """Weight-support set J0 = Delta leaves no nonzero minimal idempotent."""


class InvariantViolation(MonoidOrdersError):
    """Cross-section lattice data broke a structural invariant."""


class NotJIrreducible(MonoidOrdersError):
    """Lattice torus-index exponents do not follow the |lambda*|+1 rule."""


class NonPrimeModulus(MonoidOrdersError):
    """Matrix arithmetic requested over a non-prime modulus."""


class EnumerationTooLarge(MonoidOrdersError):
    """Brute-force enumeration would exceed the configured bound."""
