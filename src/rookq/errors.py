"""Exception types shared across the package."""


class RookqError(Exception):
    """Base class for all library errors."""


class DomainError(RookqError):
    """An evaluation or substitution was requested outside its domain."""


class DivisionByZero(RookqError):
    """Zero denominator in exact division or rational-function construction."""


class InvariantViolation(RookqError):
    """A property that the theory guarantees failed to hold.

    This always signals a bug upstream, never a legitimate runtime condition.
    The checks raise it explicitly, so they still run under ``python -O``.
    """


class NonExactDivision(InvariantViolation):
    """A division that the theory guarantees to be exact left a remainder."""


class WeightMismatch(RookqError):
    """Two partitions that must have equal (or compatible) weights do not."""


class VariantMismatch(RookqError):
    """A special-case formula was invoked on shapes it does not cover."""


class MethodMismatch(RookqError):
    """Two character algorithms disagree on the same (lambda, mu) cell."""

    def __init__(self, lam, mu, values):
        self.lam = lam
        self.mu = mu
        self.values = dict(values)
        detail = "; ".join(f"{m}: {v}" for m, v in self.values.items())
        super().__init__(f"method mismatch at lambda={list(lam)} mu={list(mu)}: {detail}")


class NotGbsError(RookqError):
    """A weight was requested for a shape lam/nu that is not a generalized border strip."""


class ShapeTooLarge(RookqError):
    """A tableau shape has more boxes than there are labels available."""


class HalfPowerResidue(RookqError):
    """A trace that must lie in Z[q] contains odd powers of q^(1/2)."""
