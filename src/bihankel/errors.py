"""Exception types shared across the package."""


class BihankelError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BihankelError, ValueError):
    """An argument lies outside its mathematical domain."""


class ZeroConstantTerm(BihankelError, ZeroDivisionError):
    """Series division by a series whose constant term vanishes."""


class NotNormalized(BihankelError, ValueError):
    """A series does not satisfy the normalization required by an operation."""


class ConstraintViolation(BihankelError, ValueError):
    """Structured data violates one of its declared invariants."""
