"""Exception types shared across the package, and its one range check.

Importing the module loads no numpy, so the command line can parse its
arguments before numpy loads; numpy loads when `require` runs."""


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


def require(ok, message: str, values, error=ConstraintViolation) -> None:
    """Raise `error` naming the first value where `ok` fails; `ok` and
    `values` are scalars or arrays of one shape."""
    import numpy as np

    if not np.all(ok):
        bad = np.asarray(values)[~np.asarray(ok)]
        raise error(f"{message}, got {bad.flat[0]}")
