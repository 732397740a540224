"""Truncated power-series arithmetic over complex coefficients.

A series is a fixed-length coefficient vector c0..cN understood modulo
z^(N+1); binary operations truncate to the smaller operand order, so every
stored coefficient of a result is exact (up to rounding).  The ring
operations are the functions `add`, `multiply` and `divide`.  On top of
them the module provides compositional inversion and the two analytic
functionals z f'(z)/f(z) and 1 + z f''(z)/f'(z) that characterize
starlike and convex mappings.  Together these act as an independent
oracle: any hand-derived polynomial identity between Taylor coefficients
can be confirmed by direct series algebra.

A series holds plain Python complex numbers, or a batch of series of one
order holds one array per coefficient, over a trailing batch axis.  Every
operation is written with elementwise arithmetic only, so the batch runs
the same formulas as the scalar case, one numpy pass per coefficient
instead of one Python loop per series.  Every series is immutable, so
instances are safe to share freely.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

import numpy as np

from .errors import DomainError, NotNormalized, ZeroConstantTerm

# |b0| below this means the divisor is treated as having a vanishing
# constant term.
ZERO_DIVISOR_TOL = 1e-14

# slack allowed when checking f(0)=0, f'(0)=1
NORMALIZATION_TOL = 1e-12


class TruncatedSeries(namedtuple("TruncatedSeries", "order coeffs")):
    """Coefficients c0..c_order of a power series truncated at z**order.

    If any coefficient is an array, the series is a batch: the coefficients
    are broadcast to one batch shape and stored as one complex array of
    shape (order + 1, *batch), so `coeffs[k]` is c_k over the batch.
    Otherwise `coeffs` is a tuple of Python complex numbers.  A batched
    series has no `==` or hash.  `series[k]` is c_k too, while iteration
    and `len` give the record's two fields, order and coeffs.
    """

    __slots__ = ()

    def __new__(cls, order, coeffs):
        if order < 1:
            raise DomainError(f"order must be >= 1, got {order}")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise DomainError(
                f"expected {order + 1} coefficients for order "
                f"{order}, got {len(coeffs)}"
            )
        if any(np.ndim(c) for c in coeffs):
            coeffs = np.array(np.broadcast_arrays(*coeffs), dtype=complex)
        else:
            coeffs = tuple(complex(c) for c in coeffs)
        return super().__new__(cls, order, coeffs)

    @classmethod
    def _make(cls, fields):
        # namedtuple's `_replace` and `_make` would skip the checks of `__new__`
        return cls(*fields)

    @classmethod
    def from_coeffs(
        cls, coeffs: Iterable[complex], order: int | None = None
    ) -> "TruncatedSeries":
        """Build a series from leading coefficients, zero-padded to `order`."""
        cs = list(coeffs)
        if order is None:
            order = max(len(cs) - 1, 1)
        cs = cs[: order + 1]
        cs.extend([0j] * (order + 1 - len(cs)))
        return cls(order, tuple(cs))

    def __getitem__(self, k: int) -> complex:
        return self.coeffs[k]

    def is_normalized(self) -> bool:
        """True when f(0)=0 and f'(0)=1 within `NORMALIZATION_TOL` (every row)."""
        return bool(
            np.all(abs(self.coeffs[0]) <= NORMALIZATION_TOL)
            and np.all(abs(self.coeffs[1] - 1.0) <= NORMALIZATION_TOL)
        )


def add(a: TruncatedSeries, b) -> TruncatedSeries:
    """Sum truncated to the smaller order; scalars (or batch arrays) add to c0."""
    if not isinstance(b, TruncatedSeries):
        cs = list(a.coeffs)
        cs[0] = cs[0] + b
        return TruncatedSeries(a.order, tuple(cs))
    n = min(a.order, b.order)
    return TruncatedSeries(
        n, tuple(a.coeffs[k] + b.coeffs[k] for k in range(n + 1))
    )


def multiply(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at min(order(a), order(b))."""
    n = min(a.order, b.order)
    ca, cb = a.coeffs, b.coeffs
    out = [0j] * (n + 1)
    for k in range(n + 1):
        out[k] = sum(ca[j] * cb[k - j] for j in range(k + 1))
    return TruncatedSeries(n, tuple(out))


def divide(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Series q with q*b = a up to the shared truncation order.

    Requires |b0| >= ZERO_DIVISOR_TOL; back-substitution is triangular, so
    each quotient coefficient is exact up to rounding.
    """
    b0 = b.coeffs[0]
    if np.any(abs(b0) < ZERO_DIVISOR_TOL):
        raise ZeroConstantTerm(
            f"divisor constant term {b0!r} is below tolerance {ZERO_DIVISOR_TOL}"
        )
    n = min(a.order, b.order)
    ca, cb = a.coeffs, b.coeffs
    q = [0j] * (n + 1)
    for k in range(n + 1):
        acc = ca[k]
        for j in range(k):
            acc = acc - q[j] * cb[k - j]
        q[k] = acc / b0
    return TruncatedSeries(n, tuple(q))


def compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Substitution f(g(z)), requiring g(0) = 0.

    Evaluated by a Horner recurrence in the truncated ring; the zero
    constant term of g keeps truncation exact.
    """
    if np.any(abs(g.coeffs[0]) > ZERO_DIVISOR_TOL):
        raise NotNormalized(
            f"inner series must have zero constant term, got {g.coeffs[0]!r}"
        )
    n = min(f.order, g.order)
    gt = TruncatedSeries.from_coeffs(g.coeffs, n)
    result = TruncatedSeries.from_coeffs([f.coeffs[n]], n)
    for k in range(n - 1, -1, -1):
        result = add(multiply(result, gt), f.coeffs[k])
    return result


def invert_composition(f: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse g with f(g(w)) = w up to the truncation order.

    Requires f(0)=0 and f'(0)=1.  Coefficients are found by triangular
    back-substitution: with g fixed through w^(k-1), the w^k coefficient of
    f(g(w)) depends on g_k only through the linear term f'(0)*g_k, so each
    round determines one coefficient exactly.

    For f = z + a2 z^2 + a3 z^3 + a4 z^4 the leading inverse coefficients
    come out as -a2, 2 a2^2 - a3, -(5 a2^3 - 5 a2 a3 + a4).
    """
    if not f.is_normalized():
        raise NotNormalized(
            "compositional inversion requires f(0)=0 and f'(0)=1, got "
            f"c0={f.coeffs[0]!r}, c1={f.coeffs[1]!r}"
        )
    n = f.order
    g = [0j] * (n + 1)
    g[1] = 1.0 + 0j
    for k in range(2, n + 1):
        h = compose(f, TruncatedSeries(n, tuple(g)))
        g[k] = -h.coeffs[k]
    return TruncatedSeries(n, tuple(g))


def _require_zero_origin(f: TruncatedSeries) -> None:
    if np.any(abs(f.coeffs[0]) > NORMALIZATION_TOL):
        raise NotNormalized(
            f"functional requires f(0)=0, got constant term {f.coeffs[0]!r}"
        )


def starlike_functional(f: TruncatedSeries) -> TruncatedSeries:
    """z f'(z)/f(z), truncated at order(f) - 1.

    For f = z + a2 z^2 + a3 z^3 + a4 z^4 the z, z^2, z^3 coefficients are
    a2, 2 a3 - a2^2 and 3 a4 - 3 a3 a2 + a2^3.
    """
    _require_zero_origin(f)
    n = f.order
    num = TruncatedSeries(
        n - 1, tuple((k + 1) * f.coeffs[k + 1] for k in range(n))
    )
    den = TruncatedSeries(n - 1, tuple(f.coeffs[k + 1] for k in range(n)))
    return divide(num, den)


def convex_functional(f: TruncatedSeries) -> TruncatedSeries:
    """1 + z f''(z)/f'(z), truncated at order(f) - 1.

    For f = z + a2 z^2 + a3 z^3 + a4 z^4 the z, z^2, z^3 coefficients are
    2 a2, 6 a3 - 4 a2^2 and 12 a4 - 18 a3 a2 + 8 a2^3.
    """
    _require_zero_origin(f)
    n = f.order
    fp = TruncatedSeries(
        n - 1, tuple((k + 1) * f.coeffs[k + 1] for k in range(n))
    )
    zfpp = TruncatedSeries(
        n - 1, tuple((k + 1) * k * f.coeffs[k + 1] for k in range(n))
    )
    return add(divide(zfpp, fp), 1.0)


def max_coeff_diff(a: TruncatedSeries, b: TruncatedSeries) -> float:
    """Largest |a_k - b_k| over the shared truncation range (and the batch)."""
    n = min(a.order, b.order)
    return float(np.max([np.max(abs(a.coeffs[k] - b.coeffs[k])) for k in range(n + 1)]))
