"""Closed-form bounds on |a2*a4 - a3^2| for bi-starlike and bi-convex maps.

The triangle-inequality argument that produces the bounds replaces the two
free disk parameters by their moduli (lam, mu) and majorizes

    |a2 a4 - a3^2| <= t1 + t2 (lam + mu) + t3 (lam^2 + mu^2)
                      + t4 (lam + mu)^2

with c-dependent coefficients t1..t4 (t1, t2, t4 >= 0 and t3 <= 0 on
[0, 2]).  The surface attains its maximum at the corner lam = mu = 1, where
it collapses to an even quartic in c:

    STARLIKE: Q(c) = (1-b)^2/48  * [(16 b^2 - 26 b + 5) c^4
                                    + 24 (2 - b) c^2 + 48]
    CONVEX:   Q(c) = (1-b)^2/288 * [(3 b^2 - 3 b - 4) c^4
                                    + 4 (8 - 3 b) c^2 + 32]

Maximizing Q over c in [0, 2] gives the closed-form bounds:

    STARLIKE: (4/3)(1-b)^2 (4 b^2 - 8 b + 5)          for b <= (29-sqrt(137))/32
              (1-b)^2 (13 b^2 - 14 b - 7)
                      / (16 b^2 - 26 b + 5)            otherwise (interior max)
    CONVEX:   (1-b)^2/24 * (5 b^2 + 8 b - 32)
                      / (3 b^2 - 3 b - 4)               (always interior max)

Everything here is a pure function of scalars (or numpy arrays in c), so
grid-based verification can evaluate the same expressions the closed forms
are made of.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError
from .functionals import FamilyId, check_beta


class Branch(enum.Enum):
    BOUNDARY_C2 = "BOUNDARY_C2"
    INTERIOR_CRITICAL = "INTERIOR_CRITICAL"


@dataclass(frozen=True)
class BoundResult:
    """Bound value for one (family, beta) with its active branch."""

    family: FamilyId
    beta: float
    bound: float
    branch: Branch
    critical_c: float


@dataclass(frozen=True)
class Thresholds:
    """The two beta values organizing the starlike branch analysis.

    quartic_sign_change: (13 - sqrt(89))/16, where the c^4 coefficient of
    the starlike quartic changes sign (~0.222876).
    branch_split: (29 - sqrt(137))/32, where the interior critical point
    crosses c = 2 and the bound switches branch (~0.540478).
    """

    quartic_sign_change: float
    branch_split: float


def thresholds() -> Thresholds:
    return Thresholds(
        quartic_sign_change=(13.0 - math.sqrt(89.0)) / 16.0,
        branch_split=(29.0 - math.sqrt(137.0)) / 32.0,
    )


def _in_range(value, lo: float, hi: float) -> bool:
    """True when every value lies in [lo, hi]; NaN never does.

    min and max propagate NaN, and NaN compares false with both bounds.
    """
    arr = np.asarray(value)
    return arr.size == 0 or bool(arr.min() >= lo and arr.max() <= hi)


def _check_c(c) -> None:
    if not _in_range(c, 0.0, 2.0):
        raise DomainError("c must lie in [0, 2]")


def _check_unit(value, name: str) -> None:
    if not _in_range(value, 0.0, 1.0):
        raise DomainError(f"{name} must lie in [0, 1]")


def surrogate_terms(family: FamilyId, c, beta: float):
    """The four c-profiles of the family's majorant; accepts arrays in c.

    t1 = (1-b)^2/k1 * [(1 + k2 (1-b)^2) c^4 - 2 c^3 + 8 c]
    t2 = (1-b)^2/k3 * c^2 (4 - c^2) (k4 - k5 b)
    t3 = (1-b)^2/k6 * c (4 - c^2) (c - 2)
    t4 = (1-b)^2/k7 * (4 - c^2)^2

    The convex k2 = k5 = 1 products are exact, so its terms round as
    (1 + (1-b)^2) and (3 - b) do.
    """
    beta = check_beta(beta)
    _check_c(c)
    if family is FamilyId.STARLIKE:
        k1, k2, k3, k4, k5, k6, k7 = 12.0, 4.0, 48.0, 7.0, 3.0, 24.0, 64.0
    else:
        k1, k2, k3, k4, k5, k6, k7 = 96.0, 1.0, 192.0, 3.0, 1.0, 192.0, 576.0
    w2 = (1.0 - beta) ** 2
    gap = 4.0 - c * c
    t1 = w2 / k1 * ((1.0 + k2 * w2) * c**4 - 2.0 * c**3 + 8.0 * c)
    t2 = w2 / k3 * c * c * gap * (k4 - k5 * beta)
    t3 = w2 / k6 * c * gap * (c - 2.0)
    t4 = w2 / k7 * gap * gap
    return t1, t2, t3, t4


starlike_surrogate_terms = partial(surrogate_terms, FamilyId.STARLIKE)
convex_surrogate_terms = partial(surrogate_terms, FamilyId.CONVEX)


def surface(family: FamilyId, lam, mu, c, beta: float):
    """Majorant F(lam, mu) at c; lam, mu and c broadcast as numpy arrays.

    This is the package's one evaluation of the majorant: the grid scans
    and the pointwise dominance check all call it.
    """
    _check_unit(lam, "lambda")
    _check_unit(mu, "mu")
    t1, t2, t3, t4 = surrogate_terms(family, c, beta)
    s = lam + mu
    return t1 + t2 * s + t3 * (lam * lam + mu * mu) + t4 * (s * s)


@dataclass(frozen=True)
class QuarticProfile:
    """Even quartic Q(c) = alpha4 c^4 + alpha2 c^2 + alpha0.

    Q is the majorant `surface` at the corner lam = mu = 1, where it equals
    t1 + 2 t2 + 2 t3 + 4 t4.  The alphas are floats, or (rows, 1) columns
    for a beta array; every method broadcasts, so a column profile gives
    one row per beta.
    """

    alpha4: float
    alpha2: float
    alpha0: float

    def value(self, c):
        """alpha4 c2 c2 + alpha2 c2 + alpha0 with c2 = c c, summed in place
        on arrays."""
        _check_c(c)
        c2 = c * c
        q = self.alpha4 * c2
        q *= c2
        q += self.alpha2 * c2
        q += self.alpha0
        return q

    def derivative(self, c):
        _check_c(c)
        return 4.0 * self.alpha4 * c**3 + 2.0 * self.alpha2 * c

    def second_derivative(self, c):
        _check_c(c)
        return 12.0 * self.alpha4 * c * c + 2.0 * self.alpha2


def quartic_profile(family: FamilyId, beta) -> QuarticProfile:
    """Corner quartic of beta; a 1-d beta array gives (rows, 1) columns, each
    row bit for bit its own profile.  (1-b)^2 is libm's pow through
    `float_power` on both paths, as the closed forms' float `**` rounds it;
    numpy's `**` and `w * w` may round it apart."""
    beta = check_beta(beta)
    if np.ndim(beta):
        beta = beta[:, None]
    w2 = np.float_power(1.0 - beta, 2)
    if family is FamilyId.STARLIKE:
        scale = w2 / 48.0
        alpha2, alpha0 = scale * 24.0 * (2.0 - beta), scale * 48.0
    else:
        scale = w2 / 288.0
        alpha2, alpha0 = scale * 4.0 * (8.0 - 3.0 * beta), scale * 32.0
    return QuarticProfile(scale * _lead(family, beta), alpha2, alpha0)


def _lead(family: FamilyId, beta):
    """c^4 coefficient of the bracketed quartic: 16 b^2 - 26 b + 5 (starlike)
    or 3 b^2 - 3 b - 4 (convex)."""
    if family is FamilyId.STARLIKE:
        return 16.0 * beta * beta - 26.0 * beta + 5.0
    return 3.0 * beta * beta - 3.0 * beta - 4.0


def _stationary_c(family: FamilyId, beta, lead):
    """sqrt(-12 (2 - b) / lead) (starlike) or sqrt(2 (3 b - 8) / lead)
    (convex); NaN where there is no interior stationary point."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if family is FamilyId.STARLIKE:
            return np.sqrt(-12.0 * (2.0 - beta) / lead)
        return np.sqrt(2.0 * (3.0 * beta - 8.0) / lead)


def critical_point(family: FamilyId, beta: float) -> float | None:
    """Interior stationary point of Q, when the quartic has one.

    STARLIKE: None while 16 b^2 - 26 b + 5 >= 0, else
              sqrt(-12 (2 - b) / (16 b^2 - 26 b + 5)).
    CONVEX:   always sqrt(2 (3 b - 8) / (3 b^2 - 3 b - 4)); the denominator
              is negative throughout [0, 1), and the value never exceeds 2.
    """
    beta = check_beta(beta)
    lead = _lead(family, beta)
    if family is FamilyId.STARLIKE and lead >= 0.0:
        return None
    return float(_stationary_c(family, beta, lead))


def _bound_result(family: FamilyId, beta, bound, on_c2, critical_c) -> BoundResult:
    """Floats for a float beta; for a beta array, arrays over the betas (the
    branch an object array of `Branch`)."""
    branch = np.where(on_c2, Branch.BOUNDARY_C2, Branch.INTERIOR_CRITICAL)
    if np.ndim(beta):
        return BoundResult(family, beta, bound, branch, critical_c)
    return BoundResult(family, beta, float(bound), branch.item(), float(critical_c))


def starlike_h22_bound(beta) -> BoundResult:
    """max over [0, 2] of the starlike quartic, in closed form.

    Up to and including the branch split the quartic is nondecreasing and
    the maximum sits on the boundary c = 2; past it the interior critical
    point takes over.  Both branches agree at the split.  A 1-d beta array
    gives arrays, each entry bit for bit the float beta's result.
    """
    beta = check_beta(beta)
    b = np.asarray(beta)
    w2 = np.float_power(1.0 - b, 2)
    on_c2 = b <= thresholds().branch_split
    lead = _lead(FamilyId.STARLIKE, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(on_c2, 4.0 * w2 * (4.0 * b * b - 8.0 * b + 5.0) / 3.0,
                         w2 * (13.0 * b * b - 14.0 * b - 7.0) / lead)
    critical_c = np.where(on_c2, 2.0, _stationary_c(FamilyId.STARLIKE, b, lead))
    return _bound_result(FamilyId.STARLIKE, beta, bound, on_c2, critical_c)


def convex_h22_bound(beta) -> BoundResult:
    """max over [0, 2] of the convex quartic; the critical point always wins.
    A 1-d beta array gives arrays, as for `starlike_h22_bound`."""
    beta = check_beta(beta)
    b = np.asarray(beta)
    w2 = np.float_power(1.0 - b, 2)
    lead = _lead(FamilyId.CONVEX, b)
    bound = w2 / 24.0 * (5.0 * b * b + 8.0 * b - 32.0) / lead
    critical_c = _stationary_c(FamilyId.CONVEX, b, lead)
    return _bound_result(FamilyId.CONVEX, beta, bound, np.zeros(b.shape, bool), critical_c)


def h22_bound(family: FamilyId, beta) -> BoundResult:
    if family is FamilyId.STARLIKE:
        return starlike_h22_bound(beta)
    return convex_h22_bound(beta)


def fekete_szego_bound(family: FamilyId, beta: float, mu: float) -> float:
    """Piecewise bound on |a3 - mu a2^2| for the two families.

    STARLIKE: 1 - b on mu in [1/2, 3/2], else 2 (1-b) |mu - 1|.
    CONVEX:   (1-b)/3 on mu in [2/3, 4/3], else (1-b) |mu - 1|.
    Both pieces agree at the joins.  Non-finite mu, or a mu so large that
    the bound overflows to inf, raises DomainError.

    The bound needs the relation 2 a2^2 = (1-b)(c2 + d2), which the H2,2
    relaxation drops; without it the starlike bound is false.  At c = 2 the
    relaxed set gives |a3 - mu a2^2| = 4 (1-b)^2 |1 - mu| for any x, y, z, w:
    above 2 (1-b) |mu - 1| whenever b < 1/2 and mu != 1, and above 1 - b
    where 4 (1-b) |1 - mu| > 1.  The convex value there, (1-b)^2 |1 - mu|,
    never exceeds its bound.
    """
    beta = check_beta(beta)
    w = 1.0 - beta
    mu = float(mu)
    if not math.isfinite(mu):
        raise DomainError(f"mu must be finite, got {mu}")
    if family is FamilyId.STARLIKE:
        bound = w if 0.5 <= mu <= 1.5 else 2.0 * w * abs(mu - 1.0)
    elif 2.0 / 3.0 <= mu <= 4.0 / 3.0:
        bound = w / 3.0
    else:
        bound = w * abs(mu - 1.0)
    if not math.isfinite(bound):
        raise DomainError(f"Fekete-Szego bound overflows at mu={mu}")
    return bound
