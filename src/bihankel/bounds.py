"""Closed-form bounds on |a2*a4 - a3^2| for bi-starlike and bi-convex maps.

The triangle-inequality argument that produces the bounds replaces the two
free disk parameters by their moduli (lam, mu) and majorizes

    |a2 a4 - a3^2| <= t1 + t2 (lam + mu) + t3 (lam^2 + mu^2)
                      + t4 (lam + mu)^2

with c-dependent coefficients t1..t4 (t1, t2, t4 >= 0 and t3 <= 0 on
[0, 2]).  The surface attains its maximum at the corner lam = mu = 1, where
it collapses to an even quartic Q in c.  Maximizing Q over c in [0, 2]
gives the closed-form bounds, at c = 2 up to the branch split and at the
interior critical point past it:

    STARLIKE: Q(c) = (1-b)^2/48 [(16 b^2 - 26 b + 5) c^4 + 24 (2 - b) c^2 + 48]
              (4/3)(1-b)^2 (4 b^2 - 8 b + 5)  for b <= (29-sqrt(137))/32,
              else (1-b)^2 (13 b^2 - 14 b - 7) / (16 b^2 - 26 b + 5)
    CONVEX:   Q(c) = (1-b)^2/288 [(3 b^2 - 3 b - 4) c^4 + 4 (8 - 3 b) c^2 + 32]
              (1-b)^2/24 (5 b^2 + 8 b - 32) / (3 b^2 - 3 b - 4)  (no split)

The families differ only in their constants, one row of `_ROWS` each.
Everything here is a pure function of scalars (or numpy arrays in c), so
grid-based verification can evaluate the same expressions the closed forms
are made of.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require
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


# One family's constants; every formula below is written once over them.
#   terms:    k1..k7 of `surrogate_terms`
#   quartic:  (s, q1, q2, q3, q0) of the corner quartic
#             Q = (1-b)^2/s [lead(b) c^4 + q1 (q2 - q3 b) c^2 + q0]
#   lead:     the quadratic lead(b), as `_quadratic` takes it
#   at_c2:    (f, p, d) of Q(2) = f (1-b)^2 p(b) / d, p a quadratic
#   interior: (d, p) of the interior maximum (1-b)^2/d p(b) / lead(b)
#   split:    the bound is Q(2) for b <= split, else the interior maximum
#   fs:       (flat divisor, outer factor, joins) of `fekete_szego_bound`
_Row = namedtuple("_Row", "terms quartic lead at_c2 interior split fs")
_ROWS = {
    FamilyId.STARLIKE: _Row(
        terms=(12.0, 4.0, 48.0, 7.0, 3.0, 24.0, 64.0), quartic=(48.0, 24.0, 2.0, 1.0, 48.0),
        lead=(16.0, -26.0, 5.0), at_c2=(4.0, (4.0, -8.0, 5.0), 3.0),
        interior=(1.0, (13.0, -14.0, -7.0)), split=(29.0 - math.sqrt(137.0)) / 32.0,
        fs=(1.0, 2.0, (0.5, 1.5))),
    FamilyId.CONVEX: _Row(
        terms=(96.0, 1.0, 192.0, 3.0, 1.0, 192.0, 576.0), quartic=(288.0, 4.0, 8.0, 3.0, 32.0),
        lead=(3.0, -3.0, -4.0), at_c2=(1.0, (1.0, -2.0, 2.0), 6.0),
        interior=(24.0, (5.0, 8.0, -32.0)), split=-math.inf,  # no split
        fs=(3.0, 1.0, (2.0 / 3.0, 4.0 / 3.0))),
}


def _quadratic(p, b):
    """p[0] b^2 + p[1] b + p[2]; + (-x) rounds as - x does."""
    p2, p1, p0 = p
    return p2 * b * b + p1 * b + p0


def thresholds() -> Thresholds:
    return Thresholds(
        quartic_sign_change=(13.0 - math.sqrt(89.0)) / 16.0,
        branch_split=_ROWS[FamilyId.STARLIKE].split,
    )


def _check_c(c) -> None:
    require((c >= 0.0) & (c <= 2.0), "c must lie in [0, 2]", c, DomainError)


def _check_unit(value, name: str) -> None:
    require((value >= 0.0) & (value <= 1.0), f"{name} must lie in [0, 1]", value, DomainError)


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
    k1, k2, k3, k4, k5, k6, k7 = _ROWS[family].terms
    w2 = (1.0 - beta) ** 2
    gap = 4.0 - c * c
    t1 = w2 / k1 * ((1.0 + k2 * w2) * c**4 - 2.0 * c**3 + 8.0 * c)
    t2 = w2 / k3 * c * c * gap * (k4 - k5 * beta)
    t3 = w2 / k6 * c * gap * (c - 2.0)
    t4 = w2 / k7 * gap * gap
    return t1, t2, t3, t4


def starlike_surrogate_terms(c, beta: float):
    """`surrogate_terms` of the starlike family."""
    return surrogate_terms(FamilyId.STARLIKE, c, beta)


def convex_surrogate_terms(c, beta: float):
    """`surrogate_terms` of the convex family."""
    return surrogate_terms(FamilyId.CONVEX, c, beta)


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
    row = _ROWS[family]
    s, q1, q2, q3, q0 = row.quartic
    scale = np.float_power(1.0 - beta, 2) / s
    return QuarticProfile(scale * _quadratic(row.lead, beta), scale * q1 * (q2 - q3 * beta),
                          scale * q0)


def _stationary_c(row: _Row, beta, lead):
    """sqrt(-(q1/2) (q2 - q3 b) / lead), where Q' = 0: sqrt(-12 (2 - b) /
    lead) (starlike) or sqrt(2 (3 b - 8) / lead) (convex), bit for bit; NaN
    where there is no interior stationary point."""
    _, q1, q2, q3, _ = row.quartic
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(-q1 / 2.0 * (q2 - q3 * beta) / lead)


def critical_point(family: FamilyId, beta: float) -> float | None:
    """Interior stationary point of Q, when the quartic has one.

    None while lead(b) >= 0 (starlike, up to about (13 - sqrt(89))/16), else
    `_stationary_c`.  The convex lead(b) = 3 b^2 - 3 b - 4 is negative
    throughout [0, 1), and its stationary point never exceeds 2.
    """
    beta = check_beta(beta)
    row = _ROWS[family]
    lead = _quadratic(row.lead, beta)
    if lead >= 0.0:
        return None
    return float(_stationary_c(row, beta, lead))


def _bound_result(family: FamilyId, beta, bound, on_c2, critical_c) -> BoundResult:
    """Floats for a float beta; for a beta array, arrays over the betas (the
    branch an object array of `Branch`)."""
    branch = np.where(on_c2, Branch.BOUNDARY_C2, Branch.INTERIOR_CRITICAL)
    if np.ndim(beta):
        return BoundResult(family, beta, bound, branch, critical_c)
    return BoundResult(family, beta, float(bound), branch.item(), float(critical_c))


def h22_bound(family: FamilyId, beta) -> BoundResult:
    """max over [0, 2] of the family's corner quartic, in closed form.

    Up to and including the family's branch split the quartic is
    nondecreasing and the maximum sits on the boundary c = 2; past it the
    interior critical point takes over, and both branches agree at the
    split.  Convex has no split: its critical point always wins.  A 1-d beta
    array gives arrays, each entry bit for bit the float beta's result.
    """
    beta = check_beta(beta)
    row = _ROWS[family]
    b = np.asarray(beta)
    w2 = np.float_power(1.0 - b, 2)
    on_c2 = b <= row.split
    lead = _quadratic(row.lead, b)
    f, at_c2, d_c2 = row.at_c2
    d, interior = row.interior
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(on_c2, f * w2 * _quadratic(at_c2, b) / d_c2,
                         w2 / d * _quadratic(interior, b) / lead)
    critical_c = np.where(on_c2, 2.0, _stationary_c(row, b, lead))
    return _bound_result(family, beta, bound, on_c2, critical_c)


def starlike_h22_bound(beta) -> BoundResult:
    """`h22_bound` of the starlike family."""
    return h22_bound(FamilyId.STARLIKE, beta)


def convex_h22_bound(beta) -> BoundResult:
    """`h22_bound` of the convex family."""
    return h22_bound(FamilyId.CONVEX, beta)


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
    flat, outer, (lo, hi) = _ROWS[family].fs
    bound = w / flat if lo <= mu <= hi else outer * w * abs(mu - 1.0)
    if not math.isfinite(bound):
        raise DomainError(f"Fekete-Szego bound overflows at mu={mu}")
    return bound
