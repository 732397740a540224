"""Closed-form coefficients (a2, a3, a4) and their series-algebra check.

For f(z) = z + a2 z^2 + a3 z^3 + ... whose compositional inverse g is
subject to the same geometric condition, matching Taylor coefficients in

    z f'(z)/f(z)      = beta + (1 - beta) p(z)   (starlike of order beta)
    1 + z f''(z)/f'(z) = beta + (1 - beta) p(z)   (convex of order beta)

for f and for g yields two coefficient triples (c1, c2, c3) and
(d1, d2, d3) with d1 = -c1.  Solving the difference equations gives closed
forms for (a2, a3, a4); `bi_coeffs` evaluates them.  Deliberately, only
the differences c2 - d2 and c3 - d3 are used: the sum constraint implied by
the full system is *not* enforced, so the feasible set here matches the
relaxation under which the closed-form bounds are derived.  `optimizer`
forms a2 a4 - a3^2 from them.

`verify_coefficient_system` closes the loop in the other direction: it
rebuilds f and g as truncated series, extracts the functional coefficients
by series division, and reports how far the six hand-derived identities
are from what the series algebra produces.
"""

from __future__ import annotations

import cmath
import enum
from collections import namedtuple

import numpy as np

from . import caratheodory as car
from . import series as ts
from .caratheodory import PCoefficients
from .errors import ConstraintViolation, DomainError, require


class FamilyId(enum.Enum):
    STARLIKE = "starlike"
    CONVEX = "convex"


def check_beta(beta):
    """Validate beta (or each of a 1-d array) in [0, 1); never clamps.

    An array is checked in one pass and reported by its first bad entry.
    """
    beta = np.array(beta, dtype=float) if np.ndim(beta) == 1 else float(beta)
    require((beta >= 0.0) & (beta < 1.0), "beta must lie in [0, 1)", beta, DomainError)
    return beta


class Order(namedtuple("Order", "beta")):
    """Order parameter beta of the geometric condition, 0 <= beta < 1."""

    __slots__ = ()

    def __new__(cls, beta):
        check_beta(beta)
        return super().__new__(cls, beta)

    @classmethod
    def _make(cls, fields):
        # namedtuple's `_replace` and `_make` would skip the check of `__new__`
        return cls(*fields)


class BiCoefficients(namedtuple("BiCoefficients", "a2 a3 a4")):
    """Reconstructed Taylor coefficients (a2, a3, a4)."""

    __slots__ = ()

    def __new__(cls, a2, a3, a4):
        for name, value in zip(cls._fields, (a2, a3, a4)):
            v = complex(value)
            if not (cmath.isfinite(v)):
                raise ConstraintViolation(f"{name} must be finite, got {v}")
        return super().__new__(cls, a2, a3, a4)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (complex(self.a2), complex(self.a3), complex(self.a4))


# One family's coefficient system: the weights (h, g1, g2, e1, e2) and a4's
# divisor k of `bi_coeffs`, the constants m1..m9 of `_lhs`, the family's
# series functional, and ((u1, u0), (v1, v0)) of the sum constraint's
# x + y = (u1 b + u0) c^2 (v1 b + v0)/(4 - c^2) in `optimizer`.  Convex's
# u0 is -0.0 so that -2 b + u0 keeps the sign of -2 b at b = 0.
_System = namedtuple("_System", "weights divisor lhs functional sum_target")
_SYSTEMS = {
    FamilyId.STARLIKE: _System((1.0, 1.0, 0.25, 2.0 / 3.0, 5.0 / 8.0), 6.0,
                               (1.0, 2.0, 1.0, 3.0, 3.0, 1.0, 3.0, 10.0, 12.0),
                               ts.starlike_functional, ((0.0, 2.0), (-2.0, 1.0))),
    FamilyId.CONVEX: _System((0.5, 0.25, 1.0 / 12.0, 5.0 / 48.0, 5.0 / 48.0), 24.0,
                             (2.0, 6.0, 4.0, 12.0, 18.0, 8.0, 8.0, 32.0, 42.0),
                             ts.convex_functional, ((-2.0, -0.0), (0.0, 1.0))),
}


def bi_coeffs(family: FamilyId, w, c1, dc2, dc3):
    """Closed-form (a2, a3, a4); scalars or numpy arrays.

    w is 1 - beta, c1 the shared first coefficient, and dc2 = c2 - d2,
    dc3 = c3 - d3 the differences of the two coefficient triples.  With the
    family's row of `_SYSTEMS`,

        a2 = h w c1
        a3 = g1 w^2 c1^2 + g2 w dc2
        a4 = e1 w^3 c1^3 + e2 w^2 c1 dc2 + w dc3 / k

        family    h    g1   g2    e1    e2    k
        STARLIKE  1    1    1/4   2/3   5/8   6
        CONVEX    1/2  1/4  1/12  5/48  5/48  24

    h and g1 are powers of two, so their products round as w c1 / 2 and
    w^2 c1^2 / 4 would.  dc3 is scaled by the reciprocal 1/k: on arrays that
    is bit for bit numpy's complex division by a real, which scales by the
    same reciprocal, at a fraction of its cost.  On Python scalars it may
    differ from `/ k` in the last bit.
    """
    row = _SYSTEMS[family]
    h, g1, g2, e1, e2 = row.weights
    a2 = w * c1 * h
    a3 = w * w * c1 * c1 * g1 + w * dc2 * g2
    a4 = e1 * w**3 * c1**3 + e2 * w * w * c1 * dc2 + w * dc3 * (1.0 / row.divisor)
    return a2, a3, a4


def _lhs(family: FamilyId, a2, a3, a4):
    """Closed-form left-hand sides of the six coefficient equations.

    With m1..m9 from the family's row of `_SYSTEMS`, the direct side (f) is

        m1 a2,  m2 a3 - m3 a2^2,  m4 a4 - m5 a3 a2 + m6 a2^3

    and the inverse side (g) is

        -m1 a2,  m7 a2^2 - m2 a3,  -m8 a2^3 + m9 a3 a2 - m4 a4.
    """
    m1, m2, m3, m4, m5, m6, m7, m8, m9 = _SYSTEMS[family].lhs
    direct = (m1 * a2, m2 * a3 - m3 * a2 * a2, m4 * a4 - m5 * a3 * a2 + m6 * a2**3)
    inverse = (-m1 * a2, m7 * a2 * a2 - m2 * a3, -m8 * a2**3 + m9 * a3 * a2 - m4 * a4)
    return direct, inverse


class SystemReport(namedtuple("SystemReport", "p q residuals")):
    """Recovered p, q and the six equation residuals of the caller's (family, beta, a)."""

    __slots__ = ()

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def _system_residuals(family: FamilyId, a2, a3, a4):
    """Series functionals of f and of its inverse g, and the six residuals.

    f = z + a2 z^2 + a3 z^3 + a4 z^4; a2, a3, a4 are scalars or arrays over
    one batch, and the series algebra runs once for the whole batch.
    Residual k is |lhs_k - functional coefficient| on the direct (k < 3) or
    the inverse side.
    """
    functional = _SYSTEMS[family].functional
    f = ts.TruncatedSeries.from_coeffs([0, 1, a2, a3, a4], 4)
    func_f = functional(f)
    func_g = functional(ts.invert_composition(f))
    direct, inverse = _lhs(family, a2, a3, a4)
    residuals = tuple(
        abs(val - func[k + 1])
        for func, side in ((func_f, direct), (func_g, inverse))
        for k, val in enumerate(side)
    )
    return func_f, func_g, residuals


def verify_coefficient_system(
    family: FamilyId, order: Order, a: BiCoefficients
) -> SystemReport:
    """Check the hand-derived coefficient equations against series algebra.

    Builds f = z + a2 z^2 + a3 z^3 + a4 z^4 and its compositional inverse,
    extracts (c1..c3) and (d1..d3) from the family's functional by solving
    beta + (1-beta) p = functional, and reports |lhs_k - (1-beta) c_k| for
    all six equations.  The equations are algebraic identities, so residuals
    are rounding-level whenever the series engine is correct.
    """
    func_f, func_g, residuals = _system_residuals(family, *a.as_tuple())
    w = 1.0 - order.beta
    p = PCoefficients(*(func_f[k] / w for k in (1, 2, 3)))
    q = PCoefficients(*(func_g[k] / w for k in (1, 2, 3)))
    return SystemReport(p, q, residuals)


def series_residual(family: FamilyId, rng, trials: int) -> float:
    """Worst `verify_coefficient_system` residual over `trials` random draws.

    Each draw takes a2, a3, a4 with real and imaginary parts uniform on
    [-3, 3] from `rng`.  The draws come `car.SAMPLE_CHUNK` at a time from
    `rng.uniform` calls of shape (rows, 6), which take the same numbers
    from the stream, and leave the generator in the same state, as one call
    per draw; so consecutive calls sharing one generator continue the same
    stream.  The series algebra runs once per chunk, and `car.streamed_max`
    keeps the worst residual, so memory does not grow with `trials`.  Beta
    enters no residual: it only rescales the p and q of the report.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    draws = (rng.uniform(-3.0, 3.0, (min(car.SAMPLE_CHUNK, trials - start), 6)).view(complex).T
             for start in range(0, trials, car.SAMPLE_CHUNK))
    return car.streamed_max(draws, lambda a2, a3, a4: np.maximum.reduce(
        _system_residuals(family, a2, a3, a4)[2])).max_value
