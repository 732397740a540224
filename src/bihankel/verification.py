"""Named consistency checks behind the `verify` command.

Each check pits a closed-form expression against an independent route to
the same quantity (grid maximization, series algebra, direct sampling) and
reports a scalar residual with its tolerance.  Every check is a hard
check: `verify` fails when any one of them fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from . import optimizer as opt
from .caratheodory import (
    COEFF_BOUND_TOL,
    check_disk_params,
    check_seed,
    coeff_excess,
    coeffs_from_herglotz,
    disk_coeffs,
    disk_param_blocks,
    herglotz_blocks,
)
from .errors import DomainError
from .functionals import FamilyId, series_residual

GRID_MAX_TOL = 1e-8
SURROGATE_TOL = 1e-6
ALGEBRA_TOL = 1e-12
SERIES_TOL = 1e-11
STATIONARY_TOL = 1e-9
CONTINUITY_TOL = 1e-9
DOMINANCE_SLACK = 1e-12
POINTWISE_SLACK = 1e-10

# points of the c-grid on [0, 2] behind the term-level checks
C_POINTS = 401

# (d, r, g2, g1, g, g0) of the factored forms t3 + 2 t4 = w2 gap (2 - c)(r - c)/d
# and t2 + 2 (t3 + t4) = w2 gap ((g2 - g1 b) c^2 - g c + g0)/d (see `run_checks`)
_FACTORS = {FamilyId.STARLIKE: (96.0, 6.0, 19.0, 6.0, 16.0, 12.0),
            FamilyId.CONVEX: (576.0, 4.0, 13.0, 3.0, 12.0, 8.0)}


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool


def _check(name, value, tolerance) -> CheckResult:
    return CheckResult(name, float(value), float(tolerance), float(value) <= float(tolerance))


def _sign_check(name, value) -> CheckResult:
    """Pass when the measured value is strictly negative."""
    return CheckResult(name, float(value), 0.0, float(value) < 0.0)


# Spot checks that `run_checks` memoizes (see its docstring).  Each runs as
# numpy passes over the blocks of a streamed sampler, with no per-draw
# Python object, and the caches hold only the scalar result.
@functools.lru_cache(maxsize=8)
def _series_worst(family: FamilyId, trials: int, seed: int) -> float:
    """Worst series-algebra residual of the coefficient system over seeded draws.

    The residuals compare the series functionals of f and of its inverse g
    with the closed-form left-hand sides; beta enters neither.
    """
    return series_residual(family, np.random.default_rng(seed + 1), trials)


@functools.lru_cache(maxsize=4)
def _disk_param_excess(spot_samples: int, seed: int) -> float:
    """Largest max_k |c_k| - 2 over seeded (c, x, z) parametrization draws."""
    excess = -math.inf
    for c, x, _, z, _ in disk_param_blocks(spot_samples, seed + 2, draw_y=False):
        check_disk_params(c, x, z)
        excess = max(excess, coeff_excess(c, *disk_coeffs(c, x, z)))
    return excess


@functools.lru_cache(maxsize=4)
def _herglotz_excess(spot_samples: int, seed: int) -> float:
    """Largest max_k |c_k| - 2 over seeded atomic Herglotz measures."""
    return max(
        coeff_excess(coeffs_from_herglotz(block, 3))
        for block in herglotz_blocks(spot_samples, seed + 3)
    )


def clear_spot_check_cache() -> None:
    """Forget the memoized spot checks, so the next call recomputes them."""
    _series_worst.cache_clear()
    _disk_param_excess.cache_clear()
    _herglotz_excess.cache_clear()


def check_run_args(seed: int, trials: int, spot_samples: int) -> None:
    """Validate the sampling arguments of `run_checks`, in its order."""
    check_seed(seed)
    if trials < 1 or spot_samples < 1:
        raise DomainError("trials and samples must be >= 1")


def run_checks(
    family: FamilyId,
    beta: float,
    *,
    seed: int = 0,
    trials: int = 100,
    spot_samples: int = 2000,
) -> list[CheckResult]:
    """Run the full invariant suite for one (family, beta).

    Three checks do not depend on beta and are memoized:

    - `disk_param_coeff_bound` and `herglotz_coeff_bound` depend on neither
      family nor beta, only on (spot_samples, seed);
    - `series_identity_residual` depends on the family only, through
      (family, trials, seed): its residuals compare the series functionals
      of f and its inverse with closed-form left-hand sides, and beta
      enters neither.

    Memoizing them is exact, because each is a pure function of its key
    with fixed seeds and draw order, so a caller looping over betas and
    families gets the same values while computing each once.  Every other
    check depends on both family and beta and runs on every call.
    `clear_spot_check_cache` forgets the memo.

    The grid checks run on fixed schedules: `maximize_1d` (the corner
    quartic on `LINE_SCHEDULE`) and `maximize_surrogate` (the majorant on
    `CUBE_SCHEDULE`) both run the one refinement loop
    `optimizer._refine_max`, the first on every grid point, the second on
    the corner line lam = mu = 1 and its neighbours, with a rounding
    certificate standing in for the rest of each c-slice (its result is
    bit for bit the full scan's); the term-level checks call
    `surrogate_terms` and `surface` on `C_POINTS` points of [0, 2].

    `growth_inequality`, t2 + 2 (t3 + t4) >= 0 on [0, 2], holds for every
    beta in [0, 1): with w2 = (1 - b)^2 the sum factors as

        starlike: w2 (4 - c^2) ((19 - 6 b) c^2 - 16 c + 12) / 96,
        convex:   w2 (4 - c^2) ((13 - 3 b) c^2 - 12 c + 8) / 576,

    and the quadratics have positive leading coefficients and the
    discriminants 288 b - 656 and 96 b - 272, both negative for b < 1, so
    they are positive; w2 > 0 and 4 - c^2 >= 0 on [0, 2].
    `growth_factorization` checks the factored form against the terms; it
    and `positivity_factorization` are each one expression over `_FACTORS`.

    `trials` and `spot_samples` below 1 raise DomainError: no check may
    pass over zero draws.  So does a negative `seed`, which numpy rejects.
    """
    beta = bd.check_beta(beta)
    check_run_args(seed, trials, spot_samples)
    profile = bd.quartic_profile(family, beta)
    bound = bd.h22_bound(family, beta)
    checks: list[CheckResult] = []

    # closed form vs. 1-d grid maximization of the corner quartic
    grid_1d = opt.maximize_1d(profile.value, (0.0, 2.0))
    checks.append(
        _check("grid_max_matches_bound", abs(grid_1d.max_value - bound.bound), GRID_MAX_TOL)
    )

    # closed form vs. full 3-d scan of the majorant
    grid_3d = opt.maximize_surrogate(family, beta)
    checks.append(
        _check("surrogate_scan_matches_bound", abs(grid_3d.max_value - bound.bound), SURROGATE_TOL)
    )
    corner_dev = max(abs(grid_3d.argmax[1] - 1.0), abs(grid_3d.argmax[2] - 1.0))
    checks.append(_check("surrogate_argmax_at_corner", corner_dev, 1e-4))

    # term-level structure of the majorant on a c-grid
    cs = np.linspace(0.0, 2.0, C_POINTS)
    t1, t2, t3, t4 = bd.surrogate_terms(family, cs, beta)
    corner = bd.surface(family, 1.0, 1.0, cs, beta)
    checks.append(
        _check("corner_combination", np.max(np.abs(profile.value(cs) - corner)), ALGEBRA_TOL)
    )
    sign_violation = max(
        float(np.max(-t1)), float(np.max(-t2)), float(np.max(t3)), float(np.max(-t4))
    )
    checks.append(_check("term_sign_pattern", sign_violation, ALGEBRA_TOL))

    i3, i4 = t3[1:-1], t4[1:-1]  # the interior of the c-grid
    checks.append(
        _sign_check("hessian_negative", float(np.max(4.0 * i3 * (i3 + 2.0 * i4))))
    )

    w2 = (1.0 - beta) ** 2
    gap = 4.0 - cs * cs
    d, r, g2, g1, g, g0 = _FACTORS[family]
    factored = w2 * gap * (2.0 - cs) * (r - cs) / d
    growth_factored = w2 * gap * ((g2 - g1 * beta) * cs * cs - g * cs + g0) / d
    checks.append(
        _check(
            "positivity_factorization",
            float(np.max(np.abs((t3 + 2.0 * t4) - factored))),
            ALGEBRA_TOL,
        )
    )

    # the growth inequality and the factored form that proves it
    growth = t2 + 2.0 * (t3 + t4)
    checks.append(_check("growth_inequality", float(np.max(-growth)), ALGEBRA_TOL))
    checks.append(
        _check("growth_factorization", float(np.max(np.abs(growth - growth_factored))),
               ALGEBRA_TOL)
    )

    checks.append(
        _check("series_identity_residual", _series_worst(family, trials, seed), SERIES_TOL)
    )
    checks.append(
        _check("disk_param_coeff_bound", _disk_param_excess(spot_samples, seed),
               COEFF_BOUND_TOL)
    )
    checks.append(
        _check("herglotz_coeff_bound", _herglotz_excess(spot_samples, seed),
               COEFF_BOUND_TOL)
    )

    # empirical search never beats the closed form ...
    search = opt.empirical_max_h22(family, beta, spot_samples, seed + 4)
    checks.append(
        _check("empirical_dominance", search.max_value - bound.bound, DOMINANCE_SLACK)
    )

    # ... and the majorant dominates sample by sample
    dominance = max(
        float(np.max(opt.h22_batch(family, beta, c, x, y, z, w)
                     - bd.surface(family, np.abs(x), np.abs(y), c, beta)))
        for c, x, y, z, w in disk_param_blocks(spot_samples, seed + 5)
    )
    checks.append(_check("pointwise_majorant_dominance", dominance, POINTWISE_SLACK))

    # branch structure of the closed form
    if family is FamilyId.STARLIKE:
        split = bd.thresholds().branch_split
        left = bd.h22_bound(family, math.nextafter(split, 0.0)).bound
        right = bd.h22_bound(family, math.nextafter(split, 1.0)).bound
        checks.append(_check("branch_continuity", abs(left - right), CONTINUITY_TOL))
        if beta <= split:
            checks.append(
                _check(
                    "quartic_monotone",
                    float(np.max(-profile.derivative(cs))),
                    ALGEBRA_TOL,
                )
            )

    c_star = bd.critical_point(family, beta)
    if c_star is not None and c_star <= 2.0:
        checks.append(
            _check("critical_point_stationary", abs(profile.derivative(c_star)), STATIONARY_TOL)
        )
        checks.append(
            _sign_check("critical_point_maximum", profile.second_derivative(c_star))
        )

    if family is FamilyId.CONVEX:
        endpoint_dev = max(
            abs(profile.value(0.0) - w2 / 9.0),
            abs(profile.value(2.0) - w2 * (beta * beta - 2.0 * beta + 2.0) / 6.0),
        )
        checks.append(_check("endpoint_values", endpoint_dev, ALGEBRA_TOL))

    # continuity of the Fekete-Szego bound across each join it uses
    _, _, joins = bd._ROWS[family].fs
    join_dev = max(
        abs(bd.fekete_szego_bound(family, beta, m)
            - bd.fekete_szego_bound(family, beta, math.nextafter(m, outward)))
        for m, outward in zip(joins, (-math.inf, math.inf))
    )
    checks.append(_check("fs_branch_continuity", join_dev, ALGEBRA_TOL))

    return checks


def all_passed(checks: list[CheckResult]) -> bool:
    return all(c.passed for c in checks)
