"""Named consistency checks behind the `verify` command.

Each check pits a closed-form expression against an independent route to the
same quantity (grid maximization, series algebra, direct sampling) and reduces
its deviations, streamed or not, through one NaN-keeping maximum to a residual
checked against its tolerance; `verify` fails when any one check fails.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

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
    streamed_max,
)
from .errors import DomainError
from .functionals import FamilyId, check_beta, series_residual

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


CheckResult = namedtuple("CheckResult", "name value tolerance passed")


def _worst(parts) -> float:
    """Largest entry of scalar and array parts, NaN if any is (builtin `max` drops a later NaN)."""
    return float(np.max([np.max(part) for part in parts]))


def _check(name, tolerance, *deviations) -> CheckResult:
    value = _worst(deviations)
    return CheckResult(name, value, float(tolerance), value <= tolerance)


def _sign_check(name, *deviations) -> CheckResult:
    """Pass when the largest measured value is strictly negative."""
    value = _worst(deviations)
    return CheckResult(name, value, 0.0, value < 0.0)


# Spot checks that `run_checks` memoizes (see its docstring).  Each is a
# `streamed_max` over numpy blocks of seeded draws, with no per-draw Python
# object, and the caches hold only the scalar result.
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
    def excess(c, x, z):
        check_disk_params(c, x, z)
        return coeff_excess(c, *disk_coeffs(c, x, z))

    blocks = disk_param_blocks(spot_samples, seed + 2, draw_y=False)
    return streamed_max(((c, x, z) for c, x, _, z, _ in blocks), excess).max_value


@functools.lru_cache(maxsize=4)
def _herglotz_excess(spot_samples: int, seed: int) -> float:
    """Largest max_k |c_k| - 2 over seeded atomic Herglotz measures."""
    return streamed_max(herglotz_blocks(spot_samples, seed + 3), lambda *measure:
                        coeff_excess(*coeffs_from_herglotz(measure, 3).T)).max_value


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


# What every check of one `run_checks` call reads, with the corner quartic, the
# bound, and the majorant's terms (t1, t2, t3, t4) on `C_POINTS` points `cs` of [0, 2]
CheckContext = namedtuple("CheckContext",
                          "family beta seed trials spot_samples profile bound cs terms")


def _grid_scans(ctx):
    """Closed form vs. the 1-d scan of the corner quartic and the 3-d scan of the majorant.

    The scans run on fixed schedules: `maximize_1d` (the corner quartic on
    `LINE_SCHEDULE`) and `maximize_surrogate` (the majorant on
    `CUBE_SCHEDULE`) both run the one refinement loop
    `optimizer._refine_max`, the first on every grid point, the second on
    the corner line lam = mu = 1 and its neighbours, with a rounding
    certificate standing in for the rest of each c-slice (its result is bit
    for bit the full scan's).
    """
    bound = ctx.bound.bound
    grid_1d = opt.maximize_1d(ctx.profile.value, (0.0, 2.0))
    yield _check("grid_max_matches_bound", GRID_MAX_TOL, abs(grid_1d.max_value - bound))
    grid_3d = opt.maximize_surrogate(ctx.family, ctx.beta)
    yield _check("surrogate_scan_matches_bound", SURROGATE_TOL, abs(grid_3d.max_value - bound))
    yield _check("surrogate_argmax_at_corner", 1e-4,
                 abs(grid_3d.argmax[1] - 1.0), abs(grid_3d.argmax[2] - 1.0))


def _term_structure(ctx):
    """Term-level structure of the majorant on the c-grid.

    `growth_inequality`, t2 + 2 (t3 + t4) >= 0 on [0, 2], holds for every
    beta in [0, 1): with w2 = (1 - b)^2 the sum factors as

        starlike: w2 (4 - c^2) ((19 - 6 b) c^2 - 16 c + 12) / 96,
        convex:   w2 (4 - c^2) ((13 - 3 b) c^2 - 12 c + 8) / 576,

    and the quadratics have positive leading coefficients and the
    discriminants 288 b - 656 and 96 b - 272, both negative for b < 1, so
    they are positive; w2 > 0 and 4 - c^2 >= 0 on [0, 2].
    `growth_factorization` checks the factored form against the terms; it
    and `positivity_factorization` are each one expression over the family's
    `bounds._ROWS` factors.
    """
    family, beta, cs = ctx.family, ctx.beta, ctx.cs
    t1, t2, t3, t4 = ctx.terms
    corner = bd.surface(family, 1.0, 1.0, cs, beta)
    yield _check("corner_combination", ALGEBRA_TOL, np.abs(ctx.profile.value(cs) - corner))
    yield _check("term_sign_pattern", ALGEBRA_TOL, -t1, -t2, t3, -t4)
    i3, i4 = t3[1:-1], t4[1:-1]  # the interior of the c-grid
    yield _sign_check("hessian_negative", 4.0 * i3 * (i3 + 2.0 * i4))
    w2 = (1.0 - beta) ** 2
    gap = 4.0 - cs * cs
    d, r, g2, g1, g, g0 = bd._ROWS[family].factors
    factored = w2 * gap * (2.0 - cs) * (r - cs) / d
    yield _check("positivity_factorization", ALGEBRA_TOL, np.abs(t3 + 2.0 * t4 - factored))
    growth = t2 + 2.0 * (t3 + t4)
    growth_factored = w2 * gap * ((g2 - g1 * beta) * cs * cs - g * cs + g0) / d
    yield _check("growth_inequality", ALGEBRA_TOL, -growth)
    yield _check("growth_factorization", ALGEBRA_TOL, np.abs(growth - growth_factored))


def _spot_checks(ctx):
    """The memoized spot checks: series algebra and the two |c_k| <= 2 samplers."""
    samples, seed = ctx.spot_samples, ctx.seed
    yield _check("series_identity_residual", SERIES_TOL,
                 _series_worst(ctx.family, ctx.trials, seed))
    yield _check("disk_param_coeff_bound", COEFF_BOUND_TOL, _disk_param_excess(samples, seed))
    yield _check("herglotz_coeff_bound", COEFF_BOUND_TOL, _herglotz_excess(samples, seed))


def _sampled_dominance(ctx):
    """The empirical search never beats the bound; the majorant dominates |H| per sample."""
    family, beta = ctx.family, ctx.beta
    search = opt.empirical_max_h22(family, beta, ctx.spot_samples, ctx.seed + 4)
    yield _check("empirical_dominance", DOMINANCE_SLACK, search.max_value - ctx.bound.bound)
    dominance = streamed_max(disk_param_blocks(ctx.spot_samples, ctx.seed + 5),
                             lambda c, x, y, z, w: opt.h22_batch(family, beta, c, x, y, z, w)
                                 - bd.surface(family, np.abs(x), np.abs(y), c, beta))
    yield _check("pointwise_majorant_dominance", POINTWISE_SLACK, dominance.max_value)


def _branch_structure(ctx):
    """The starlike bound is continuous at its split; up to it the corner quartic rises."""
    split = bd.thresholds().branch_split
    left = bd.h22_bound(ctx.family, math.nextafter(split, 0.0)).bound
    right = bd.h22_bound(ctx.family, math.nextafter(split, 1.0)).bound
    yield _check("branch_continuity", CONTINUITY_TOL, abs(left - right))
    if ctx.beta <= split:
        yield _check("quartic_monotone", ALGEBRA_TOL, -ctx.profile.derivative(ctx.cs))


def _critical_point(ctx):
    """The corner quartic peaks at c*; on the interior branch, a c* not in [0, 2] fails both."""
    profile, c_star = ctx.profile, bd.critical_point(ctx.family, ctx.beta)
    on_range = c_star is not None and 0.0 <= c_star <= 2.0
    if on_range or ctx.bound.branch is bd.Branch.INTERIOR_CRITICAL:
        slope, curvature = ((profile.derivative(c_star), profile.second_derivative(c_star))
                            if on_range else (math.nan, math.nan))
        yield _check("critical_point_stationary", STATIONARY_TOL, abs(slope))
        yield _sign_check("critical_point_maximum", curvature)


def _endpoint_values(ctx):
    """The convex corner quartic takes its closed-form values at c = 0 and c = 2."""
    beta, value = ctx.beta, ctx.profile.value
    w2 = (1.0 - beta) ** 2
    f, at_c2, d = bd._ROWS[ctx.family].at_c2
    yield _check("endpoint_values", ALGEBRA_TOL, abs(value(0.0) - w2 / 9.0),
                 abs(value(2.0) - f * w2 * bd._quadratic(at_c2, beta) / d))


def _fs_continuity(ctx):
    """The Fekete-Szego bound is continuous across each join it uses."""
    _, _, joins = bd._ROWS[ctx.family].fs
    yield _check("fs_branch_continuity", ALGEBRA_TOL, *(
        abs(bd.fekete_szego_bound(ctx.family, ctx.beta, m)
            - bd.fekete_szego_bound(ctx.family, ctx.beta, math.nextafter(m, outward)))
        for m, outward in zip(joins, (-math.inf, math.inf))
    ))


# Every check of `verify`, in report order, with the families it runs for.
# Each function takes a `CheckContext` and yields its `CheckResult`s.
_BOTH = tuple(FamilyId)
CHECKS = (
    (_grid_scans, _BOTH),
    (_term_structure, _BOTH),
    (_spot_checks, _BOTH),
    (_sampled_dominance, _BOTH),
    (_branch_structure, (FamilyId.STARLIKE,)),
    (_critical_point, _BOTH),
    (_endpoint_values, (FamilyId.CONVEX,)),
    (_fs_continuity, _BOTH),
)


def run_checks(
    family: FamilyId,
    beta: float,
    *,
    seed: int = 0,
    trials: int = 100,
    spot_samples: int = 2000,
) -> list[CheckResult]:
    """Run every entry of `CHECKS` that names the family, for one (family, beta).

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

    `trials` and `spot_samples` below 1 raise DomainError: no check may
    pass over zero draws.  So does a negative `seed`, which numpy rejects.
    """
    beta = check_beta(beta)
    check_run_args(seed, trials, spot_samples)
    cs = np.linspace(0.0, 2.0, C_POINTS)
    ctx = CheckContext(family, beta, seed, trials, spot_samples, bd.quartic_profile(family, beta),
                       bd.h22_bound(family, beta), cs, bd.surrogate_terms(family, cs, beta))
    return [result for run, families in CHECKS if family in families for result in run(ctx)]


def all_passed(checks: list[CheckResult]) -> bool:
    return all(c.passed for c in checks)
