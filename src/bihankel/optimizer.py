"""Grid maximizers and the empirical coefficient search.

Every closed-form maximum in this package is double-checked by brute force:
a deterministic grid scan with a few rounds of window refinement around the
incumbent.  Tie-breaking is always "lowest index wins" and refinement never
discards the incumbent value, so results are reproducible and nondecreasing
across rounds.

`empirical_max_h22` searches the actual parametrized coefficient set rather
than the majorant: it samples (c, x, y, z, w) and records the largest
|a2 a4 - a3^2| seen.  The free parameters z and w enter a2 a4 - a3^2 only
through a4, and linearly, so the kernel `h22_batch` evaluates it as
|A + B z + C w| with complex A and real B, C from `h22_terms`.
`h22_from_params` is the independent scalar route: `disk_coeffs` on both
sides, then `bi_coeffs`.  By construction the search can never exceed the
closed-form bound; the gap it leaves is an output of the tool, not an
assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from .caratheodory import check_disk_params, disk_coeffs, disk_param_blocks
from .errors import DomainError
from .functionals import FamilyId, Order, bi_coeffs


# Grid schedules: (points per axis, refinement rounds, shrink factor).  The
# 1-d scan of the corner quartic and the 3-d scan of the full majorant each
# run on one fixed schedule.
LINE_SCHEDULE = (2001, 3, 0.1)
CUBE_SCHEDULE = (61, 5, 0.2)


@dataclass(frozen=True)
class SearchResult:
    """Best value seen, where it was seen, and how much work it took.

    A row-stacked `maximize_1d` reports arrays over the rows.
    """

    max_value: float
    argmax: tuple
    evaluations: int
    seed: int = 0


def _evaluate(objective, xs: np.ndarray, **out) -> np.ndarray:
    """Call the objective on the array; a scalar result is broadcast."""
    ys = np.asarray(objective(xs, **out), dtype=float)
    if ys.shape != xs.shape:
        ys = np.broadcast_to(ys, xs.shape)
    return ys


def _window(center: float, half: float, lo: float, hi: float) -> tuple[float, float]:
    return max(lo, center - half), min(hi, center + half)


def _linspace(lo, hi, ramp: np.ndarray, out=None) -> np.ndarray:
    """`np.linspace(lo, hi, ramp.size)`, row by row for column arrays lo, hi.

    Same arithmetic as `np.linspace` (bar its branch for a step that
    underflows to zero): `ramp * step + lo` with `ramp = arange(size)`, and
    the last point set to `hi`.  The points go to `out` when it is given.
    """
    xs = np.multiply(ramp, (hi - lo) / (ramp.size - 1), out=out)
    xs += lo
    xs[..., -1:] = hi
    return xs


def maximize_1d(objective, interval: tuple[float, float]) -> SearchResult:
    """Grid maximization over a closed interval with window refinement.

    The scan follows `LINE_SCHEDULE`: 2001 points over the interval, then 3
    more rounds of 2001 points, each over a window a tenth as wide as the
    one before, centred on the incumbent and clipped to the interval.

    Ties go to the lowest index, so a constant objective reports the left
    endpoint.  The reported maximum is the best over *all* evaluated points.

    The scan runs on a stack of rows at once.  The first round calls the
    objective on the 1-d base grid; if it answers with shape (rows, points)
    (say, a profile of a beta array), each row is its own maximization and
    `max_value` and `argmax[0]` are arrays over the rows, `evaluations` the
    total.  Such a row-stacked objective must accept an `out` keyword: later
    rounds call `objective(xs, out=(scratch, values))` with (rows, points)
    arrays it may overwrite, allocated once per call with the points (see
    `QuarticProfile.value`).  A single objective is the one-row case: it
    reports floats and is called without `out`.  Each row's windows,
    points, incumbent and strict-`>` updates match a scan of that row alone.
    """
    n, rounds, shrink = LINE_SCHEDULE
    lo0, hi0 = float(interval[0]), float(interval[1])
    if not lo0 < hi0:
        raise DomainError(f"need low < high, got [{lo0}, {hi0}]")

    ramp = np.arange(n, dtype=float)
    xs = _linspace(lo0, hi0, ramp)
    ys = np.asarray(objective(xs), dtype=float)
    batched = ys.ndim == 2
    points, out = None, {}
    if batched:  # one block, not three: glibc then reuses it across calls
        points, scratch, values = np.empty((3, *ys.shape))
        out = {"out": (scratch, values)}
    else:
        ys = np.broadcast_to(ys, (1, ramp.size))
    xs = np.broadcast_to(xs, ys.shape)
    rows = np.arange(ys.shape[0])

    best_val = np.full(rows.size, -np.inf)
    best_x = np.full(rows.size, lo0)
    evals = 0
    width = hi0 - lo0
    for round_idx in range(rounds + 1):
        if round_idx > 0:
            width *= shrink
            half = width / 2.0
            lo = np.maximum(lo0, best_x - half)
            hi = np.minimum(hi0, best_x + half)
            xs = _linspace(lo[:, None], hi[:, None], ramp, out=points)
            ys = _evaluate(objective, xs, **out)
        evals += ys.size
        i = ys.argmax(axis=1)
        vals = ys[rows, i]
        better = vals > best_val
        best_val = np.where(better, vals, best_val)
        best_x = np.where(better, xs[rows, i], best_x)
    if batched:
        return SearchResult(best_val, (best_x,), evals)
    return SearchResult(float(best_val[0]), (float(best_x[0]),), evals)


def _refine_max(objective, axes, schedule) -> SearchResult:
    """Grid maximization over a box, refined around the incumbent.

    Each axis is a `(start, stop)` pair enumerated from start toward stop, and
    the objective is called once per round on the open mesh of the axes (one
    array per axis, broadcasting to the full grid).  Ties go to the lowest
    flat index, so the enumeration direction decides which point a plateau
    reports.  `schedule` is a `(points per axis, refinement rounds, shrink
    factor)` triple such as `CUBE_SCHEDULE`: every later round rescans a
    window of shrink factor times the previous width around the incumbent,
    clipped to the box; the incumbent is only replaced by a strictly larger
    value.
    """
    n, rounds, shrink = schedule
    box = [(min(a, b), max(a, b)) for a, b in axes]
    widths = [hi - lo for lo, hi in box]
    best_val = -np.inf
    best = tuple(float(start) for start, _ in axes)
    evals = 0
    for round_idx in range(rounds + 1):
        wins = box
        if round_idx > 0:
            widths = [w * shrink for w in widths]
            wins = [
                _window(b, w / 2.0, lo, hi)
                for b, w, (lo, hi) in zip(best, widths, box)
            ]
        points = [
            np.linspace(lo, hi, n) if start <= stop else np.linspace(hi, lo, n)
            for (lo, hi), (start, stop) in zip(wins, axes)
        ]
        vals = objective(*np.ix_(*points))
        evals += vals.size
        idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[idx] > best_val:
            best_val = float(vals[idx])
            best = tuple(float(p[i]) for p, i in zip(points, idx))
    return SearchResult(best_val, best, evals)


def maximize_surrogate(family: FamilyId, beta: float) -> SearchResult:
    """Maximize the full majorant over (c, lam, mu) in [0,2] x [0,1]^2.

    This is the brute-force counterpart of the closed-form bound: the two
    must agree to grid accuracy.  The scan is vectorized over a 3-d mesh
    and refined around the incumbent on `CUBE_SCHEDULE`.  Ties break at the
    lowest flat index; the lam and mu axes are enumerated from 1 downward,
    so planes where the surface degenerates to a constant (c = 2) still
    report the corner (1, 1) the maximum is approached through.
    """
    profile = bd.quartic_profile(family, beta)
    return _refine_max(
        lambda c, lam, mu: profile.surface(lam, mu, c),
        ((0.0, 2.0), (1.0, 0.0), (1.0, 0.0)),
        CUBE_SCHEDULE,
    )


# --- empirical search over the exact parametrization -----------------------

def h22_from_params(
    family: FamilyId,
    order: Order,
    c: float,
    x: complex,
    y: complex,
    z: complex,
    w: complex,
) -> complex:
    """a2 a4 - a3^2 of one draw, through both coefficient triples.

    (c2, c3) come from `disk_coeffs(c, x, z)`.  The inverse side is the
    same parametrization at d1 = -c:

        2 d2 = c^2 + y (4 - c^2)
        4 d3 = -c^3 - 2 (4 - c^2) c y + c (4 - c^2) y^2
               + 2 (4 - c^2) (1 - |y|^2) w,

    that is d3 = -e3 for (d2, e3) = `disk_coeffs(c, y, -w)`; negating w
    rather than c keeps the rounding of the direct side.  `bi_coeffs` then
    gives (a2, a3, a4) from c, c2 - d2 and c3 - d3.  This is independent
    of `h22_batch`, which never forms the coefficient triples: it checks
    the kernel's split into A + B z + C w.
    """
    check_disk_params(c, x, z)
    c2, c3 = disk_coeffs(c, x, z)
    d2, e3 = disk_coeffs(c, y, -w)
    a2, a3, a4 = bi_coeffs(family, 1.0 - order.beta, complex(c), c2 - d2, c3 + e3)
    return a2 * a4 - a3 ** 2


def h22_terms(family, beta, c, x, y):
    """(A, B, C) with a2 a4 - a3^2 = A + B z + C w, over arrays of draws.

    z and w enter the coefficients only through the third ones, linearly:
    with gap = 4 - c^2, c3 - d3 is its value at z = w = 0 plus
    gap ((1 - |x|^2) z - (1 - |y|^2) w) / 2, and a4 is linear in c3 - d3
    with weight k = (1 - beta)/6 (starlike) or (1 - beta)/24 (convex).
    So A is a2 a4 - a3^2 at z = w = 0, from `bi_coeffs` on the differences

        dc2 = (x - y) gap / 2
        dc3 = [2 c^3 + 2 gap c (x + y) - c gap (x^2 + y^2)] / 4,

    and B = a2 k gap (1 - |x|^2)/2 and C = -a2 k gap (1 - |y|^2)/2 are real,
    as a2 = (1 - beta) c or (1 - beta) c / 2 is.
    """
    om = 1.0 - beta
    gap = 4.0 - c * c
    dc2 = x - y
    dc2 *= gap / 2.0
    dc3 = x + y
    dc3 *= 2.0
    dc3 -= x * x + y * y
    dc3 *= c * gap
    dc3 += 2.0 * c * c * c
    dc3 *= 0.25
    a2, a3, a4 = bi_coeffs(family, om, c, dc2, dc3)
    a = a2 * a4
    a -= a3 * a3
    # k, the weight of dc3 in a4, is the a4 of c1 = dc2 = 0 and dc3 = 1
    half = a2 * gap
    half *= bi_coeffs(family, om, 0.0, 0.0, 1.0)[2] / 2.0
    b = 1.0 - abs(x) ** 2
    b *= half
    cw = abs(y) ** 2 - 1.0
    cw *= half
    return a, b, cw


def h22_batch(family, beta, c, x, y, z, w):
    """Vectorized |a2 a4 - a3^2| over sample arrays, as |A + B z + C w|.

    (A, B, C) come from `h22_terms`; `h22_from_params` is the independent
    scalar route through the coefficient triples.
    """
    h, b, cw = h22_terms(family, beta, c, x, y)
    h += b * z
    h += cw * w
    return np.abs(h)


def _sum_constraint_target(family: FamilyId, beta: float, c: np.ndarray) -> np.ndarray:
    """x + y enforcing the coefficient-sum relation dropped by the relaxation.

    Adding the two second-coefficient equations ties c2 + d2 to a2^2, which
    in the (c, x, y) variables reads x + y = 2 c^2 (1 - 2 b)/(4 - c^2) for
    the starlike family and x + y = -2 b c^2/(4 - c^2) for the convex one.
    """
    gap = 4.0 - c * c
    if family is FamilyId.STARLIKE:
        return 2.0 * c * c * (1.0 - 2.0 * beta) / gap
    return -2.0 * beta * c * c / gap


def check_search_args(samples: int, beta: float, boundary_fraction: float) -> float:
    """Validate the arguments of `empirical_max_h22` but the seed, which its
    sampler checks; returns beta as a float."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    beta = bd.check_beta(beta)
    if not 0.0 <= boundary_fraction <= 1.0:
        raise DomainError("boundary fraction must lie in [0, 1]")
    return beta


def empirical_max_h22(
    family: FamilyId,
    beta: float,
    samples: int,
    seed: int,
    boundary_fraction: float = 0.25,
    constrain_sum: bool = False,
) -> SearchResult:
    """Seeded random search over the exact coefficient parametrization.

    Draws c uniform on [0, 2] and x, y, z, w uniform on the closed unit
    disk; the first `boundary_fraction` of the x, y draws are forced onto
    the unit circle, since the majorant peaks at |x| = |y| = 1.  With
    `constrain_sum` the otherwise-dropped c2 + d2 relation is imposed by
    solving for y, discarding draws that leave the disk (an experiment, off
    by default; `evaluations` then counts the surviving samples).

    The draws come from `disk_param_blocks(samples, seed, boundary_fraction)`
    and are evaluated one block at a time, so memory does not grow with
    `samples`.  The draws do not depend on the block size and the running
    best is replaced only by a strictly larger value, so the result is the
    one a single argmax over all samples would give.
    """
    beta = check_search_args(samples, beta, boundary_fraction)

    best_val, argmax, kept = -np.inf, (), 0
    for c, x, y, z, w in disk_param_blocks(
        samples, seed, boundary_fraction, draw_y=not constrain_sum
    ):
        if constrain_sum:
            # c = 2 makes the relation vacuous (both sides vanish); away from
            # it solve for y and keep only draws that stay inside the disk.
            y = _sum_constraint_target(family, beta, c) - x
            keep = np.flatnonzero(np.abs(y) <= 1.0)
            if keep.size == 0:
                continue
            c, x, y, z, w = (v.take(keep) for v in (c, x, y, z, w))

        vals = h22_batch(family, beta, c, x, y, z, w)
        kept += vals.size
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            argmax = (float(c[i]), complex(x[i]), complex(y[i]), complex(z[i]), complex(w[i]))

    if kept == 0:
        return SearchResult(0.0, (), 0, seed)
    return SearchResult(best_val, argmax, kept, seed)
