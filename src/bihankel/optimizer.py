"""Grid maximizers and the empirical coefficient search.

Every closed-form maximum in this package is double-checked by brute force:
`_refine_max`, a deterministic grid scan with a few rounds of window
refinement around the incumbent, on a fixed schedule per scan.  Its tie and
update rules, stated there once, make results reproducible and
nondecreasing across rounds.  Each round hands an evaluator the round's
window per axis; the evaluator builds the grid points it needs and returns
the maximum, its point and its evaluation count.  `_mesh_max` evaluates the
whole grid; `_corner_line_max` gives the majorant's full-grid result bit
for bit from the corner line lam = mu = 1 and its neighbours, under a
rounding certificate; `_band_round` does the same for a stack of quartics
from a band around each one's peak.  The incumbent may be a stack of rows,
so `quartic_grid_max` scans many quartics in one `_refine_max` call.

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

from functools import partial

import numpy as np

from . import bounds as bd
from .caratheodory import (SearchResult, check_disk_params, check_seed, check_unit_disk,
                           disk_coeffs, disk_param_blocks, streamed_max)
from .errors import DomainError
from .functionals import _SYSTEMS, FamilyId, Order, bi_coeffs, check_beta


# Grid schedules: (points per axis, refinement rounds, shrink factor).  The
# 1-d scan of the corner quartic and the 3-d scan of the full majorant each
# run on one fixed schedule.
LINE_SCHEDULE = (2001, 3, 0.1)
CUBE_SCHEDULE = (61, 5, 0.2)
# `quartic_grid_max` scans 2 QUARTIC_BAND + 1 of a round's LINE_SCHEDULE
# points, centred on the quartic's predicted peak
QUARTIC_BAND = 8


def _window(center, half, lo, hi):
    """[center - half, center + half] clipped to [lo, hi]; floats or arrays."""
    return np.maximum(lo, center - half), np.minimum(hi, center + half)


def _grid_points(lo, hi, index, n: int) -> np.ndarray:
    """Points `index` of the n-point grid from lo to hi.

    Same arithmetic as numpy's `linspace(lo, hi, n)` (bar its branch for a step
    that underflows to zero): `index * step + lo` with step = (hi - lo)/(n - 1),
    and the last point, index n - 1, set to hi; hi < lo enumerates downward.
    lo and hi may be (rows, 1) columns and `index` a float array that
    broadcasts against them.
    """
    xs = index * ((hi - lo) / (n - 1))
    xs += lo
    np.copyto(xs, hi, where=index == n - 1)
    return xs


def maximize_1d(objective, interval: tuple[float, float]) -> SearchResult:
    """`_refine_max` of `objective` over the closed interval on `LINE_SCHEDULE`.

    2001 points over the interval, then 3 more rounds of 2001 points, each
    over a window a tenth as wide as the one before.  A constant objective
    reports the left endpoint.  The objective is called on a 1-d array of
    points; a scalar answer is broadcast over them.  The width hi - lo must
    be finite and positive.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not 0.0 < hi - lo < np.inf:
        raise DomainError(f"need low < high and a finite width, got [{lo}, {hi}]")
    return _refine_max(partial(_mesh_max, objective), ((lo, hi),), LINE_SCHEDULE)


def _band_max(profile: bd.QuarticProfile, lo, hi, index):
    """Q on grid points `index` of each row's window [lo, hi]: the values,
    then each row's first-index maximum and its point."""
    xs = _grid_points(lo[:, None], hi[:, None], index, LINE_SCHEDULE[0])
    ys = profile.value(xs)
    rows = np.arange(ys.shape[0])
    i = ys.argmax(axis=1)
    return ys, ys[rows, i], xs[rows, i]


def _band_round(profile: bd.QuarticProfile, peak, two_e, quasi_concave, windows, ramp):
    """`_refine_max`'s round of a stack of quartics: the band of each row's
    grid around its `peak`, certified as in `quartic_grid_max`, and the
    whole grid of each row that fails the certificate."""
    lo, hi = (np.broadcast_to(end, peak.shape) for end in windows[0])  # round 0: floats
    n, width = ramp.size, 2 * QUARTIC_BAND + 1
    centre = np.rint((peak - lo) / ((hi - lo) / (n - 1)))
    first = np.fmin(np.fmax(centre - QUARTIC_BAND, 0.0), n - width)  # fmax: NaN -> 0
    ys, vals, xs = _band_max(profile, lo, hi, first[:, None] + ramp[:width])
    certified = (quasi_concave
                 & ((first == 0.0) | (ys[:, 0] + two_e < vals))
                 & ((first == n - width) | (ys[:, -1] + two_e < vals)))
    redo = np.flatnonzero(~certified)
    if redo.size:
        rows = bd.QuarticProfile(profile.alpha4[redo], profile.alpha2[redo], profile.alpha0[redo])
        _, vals[redo], xs[redo] = _band_max(rows, lo[redo], hi[redo], ramp)
    return vals, (xs,), ys.size + redo.size * n


def quartic_grid_max(profile: bd.QuarticProfile) -> SearchResult:
    """`maximize_1d(Q, (0, 2))` for each row of a beta-array profile, from a
    band of 2 QUARTIC_BAND + 1 grid points per round instead of 2001.

    `max_value` and `argmax[0]` are arrays over the rows, equal bit for bit
    to the one-row scans; `evaluations` counts the points Q was evaluated on.
    The scan is `_refine_max` over the stack of rows, whose rounds
    (`_band_round`) evaluate only the band around the predicted peak: c = 2
    when alpha4 >= 0, else c* = sqrt(-alpha2 / (2 alpha4)).  The hint only
    places the band; a certificate decides whether the band's maximum is
    the round's.  A row that fails it is rescanned on all 2001 points.

    The certificate.  Let Q~ be the quartic with the stored float alphas.
    With alpha2 > 0 (true of both families on [0, 1)) Q~'(c) = 2c (2 alpha4
    c^2 + alpha2) is positive on (0, c*) and negative past it (or positive
    throughout when alpha4 >= 0), so Q~ is quasi-concave on c >= 0:
    Q~(y) >= min(Q~(x), Q~(z)) for x <= y <= z.  `value` computes Q in the
    order c2 = c c, alpha4 c2 c2 + alpha2 c2 + alpha0, so each alpha4 term
    carries 6 roundings, each alpha2 term 4 and alpha0 one, and for c in
    [0, 2]

        |fl(Q(c)) - Q~(c)| <= gamma_6 (16 |alpha4| + 4 |alpha2| + |alpha0|)
                            <= E = 8u (16 |alpha4| + 4 |alpha2| + |alpha0|),

    u = 2^-53, gamma_k = k u / (1 - k u).  The margin of E over the gamma_6
    term absorbs the rounding of E itself, and underflow: |alpha0| >=
    (1 - b)^2 / 9 >= 2^-110, so 2u |alpha0| dwarfs six subnormal errors.
    The grid points are nondecreasing in the index (both roundings of
    `index * step + lo` are monotone) and lie in [lo, hi].  Let m = fl(Q)
    at the band's first-index maximum p, and a the band's first index.  If
    fl(Q(x_a)) + 2E < m, then Q~(x_a) < Q~(x_p), so for any j < a
    quasi-concavity gives Q~(x_j) <= Q~(x_a), and fl(Q(x_j)) <= fl(Q(x_a))
    + 2E < m; the right edge is the mirror image.  When both edges that are
    not window ends pass (and alpha2 > 0), every point outside the band
    falls strictly below m, so the full grid's first-index argmax is p, the
    round's result as `_refine_max` defines it.  A float test `q + 2E < m`
    implies the real one, as m is a double.
    """
    alpha4, alpha2, alpha0 = (np.ravel(a) for a in (profile.alpha4, profile.alpha2, profile.alpha0))
    with np.errstate(divide="ignore", invalid="ignore"):
        peak = np.where(alpha4 < 0.0, np.sqrt(-alpha2 / (2.0 * alpha4)), 2.0)
    two_e = 16.0 * np.abs(alpha4) + 4.0 * np.abs(alpha2) + np.abs(alpha0)
    two_e *= 2.0 ** -49  # 2E = 16u (16 |alpha4| + 4 |alpha2| + |alpha0|)
    return _refine_max(partial(_band_round, profile, peak, two_e, alpha2 > 0.0),
                       ((0.0, 2.0),), LINE_SCHEDULE)


def _refine_max(evaluate, axes, schedule) -> SearchResult:
    """Grid maximization over a box, refined around the incumbent.

    Each axis is a `(start, stop)` pair enumerated from start toward stop.
    `schedule` is a `(points per axis, refinement rounds, shrink factor)`
    triple such as `LINE_SCHEDULE`: every later round rescans a window of
    shrink factor times the previous width around the incumbent, clipped to
    the box.  `evaluate(windows, ramp)` is called once per round with the
    round's `(start, stop)` window per axis and `ramp`, the grid indices
    0..n-1 as floats, built once per scan.  It builds the points it needs
    with `_grid_points(start, stop, index, n)` and returns the maximum over
    the round's mesh, its point (one coordinate per axis) and the number of
    points it evaluated; `partial(_mesh_max, objective)` evaluates them all.

    The incumbent may be a stack of rows: an evaluator may return arrays
    over rows, and the windows are then arrays too.  Ties go to the lowest
    flat index: an evaluator reports the first maximum in C order, so the
    enumeration direction decides which point a plateau reports, and a
    constant objective reports the start corner.  Each row's incumbent is
    replaced only by a strictly larger value, so never by a NaN, and the
    reported maximum is the best over all evaluated points.  A one-row scan
    reports Python floats, a stack arrays over the rows.
    """
    n, rounds, shrink = schedule
    box = [(min(a, b), max(a, b)) for a, b in axes]
    widths = [hi - lo for lo, hi in box]
    ramp = np.arange(n, dtype=float)
    best_val = -np.inf
    best = [float(start) for start, _ in axes]
    evals = 0
    for round_idx in range(rounds + 1):
        wins = box
        if round_idx > 0:
            widths = [w * shrink for w in widths]
            wins = [_window(b, w / 2.0, lo, hi) for b, w, (lo, hi) in zip(best, widths, box)]
        windows = [(lo, hi) if start <= stop else (hi, lo)
                   for (lo, hi), (start, stop) in zip(wins, axes)]
        value, point, count = evaluate(windows, ramp)
        evals += count
        better = value > best_val
        best_val = np.where(better, value, best_val)
        best = [np.where(better, p, b) for p, b in zip(point, best)]
    if best_val.ndim == 0:
        return SearchResult(float(best_val), tuple(map(float, best)), evals)
    return SearchResult(best_val, tuple(best), evals)


def _mesh_max(objective, windows, ramp):
    """`_refine_max`'s round for a plain objective: the objective on the open
    mesh of the windows' grids (one array per axis, broadcasting to the full
    grid), its answer broadcast over the mesh, and the first-index maximum."""
    points = [_grid_points(start, stop, ramp, ramp.size) for start, stop in windows]
    vals = np.asarray(objective(*np.ix_(*points)), dtype=float)
    vals = np.broadcast_to(vals, tuple(p.size for p in points))
    idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return vals[idx], [p[i] for p, i in zip(points, idx)], vals.size


def _corner_line_max(family: FamilyId, beta: float, windows, ramp):
    """`_refine_max`'s round of the majorant of (family, beta): `_mesh_max` of
    `bounds.surface` bit for bit, from the corner line and its neighbours
    where the certificate in `maximize_surrogate` holds, rescanning the
    (lam, mu) grid of each c where it fails, and the whole mesh when lam or
    mu does not start at 1.  The terms come from `bounds.surrogate_terms`."""
    if windows[1][0] != 1.0 or windows[2][0] != 1.0:
        return _mesh_max(lambda c, x, y: bd.surface(family, x, y, c, beta), windows, ramp)
    n = ramp.size
    cs, lam, mu = (_grid_points(start, stop, ramp, n) for start, stop in windows)
    t1, t2, t3, t4 = bd.surrogate_terms(family, cs, beta)
    a2, a3, a4 = np.abs(t2), np.abs(t3), np.abs(t4)
    monotone = (t2 >= 0.0) & (t4 >= 0.0)
    monotone &= t2 + 2.0 * (t3 + t4) >= 2.0 ** -51 * (a2 + 2.0 * a3 + 2.0 * a4)  # 4u M
    two_e = np.abs(t1) + 2.0 * a2 + 2.0 * a3 + 4.0 * a4
    two_e *= 2.0 ** -49  # 2E = 16u S
    line = bd.surface(family, np.array([1.0, lam[1], 1.0]), np.array([1.0, 1.0, mu[1]]),
                      cs[:, None], beta)
    vals = line[:, 0].copy()
    certified = monotone & (np.maximum(line[:, 1], line[:, 2]) + two_e < vals)
    redo = np.flatnonzero(~certified)
    lam_mu = np.zeros((2, n), dtype=np.intp)  # each slice's first-index argmax
    if redo.size:
        slices = bd.surface(family, lam[:, None], mu, cs[redo, None, None], beta)
        slices = slices.reshape(redo.size, -1)
        first = slices.argmax(axis=1)
        vals[redo] = slices[np.arange(redo.size), first]
        lam_mu[:, redo] = np.divmod(first, n)
    i = int(np.argmax(vals))
    return vals[i], (cs[i], lam[lam_mu[0, i]], mu[lam_mu[1, i]]), 3 * n + redo.size * n * n


def maximize_surrogate(family: FamilyId, beta: float) -> SearchResult:
    """Maximize the full majorant over (c, lam, mu) in [0,2] x [0,1]^2.

    This is the brute-force counterpart of the closed-form bound: the two
    must agree to grid accuracy.  The result is bit for bit `_refine_max`
    of the whole 61^3 mesh of `bounds.surface` on `CUBE_SCHEDULE`, whose ties
    break at the lowest flat index; the lam and mu axes are enumerated from
    1 downward, so planes where the surface degenerates to a constant
    (c = 2) still report the corner (1, 1) the maximum is approached
    through.  Each round evaluates only the corner line (c, 1, 1) and its
    neighbours (c, lam1, 1) and (c, 1, mu1), lam1 and mu1 being the second
    points of the two axes; a certificate shows that no other point of a
    c-slice computes above its corner, and a slice that fails it is
    rescanned on its 61 x 61 (lam, mu) grid (`_corner_line_max`).  A round
    whose lam or mu window does not start at 1 is rescanned in full.
    `evaluations` counts the points evaluated.  The rounds call
    `bounds.surface` of (family, beta); no quartic profile is built.

    The certificate.  Let F~ be the surface with a slice's stored float
    terms t1..t4, evaluated exactly.  Its partial derivative

        dF~/dlam = t2 + 2 lam (t3 + t4) + 2 t4 mu

    is linear in (lam, mu), so it is >= 0 on [0, 1]^2 when it is at the four
    vertices: when t2 >= 0, t4 >= 0 and g = t2 + 2 (t3 + t4) >= 0, the
    growth inequality `run_checks` proves; mu is symmetric.  The float g
    carries two roundings, an error below 2.01u M with M = |t2| + 2 |t3| +
    2 |t4| and u = 2^-53, so a float g >= 4u M proves g >= 0.  F~ is then
    nondecreasing in lam and in mu on the square.  An axis enumerated
    downward is nonincreasing in the index and starts exactly at its top
    (0 * step + hi), here 1; so every grid point p of the slice but the
    corner has lam <= lam1 or mu <= mu1, and F~(p) <= max(F~(lam1, 1),
    F~(1, mu1)).

    `surface` computes t1 + t2 s + t3 (lam lam + mu mu) + t4 (s s), s =
    lam + mu, left to right: the t1 term carries 3 roundings and the
    others 5 each.  With s <= 2, lam^2 + mu^2 <= 2 and s^2 <= 4,

        |fl(F(p)) - F~(p)| <= gamma_5 S <= E = 8u S,
        S = |t1| + 2 |t2| + 2 |t3| + 4 |t4|,

    gamma_k = k u / (1 - k u).  The margin of E over gamma_5 S absorbs the
    rounding of E itself, and underflow: 1 - b >= 2^-53 and the grid's
    nonzero c exceed 10^-5, so S > 2^-130, far above the few subnormal
    errors (< 2^-1070 each) the products can add.  Let nb be the larger
    neighbour's float value and m the corner's.  If nb + 2E < m in floats,
    then also in reals (m is a double and rounding is monotone), and every
    other point p of the slice has fl(F(p)) <= F~(p) + E <= F~(nb) + E <=
    nb + 2E < m.  So m is the slice's maximum and the corner, the slice's
    first flat index, its first-index argmax.  The round's first-index
    maximum is then the first c whose certified or rescanned slice maximum
    is the largest, as the full scan finds it.

    At c = 2 the gap 4 - c^2 is 0, so t2 = t3 = t4 = 0: the slice is flat,
    fails the certificate (nb = m) and is rescanned.
    """
    return _refine_max(partial(_corner_line_max, family, check_beta(beta)),
                       ((0.0, 2.0), (1.0, 0.0), (1.0, 0.0)), CUBE_SCHEDULE)


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
    the kernel's split into A + B z + C w.  Both sides are validated.
    """
    check_disk_params(c, x, z)
    check_unit_disk(y=y, w=w)
    c2, c3 = disk_coeffs(c, x, z)
    d2, e3 = disk_coeffs(c, y, -w)
    a2, a3, a4 = bi_coeffs(family, 1.0 - order.beta, complex(c), c2 - d2, c3 + e3)
    return a2 * a4 - a3 ** 2


def h22_terms(family, beta, c, x, y):
    """(A, B, C) with a2 a4 - a3^2 = A + B z + C w, over arrays of draws.

    z and w enter the coefficients only through the third ones, linearly:
    with gap = 4 - c^2, c3 - d3 is its value at z = w = 0 plus
    gap ((1 - |x|^2) z - (1 - |y|^2) w) / 2, and a4 is linear in c3 - d3
    with weight (1 - beta)/k, k being a4's divisor in `bi_coeffs` (6
    starlike, 24 convex; the family's row of `functionals._SYSTEMS`).
    So A is a2 a4 - a3^2 at z = w = 0, from `bi_coeffs` on the differences

        dc2 = (x - y) gap / 2
        dc3 = [2 c^3 + 2 gap c (x + y) - c gap (x^2 + y^2)] / 4,

    and B = a2 (1 - beta)/k gap (1 - |x|^2)/2 and C = -a2 (1 - beta)/k gap
    (1 - |y|^2)/2 are real, as a2 = h (1 - beta) c is.  c, x and y broadcast
    against each other, and the terms have their common shape.
    """
    c, x, y = np.broadcast_arrays(c, x, y)
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
    half = a2 * gap
    half *= om / _SYSTEMS[family].divisor / 2.0
    b = 1.0 - abs(x) ** 2
    b *= half
    cw = abs(y) ** 2 - 1.0
    cw *= half
    return a, b, cw


def h22_batch(family, beta, c, x, y, z, w):
    """Vectorized |a2 a4 - a3^2| over sample arrays, as |A + B z + C w|.

    (A, B, C) come from `h22_terms`; `h22_from_params` is the independent
    scalar route through the coefficient triples.  The five arrays broadcast
    against each other.
    """
    c, x, y, z, w = np.broadcast_arrays(c, x, y, z, w)
    h, b, cw = h22_terms(family, beta, c, x, y)
    h += b * z
    h += cw * w
    return np.abs(h)


def _sum_constraint_target(family: FamilyId, beta: float, c: np.ndarray) -> np.ndarray:
    """x + y enforcing the coefficient-sum relation dropped by the relaxation.

    Adding the two second-coefficient equations ties c2 + d2 to a2^2, which
    in the (c, x, y) variables reads x + y = 2 c^2 (1 - 2 b)/(4 - c^2) for
    the starlike family and x + y = -2 b c^2/(4 - c^2) for the convex one,
    both written over the family's `sum_target` in `_SYSTEMS`.
    """
    (u1, u0), (v1, v0) = _SYSTEMS[family].sum_target
    return (u1 * beta + u0) * c * c * (v1 * beta + v0) / (4.0 - c * c)


def check_search_args(samples: int, beta: float, boundary_fraction: float, seed: int) -> float:
    """Validate the arguments of `empirical_max_h22`, in this order, before it
    draws; returns beta as a float."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    beta = check_beta(beta)
    if not 0.0 <= boundary_fraction <= 1.0:
        raise DomainError("boundary fraction must lie in [0, 1]")
    check_seed(seed)
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
    and are reduced one block at a time by `streamed_max`, so memory does not
    grow with `samples` and the result is one argmax over all samples (or
    `SearchResult(0.0, (), 0)` when no sample is kept).
    """
    beta = check_search_args(samples, beta, boundary_fraction, seed)
    blocks = disk_param_blocks(samples, seed, boundary_fraction, draw_y=not constrain_sum)
    if constrain_sum:
        blocks = map(partial(_on_sum_relation, family, beta), blocks)
    return streamed_max(blocks, partial(h22_batch, family, beta))


def _on_sum_relation(family: FamilyId, beta: float, block):
    """A block's draws with y solved from the sum relation (vacuous at c = 2,
    where both sides vanish), keeping those with |y| <= 1."""
    c, x, _, z, w = block
    y = _sum_constraint_target(family, beta, c) - x
    keep = np.flatnonzero(np.abs(y) <= 1.0)
    return tuple(v.take(keep) for v in (c, x, y, z, w))
