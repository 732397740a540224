import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bihankel.bounds import (
    QuarticProfile,
    h22_bound,
    quartic_profile,
    surface,
    surrogate_terms,
    thresholds,
)
from bihankel import bounds as bd
from bihankel import caratheodory as car
from bihankel import optimizer as opt
from bihankel.cli import TABLE_BLOCK_ROWS
from bihankel.caratheodory import (
    SearchResult,
    check_disk_params,
    disk_coeffs,
    disk_param_blocks,
    unit_circle_samples,
    unit_disk_samples,
)
from bihankel.errors import ConstraintViolation, DomainError
from bihankel.functionals import FamilyId, Order, bi_coeffs
from bihankel.optimizer import (
    _corner_line_max,
    _grid_points,
    _mesh_max,
    _refine_max,
    CUBE_SCHEDULE,
    LINE_SCHEDULE,
    QUARTIC_BAND,
    empirical_max_h22,
    h22_from_params,
    maximize_1d,
    maximize_surrogate,
    h22_batch,
    h22_terms,
    quartic_grid_max,
)


class TestMaximize1d:
    def test_constant_objective_reports_left_endpoint(self):
        result = maximize_1d(lambda c: 5.0, (0.0, 2.0))
        assert result.max_value == 5.0
        assert result.argmax == (0.0,)

    def test_known_parabola(self):
        result = maximize_1d(lambda x: 0.3 - (x - 0.7) ** 2, (0.0, 2.0))
        assert abs(result.max_value - 0.3) < 1e-10
        assert abs(result.argmax[0] - 0.7) < 1e-5

    def test_starlike_quartic_at_beta0(self):
        profile = quartic_profile(FamilyId.STARLIKE, 0.0)
        result = maximize_1d(profile.value, (0.0, 2.0))
        assert abs(result.max_value - 20 / 3) < 1e-8
        assert result.argmax[0] == 2.0

    def test_convex_quartic_at_beta0(self):
        profile = quartic_profile(FamilyId.CONVEX, 0.0)
        result = maximize_1d(profile.value, (0.0, 2.0))
        assert abs(result.max_value - 1 / 3) < 1e-8
        assert abs(result.argmax[0] - 2.0) < 1e-4

    def test_refinement_never_loses_ground(self):
        profile = quartic_profile(FamilyId.CONVEX, 0.35)
        coarse, _, _ = reference_maximize_1d(profile.value, (0.0, 2.0), rounds=0)
        refined = maximize_1d(profile.value, (0.0, 2.0))
        assert refined.max_value >= coarse
        assert abs(refined.max_value - h22_bound(FamilyId.CONVEX, 0.35).bound) < 1e-9

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            maximize_1d(lambda x: x, (1.0, 1.0))

    def test_schedule_is_pinned(self):
        # 2001 points in each of 1 + 3 rounds, per row; the band scan
        # evaluates 2 * 8 + 1 of them per round when every band certifies
        assert LINE_SCHEDULE == (2001, 3, 0.1) and QUARTIC_BAND == 8
        profile = quartic_profile(FamilyId.STARLIKE, 0.3)
        assert maximize_1d(profile.value, (0.0, 2.0)).evaluations == 8004
        stacked = quartic_profile(FamilyId.STARLIKE, [0.1, 0.3, 0.5, 0.7, 0.9])
        assert quartic_grid_max(stacked).evaluations == 5 * 4 * 17

    # an infinite width makes every grid point NaN (0 * inf), and hi - lo
    # overflows on (-1e308, 1e308): both would report -inf at lo
    @pytest.mark.parametrize("interval", [(1.0, 1.0), (2.0, 0.0), (math.nan, 1.0),
                                          (0.0, math.inf), (-1e308, 1e308)])
    def test_invalid_interval_is_a_domain_error(self, interval):
        with pytest.raises(DomainError, match="need low < high and a finite width"):
            maximize_1d(lambda x: -x * x, interval)


def reference_maximize_1d(objective, interval, rounds=LINE_SCHEDULE[1]):
    """maximize_1d before the row stack: one scalar scan per objective."""
    points, _, shrink = LINE_SCHEDULE
    lo0, hi0 = float(interval[0]), float(interval[1])
    best_val = -np.inf
    best_x = lo0
    evals = 0
    width = hi0 - lo0
    lo, hi = lo0, hi0
    for round_idx in range(rounds + 1):
        if round_idx > 0:
            width *= shrink
            lo, hi = max(lo0, best_x - width / 2.0), min(hi0, best_x + width / 2.0)
        xs = np.linspace(lo, hi, points)
        ys = np.broadcast_to(np.asarray(objective(xs), dtype=float), xs.shape)
        evals += xs.size
        i = int(np.argmax(ys))
        if ys[i] > best_val:
            best_val = float(ys[i])
            best_x = float(xs[i])
    return best_val, best_x, evals


def reference_rows(objectives, interval=(0.0, 2.0)):
    scans = [reference_maximize_1d(f, interval) for f in objectives]
    return (np.array([s[0] for s in scans]), np.array([s[1] for s in scans]),
            sum(s[2] for s in scans))


def band_rows(family, betas, block):
    """quartic_grid_max over the betas' array profiles, `block` rows per call."""
    values, argmaxes, evals = [], [], 0
    for start in range(0, len(betas), block):
        scan = quartic_grid_max(quartic_profile(family, betas[start:start + block]))
        values.append(scan.max_value)
        argmaxes.append(scan.argmax[0])
        evals += scan.evaluations
    return np.concatenate(values), np.concatenate(argmaxes), evals


# the table-sweep grid: beta in [0, 0.99] at step 4e-4, 2476 rows
SWEEP_BETAS = tuple(k * 4e-4 for k in range(2476))


def one_row_scans(family, betas):
    """The one-row `maximize_1d` of each beta's quartic: values, argmaxes."""
    scans = [maximize_1d(quartic_profile(family, b).value, (0.0, 2.0)) for b in betas]
    return np.array([s.max_value for s in scans]), np.array([s.argmax[0] for s in scans])


@functools.lru_cache(maxsize=None)
def sweep_reference(family):
    return one_row_scans(family, SWEEP_BETAS)


def assert_rows_equal(got, expected):
    """Values and argmaxes equal bit for bit; the work counts may differ."""
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])


def band_evaluations(rows):
    """`quartic_grid_max`'s count when no row falls back: 4 bands per row."""
    return rows * (LINE_SCHEDULE[1] + 1) * (2 * QUARTIC_BAND + 1)


def stacked_profile(rows):
    """The (rows, 1)-column profile of scalar profiles of one family."""
    return QuarticProfile(*(np.array([[getattr(p, a)] for p in rows])
                            for a in ("alpha4", "alpha2", "alpha0")))


def dense_betas(center, count=2001, spacing=1e-7):
    return (center + spacing * np.arange(-(count // 2), count // 2 + 1)).tolist()


class TestQuarticGridMax:
    """Every row of the band scan equals the one-row full scan, bit for bit."""

    def test_points_are_numpy_linspace(self):
        rng = np.random.default_rng(9)
        lo = rng.uniform(0.0, 1.9, 20000)
        hi = lo + rng.uniform(1e-6, 0.3, 20000)
        # a few windows where arange * step + lo misses hi at the last point
        missed = np.flatnonzero(2000.0 * ((hi - lo) / 2000) + lo != hi)
        assert missed.size > 0
        pick = np.concatenate([missed, np.arange(100)])
        lo, hi = lo[pick], hi[pick]
        ramp = np.arange(2001, dtype=float)
        rows = _grid_points(lo[:, None], hi[:, None], ramp, 2001)
        for r in range(lo.size):
            assert np.array_equal(rows[r], np.linspace(lo[r], hi[r], 2001))
        assert np.array_equal(_grid_points(0.3, 1.7, ramp, 2001), np.linspace(0.3, 1.7, 2001))

    def test_band_points_are_slices_of_the_grid(self):
        rng = np.random.default_rng(10)
        lo = rng.uniform(0.0, 1.9, 500)
        hi = lo + rng.uniform(1e-6, 0.1, 500)
        first = rng.integers(0, 2001 - 17, 500).astype(float)
        first[:50] = 2001 - 17  # bands that end on the window's last point
        band = _grid_points(lo[:, None], hi[:, None], first[:, None] + np.arange(17.0), 2001)
        for r in range(lo.size):
            k = int(first[r])
            assert np.array_equal(band[r], np.linspace(lo[r], hi[r], 2001)[k:k + 17])

    def test_sweep_crosses_both_starlike_thresholds(self):
        t = thresholds()
        assert SWEEP_BETAS[0] == 0.0 and abs(SWEEP_BETAS[-1] - 0.99) < 1e-12
        assert 0.0 < t.quartic_sign_change < t.branch_split < SWEEP_BETAS[-1]

    @pytest.mark.parametrize("block", [7, 16, 256])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_sweep_rows_match_reference_scan(self, family, block):
        got = band_rows(family, SWEEP_BETAS, block)
        assert_rows_equal(got, sweep_reference(family))
        assert got[2] == band_evaluations(len(SWEEP_BETAS))

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_random_betas_match_one_row_maximize_1d(self, family):
        betas = np.random.default_rng(15).random(20000).tolist()
        got = band_rows(family, betas, 256)
        assert_rows_equal(got, one_row_scans(family, betas))
        assert got[2] == band_evaluations(len(betas))

    @pytest.mark.parametrize("threshold", ["quartic_sign_change", "branch_split"])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_dense_betas_at_the_thresholds(self, family, threshold):
        center = getattr(thresholds(), threshold)
        betas = dense_betas(center) + [math.nextafter(center, 0.0), center,
                                       math.nextafter(center, 1.0)]
        assert_rows_equal(band_rows(family, betas, 256), one_row_scans(family, betas))

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_domain_ends(self, family):
        betas = [0.0, math.nextafter(1.0, 0.0)]
        got = band_rows(family, betas, 2)
        assert_rows_equal(got, one_row_scans(family, betas))
        assert got[2] == band_evaluations(2)

    def test_block_size_not_dividing_row_count(self):
        betas = [0.2 + k * 0.0037 for k in range(109)]
        assert len(betas) % TABLE_BLOCK_ROWS != 0
        expected = reference_rows([quartic_profile(FamilyId.STARLIKE, b).value for b in betas])
        for block in (1, 7, TABLE_BLOCK_ROWS, 108, 109, 500):
            assert_rows_equal(band_rows(FamilyId.STARLIKE, betas, block), expected)

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_single_row_reports_arrays(self, family):
        scan = quartic_grid_max(quartic_profile(family, [0.5]))
        assert scan.max_value.shape == (1,) and scan.argmax[0].shape == (1,)
        single = maximize_1d(quartic_profile(family, 0.5).value, (0.0, 2.0))
        assert (scan.max_value[0], scan.argmax[0][0]) == (single.max_value, single.argmax[0])

    @pytest.mark.parametrize("band", [0, 1])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_rows_failing_the_certificate_are_rescanned(self, monkeypatch, family, band):
        # a one-point band never certifies (its edge is its maximum); a
        # three-point band misses when the hint rounds to a neighbour of the
        # grid's argmax.  Either way the result is the full scan's.
        monkeypatch.setattr(opt, "QUARTIC_BAND", band)
        betas = SWEEP_BETAS[::5]
        got = band_rows(family, betas, 64)
        assert_rows_equal(got, one_row_scans(family, betas))
        rounds = len(betas) * (LINE_SCHEDULE[1] + 1)
        rescans = (got[2] - rounds * (2 * band + 1)) // LINE_SCHEDULE[0]
        assert (got[2] - rounds * (2 * band + 1)) % LINE_SCHEDULE[0] == 0
        if band == 0:
            assert rescans == rounds
        else:
            assert 0 < rescans < rounds

    def test_nan_rows_fall_back_and_keep_the_no_update_rule(self):
        # argmax lands on a NaN and the strict > never accepts it: an all-NaN
        # row keeps -inf at the left endpoint
        good = quartic_profile(FamilyId.CONVEX, 0.1)
        nan = QuarticProfile(math.nan, good.alpha2, good.alpha0)
        rows = [good, nan, QuarticProfile(good.alpha4, math.nan, 0.0)]
        scan = quartic_grid_max(stacked_profile(rows))
        expected = reference_rows([p.value for p in rows])
        assert_rows_equal((scan.max_value, scan.argmax[0]), expected)
        assert scan.max_value[1] == -np.inf and scan.argmax[0][1] == 0.0
        assert scan.evaluations == 4 * 17 + 2 * 4 * (17 + 2001)

    def test_rows_that_are_not_quasi_concave_are_rescanned(self):
        # alpha2 < 0 < alpha4: Q dips and rises again, so the band at c = 2
        # passes its edge test while Q(0) = 0 beats Q(2) = -4
        good = quartic_profile(FamilyId.CONVEX, 0.1)
        rows = [good, QuarticProfile(1.0, -5.0, 0.0)]
        scan = quartic_grid_max(stacked_profile(rows))
        assert_rows_equal((scan.max_value, scan.argmax[0]), reference_rows([p.value for p in rows]))
        assert (scan.max_value[1], scan.argmax[0][1]) == (0.0, 0.0)
        assert scan.evaluations == 2 * 4 * 17 + 4 * 2001

    def test_constant_rows_report_left_endpoint(self):
        # alpha2 = 0 voids the certificate, so the full scan decides the ties
        levels = np.array([[1.0], [3.0], [2.0]])
        zeros = np.zeros((3, 1))
        scan = quartic_grid_max(QuarticProfile(zeros, zeros, levels))
        assert scan.max_value.tolist() == [1.0, 3.0, 2.0]
        assert scan.argmax[0].tolist() == [0.0, 0.0, 0.0]

    def test_one_row_objective_gets_the_grid_points(self):
        profile = quartic_profile(FamilyId.CONVEX, 0.3)
        shapes = []

        def objective(x):
            shapes.append(x.shape)
            return profile.value(x)

        scan = maximize_1d(objective, (0.0, 2.0))
        assert shapes == [(2001,)] * 4
        assert (scan.max_value, scan.argmax[0], scan.evaluations) == \
            reference_maximize_1d(profile.value, (0.0, 2.0))

    @pytest.mark.parametrize(
        "objective",
        [
            lambda x: 5.0,
            lambda x: 0.3 - (x - 0.7) ** 2,
            lambda x: np.floor(3.0 * x),
            lambda x: np.full_like(x, np.nan),
            quartic_profile(FamilyId.STARLIKE, 0.3).value,
        ],
    )
    def test_one_row_call_matches_reference(self, objective):
        for interval in ((0.0, 2.0), (0.25, 1.5)):
            scan = maximize_1d(objective, interval)
            assert type(scan.max_value) is float and type(scan.argmax[0]) is float
            assert (scan.max_value, scan.argmax[0], scan.evaluations) == \
                reference_maximize_1d(objective, interval)


class TestMaximizeSurrogate:
    @pytest.mark.parametrize(
        "family,beta,expected",
        [
            (FamilyId.STARLIKE, 0.0, 20 / 3),
            (FamilyId.CONVEX, 0.0, 1 / 3),
            (FamilyId.STARLIKE, 0.75, 0.11576704545454546),
        ],
    )
    def test_matches_closed_form(self, family, beta, expected):
        result = maximize_surrogate(family, beta)
        assert abs(result.max_value - expected) < 1e-6

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_argmax_at_corner(self, family, beta):
        result = maximize_surrogate(family, beta)
        cell = 1.0 / 60
        assert abs(result.argmax[1] - 1.0) <= cell
        assert abs(result.argmax[2] - 1.0) <= cell
        assert abs(result.max_value - h22_bound(family, beta).bound) < 1e-6

    def test_schedule_is_pinned(self):
        # 61 points per axis in each of 1 + 5 rounds, bit for bit the full scan
        assert CUBE_SCHEDULE == (61, 5, 0.2)
        got = maximize_surrogate(FamilyId.CONVEX, 0.3)
        full = full_surrogate_scan(FamilyId.CONVEX, 0.3)
        assert float_bits(got.max_value, *got.argmax) == float_bits(full.max_value, *full.argmax)
        assert full.evaluations == 6 * 61**3 == 1_361_886
        # the corner line and its two neighbour lines in each round, and the
        # flat c = 2 slice of the first round rescanned
        assert got.evaluations == 6 * 3 * 61 + 61**2 == 4_819

    def test_deterministic(self):
        a = maximize_surrogate(FamilyId.STARLIKE, 0.42)
        b = maximize_surrogate(FamilyId.STARLIKE, 0.42)
        assert a == b


def reference_refine_max(objective, axes, schedule):
    """`_refine_max` with numpy's linspace for the points and Python's
    max/min for the windows, as before it took `_grid_points`."""
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
            wins = [(max(lo, b - w / 2.0), min(hi, b + w / 2.0))
                    for b, w, (lo, hi) in zip(best, widths, box)]
        points = [np.linspace(lo, hi, n) if start <= stop else np.linspace(hi, lo, n)
                  for (lo, hi), (start, stop) in zip(wins, axes)]
        vals = objective(*np.ix_(*points))
        evals += vals.size
        idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[idx] > best_val:
            best_val = float(vals[idx])
            best = tuple(float(p[i]) for p, i in zip(points, idx))
    return best_val, best, evals


def float_bits(*values):
    return [float(v).hex() for v in values]


def threshold_betas():
    """Both starlike thresholds and the neighbouring doubles on either side."""
    t = thresholds()
    return [b for center in (t.quartic_sign_change, t.branch_split)
            for b in (math.nextafter(center, 0.0), center, math.nextafter(center, 1.0))]


class TestRefineMax:
    """`_refine_max` is the one refinement loop, on `_grid_points`."""

    def test_reversed_points_are_numpy_linspace(self):
        rng = np.random.default_rng(16)
        lo = rng.uniform(0.0, 0.9, 5000)
        hi = lo + rng.uniform(1e-6, 0.1, 5000)
        ramp = np.arange(61, dtype=float)
        # windows where 60 * step + hi misses lo at the last point
        assert np.any(60.0 * ((lo - hi) / 60) + hi != lo)
        for a, b in zip(lo, hi):
            expected = np.linspace(b, a, 61)
            assert np.array_equal(_grid_points(b, a, ramp, 61), expected)
            assert np.array_equal(_grid_points(float(b), float(a), ramp, 61), expected)

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_maximize_surrogate_matches_the_linspace_loop(self, family):
        axes = ((0.0, 2.0), (1.0, 0.0), (1.0, 0.0))
        betas = np.random.default_rng(17).random(50).tolist() + threshold_betas()
        for beta in betas:
            got = maximize_surrogate(family, beta)
            value, argmax, evals = reference_refine_max(
                surface_objective(family, beta), axes, CUBE_SCHEDULE)
            assert float_bits(got.max_value, *got.argmax) == float_bits(value, *argmax)
            assert evals == 6 * 61**3
            assert rescanned_slices(got.evaluations) >= 1

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_maximize_1d_matches_the_linspace_loop(self, family):
        betas = np.random.default_rng(18).random(50).tolist() + threshold_betas()
        for beta in betas:
            value = quartic_profile(family, beta).value
            got = maximize_1d(value, (0.0, 2.0))
            expected = reference_refine_max(value, ((0.0, 2.0),), LINE_SCHEDULE)
            assert float_bits(got.max_value, *got.argmax) == float_bits(expected[0], *expected[1])
            assert got.evaluations == expected[2] == 8004

    @pytest.mark.parametrize("axes,objective", [
        (((1.0, 0.0),), lambda t: -(t - 0.3) ** 2),
        (((0.0, 2.0), (1.0, 0.0)), lambda c, t: np.sin(3.0 * c) * np.cos(2.0 * t - 0.7)),
        (((2.0, 0.5), (0.25, 1.0), (1.0, 0.0)), lambda a, b, t: a * b - (t - 0.61) ** 2),
    ])
    def test_interior_peaks_on_reversed_axes_match_the_linspace_loop(self, axes, objective):
        for schedule in (LINE_SCHEDULE, CUBE_SCHEDULE) if len(axes) == 1 else (CUBE_SCHEDULE,):
            got = _refine_max(functools.partial(_mesh_max, objective), axes, schedule)
            value, argmax, evals = reference_refine_max(objective, axes, schedule)
            assert float_bits(got.max_value, *got.argmax) == float_bits(value, *argmax)
            assert got.evaluations == evals

    @pytest.mark.parametrize("objective", [
        lambda c, lam, mu: 2.5,
        lambda c, lam, mu: 0.0 * (c + lam + mu) + 2.5,
    ])
    def test_constant_objective_reports_the_start_corner(self, objective):
        result = _refine_max(functools.partial(_mesh_max, objective),
                             ((0.0, 2.0), (1.0, 0.0), (1.0, 0.0)), CUBE_SCHEDULE)
        assert result == SearchResult(2.5, (0.0, 1.0, 1.0), 6 * 61**3)
        assert all(type(v) is float for v in (result.max_value, *result.argmax))

    def test_nan_objective_keeps_the_start_corner(self):
        result = _refine_max(functools.partial(_mesh_max, lambda c, lam: np.nan * (c + lam)),
                             ((0.0, 2.0), (1.0, 0.0)), CUBE_SCHEDULE)
        assert result == SearchResult(-np.inf, (0.0, 1.0), 6 * 61**2)


SURROGATE_AXES = ((0.0, 2.0), (1.0, 0.0), (1.0, 0.0))


def surface_objective(family, beta):
    return lambda c, lam, mu: surface(family, lam, mu, c, beta)


def full_surrogate_scan(family, beta):
    """`_refine_max` of the whole 61^3 mesh of the majorant in every round."""
    return _refine_max(functools.partial(_mesh_max, surface_objective(family, beta)),
                       SURROGATE_AXES, CUBE_SCHEDULE)


def rescanned_slices(evaluations):
    """Slices a corner-line scan rescanned, read off its evaluation count:
    3 lines of 61 points in each of 6 rounds, plus 61^2 per slice."""
    extra = evaluations - 6 * 3 * 61
    assert extra >= 0 and extra % 61**2 == 0
    return extra // 61**2


def ulps_around(center, k=3):
    """center and the k neighbouring doubles on either side."""
    below, above = [center], [center]
    for _ in range(k):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    return below[:0:-1] + above


def transform_terms(monkeypatch, transform):
    """Pass the majorant's terms through `transform` first: in the scans
    and in `surface`, which both call `bounds.surrogate_terms`."""
    true_terms = bd.surrogate_terms
    monkeypatch.setattr(bd, "surrogate_terms", lambda *args: transform(*true_terms(*args)))


CUBE_RAMP = np.arange(61, dtype=float)


def random_round_windows(rng, lam_top=1.0, mu_top=1.0):
    """One round's (c, lam, mu) windows as `(start, stop)` pairs: a random c
    window in [0, 2], ending at 2 half the time, and lam and mu windows
    enumerated down from their tops."""
    width = 2.0 * 0.2 ** rng.integers(0, 6)
    lo = rng.uniform(0.0, 2.0 - width)
    c = (lo, 2.0 if rng.random() < 0.5 else lo + width)
    return [c] + [(top, max(0.0, top - 0.2 ** rng.integers(0, 6))) for top in (lam_top, mu_top)]


def round_points(windows):
    """The 61-point grid of each window; all of them strictly monotone, so
    a point of the mesh names its index."""
    points = [_grid_points(start, stop, CUBE_RAMP, 61) for start, stop in windows]
    assert all(np.all(np.diff(p) != 0.0) for p in points)
    return points


class TestCornerLineScan:
    """`maximize_surrogate` scans the corner line and its neighbours per round
    and is bit for bit the full 61^3 mesh scan."""

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_random_betas_match_the_full_scan(self, family):
        for beta in np.random.default_rng(1701).random(300).tolist():
            got, full = maximize_surrogate(family, beta), full_surrogate_scan(family, beta)
            assert float_bits(got.max_value, *got.argmax) == \
                float_bits(full.max_value, *full.argmax)
            assert 1 <= rescanned_slices(got.evaluations) <= 6

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_edge_betas_match_the_full_scan(self, family):
        t = thresholds()
        centers = (t.quartic_sign_change, t.branch_split, 1.0 - math.sqrt(10.0) / 4.0)
        betas = [b for center in centers for b in ulps_around(center)]
        for beta in betas + [0.0, 5e-324, math.nextafter(1.0, 0.0)]:
            got, full = maximize_surrogate(family, beta), full_surrogate_scan(family, beta)
            assert float_bits(got.max_value, *got.argmax) == \
                float_bits(full.max_value, *full.argmax)

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_rounds_match_the_mesh_round(self, family):
        rng = np.random.default_rng(1702)
        for beta in rng.random(40).tolist() + [0.0, math.nextafter(1.0, 0.0)]:
            for tops in ((1.0, 1.0), (1.0, 1.0), (0.9, 0.9), (1.0, 0.9), (0.9, 1.0)):
                windows = random_round_windows(rng, *tops)
                round_points(windows)  # distinct grid points: equal points, equal index
                value, point, count = _corner_line_max(family, beta, windows, CUBE_RAMP)
                expected = _mesh_max(surface_objective(family, beta), windows, CUBE_RAMP)
                assert float_bits(value, *point) == float_bits(expected[0], *expected[1])
                if tops == (1.0, 1.0):
                    rescans, rest = divmod(count - 3 * 61, 61**2)
                    assert rest == 0 and rescans >= (windows[0][1] == 2.0)  # the flat slice
                else:
                    assert count == expected[2] == 61**3

    def test_starlike_peak_at_c2_rescans_the_flat_slice(self):
        # the peak is the corner of the flat c = 2 slice in every round
        for beta in (0.0, 5e-324):
            got = maximize_surrogate(FamilyId.STARLIKE, beta)
            full = full_surrogate_scan(FamilyId.STARLIKE, beta)
            assert got.argmax == full.argmax == (2.0, 1.0, 1.0)
            assert got.max_value == full.max_value
            assert rescanned_slices(got.evaluations) == 6

    @pytest.mark.parametrize("transform", [
        lambda t1, t2, t3, t4: (t1, -t2, t3, t4),
        lambda t1, t2, t3, t4: (t1, t2, 8.0 * t3, t4),
        lambda t1, t2, t3, t4: (t1, t2, t3, -t4),
    ], ids=["t2_negated", "growth_broken", "t4_negated"])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_terms_breaking_monotonicity_fall_back(self, monkeypatch, family, transform):
        plain = {beta: maximize_surrogate(family, beta).evaluations for beta in (0.0, 0.3, 0.7)}
        transform_terms(monkeypatch, transform)
        for beta, evaluations in plain.items():
            got, full = maximize_surrogate(family, beta), full_surrogate_scan(family, beta)
            assert float_bits(got.max_value, *got.argmax) == \
                float_bits(full.max_value, *full.argmax)
            # the slices the broken terms leave uncertified are rescanned
            assert got.evaluations > evaluations

    @pytest.mark.parametrize("terms,lam_low", [
        # t2 < 0: the neighbours fall below the corner, (0, 0) rises above it
        ((1.0, -1.0, 0.0, 0.375), 0.0),
        # t4 < 0: (1, 0) rises above the corner
        ((1.0, 0.5, 1.5, -0.75), 0.0),
        # t2 + 2 (t3 + t4) < 0: the diagonal neighbour rises above the corner
        ((1.0, 0.4354252674698872, -0.8359609576683859, 0.30869699338527024), 0.8),
        # monotone, but within rounding of flat: the neighbours compute just
        # below the corner and a point further out one unit above it
        ((1.0000000000962996, 2.2916007261556395e-14, -1.526909910303664e-14,
          4.913165041842003e-15), 1.0 - 0.2**3),
    ], ids=["t2_negative", "t4_negative", "growth_negative", "within_rounding"])
    def test_slices_the_certificate_must_reject(self, monkeypatch, terms, lam_low):
        # the corner beats both neighbours, yet another point computes higher
        transform_terms(monkeypatch, lambda *t: tuple(np.full_like(t[0], v) for v in terms))
        family, beta = FamilyId.CONVEX, 0.3
        windows = [(0.5, 1.5), (1.0, lam_low), (1.0, lam_low)]
        lam = round_points(windows)[1]  # distinct grid points: equal points, equal index
        line = surface(family, np.array([1.0, lam[1], 1.0]), np.array([1.0, 1.0, lam[1]]), 1.0,
                       beta)
        expected = _mesh_max(surface_objective(family, beta), windows, CUBE_RAMP)
        assert max(line[1:]) < line[0] < expected[0]
        value, point, count = _corner_line_max(family, beta, windows, CUBE_RAMP)
        assert float_bits(value, *point) == float_bits(expected[0], *expected[1])
        assert count == 3 * 61 + 61**3

    @pytest.mark.parametrize("beta", [0.0, 5e-324, 0.3, 0.7, 0.999, math.nextafter(1.0, 0.0)])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_surface_rounding_stays_within_e(self, family, beta):
        # E = 8u (|t1| + 2 |t2| + 2 |t3| + 4 |t4|) bounds |fl(F) - F~| on
        # the unit square, F~ the surface of the float terms in exact
        # arithmetic
        rng = np.random.default_rng(1703)
        rounds = [round_points(random_round_windows(rng)) for _ in range(10)]
        ends = ([0.0, 2.0, 2.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0])  # (c, lam, mu) columns
        c, lam, mu = (np.concatenate([r[axis][rng.integers(0, 61, 300)] for r in rounds]
                                     + [np.array(ends[axis])])
                      for axis in range(3))
        values = surface(family, lam, mu, c, beta)
        ratios = []
        for *point, value in zip(*surrogate_terms(family, c, beta), lam, mu, values.tolist()):
            t1, t2, t3, t4, x, y = (Fraction(float(v)) for v in point)
            exact = t1 + t2 * (x + y) + t3 * (x * x + y * y) + t4 * (x + y) ** 2
            e = Fraction(8, 2**53) * (abs(t1) + 2 * abs(t2) + 2 * abs(t3) + 4 * abs(t4))
            ratios.append(abs(Fraction(value) - exact) / e)
        assert 0 < max(ratios) <= 1


class TestEmpiricalSearch:
    def test_degenerate_point_is_zero(self):
        value = h22_from_params(FamilyId.STARLIKE, Order(0.0), 0.0, 0j, 0j, 0j, 0j)
        assert value == 0

    def test_extreme_sample_matches_hand_value(self):
        value = h22_from_params(
            FamilyId.STARLIKE, Order(0.0), 2.0, 1 + 0j, 1 + 0j, 0j, 0j
        )
        assert abs(value - (-4)) < 1e-14
        assert abs(value) <= 20 / 3

    def test_inverse_side_first_coefficient(self):
        # the inverse side's triple (d1, d2, d3) = (-c, d2, -e3) from
        # disk_coeffs(c, y, -w) is the disk parametrization at c1 = -c
        d2, e3 = disk_coeffs(1.2, 0.3 + 0.1j, -0.2j)
        assert disk_coeffs(-1.2, 0.3 + 0.1j, 0.2j) == (d2, -e3)
        for c, _, y, _, w in disk_param_blocks(3000, 7, 0.25):
            d2, e3 = disk_coeffs(c, y, -w)
            m2, m3 = disk_coeffs(-c, y, w)
            assert np.array_equal(m2, d2)
            assert np.max(np.abs(m3 + e3)) <= 1e-14

    def test_batch_matches_scalar_route(self):
        rng = np.random.default_rng(51)
        n = 200
        c = rng.uniform(0, 2, n)
        x, y, z, w = (unit_disk_samples(rng, n) for _ in range(4))
        for family in FamilyId:
            for beta in (0.0, 0.45):
                batch = h22_batch(family, beta, c, x, y, z, w)
                order = Order(beta)
                for i in range(n):
                    scalar = abs(
                        h22_from_params(
                            family, order, float(c[i]), complex(x[i]),
                            complex(y[i]), complex(z[i]), complex(w[i]),
                        )
                    )
                    assert abs(batch[i] - scalar) < 1e-14

    @pytest.mark.parametrize("family", list(FamilyId))
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_never_exceeds_bound(self, family, beta):
        result = empirical_max_h22(family, beta, 20000, seed=9)
        assert result.max_value <= h22_bound(family, beta).bound + 1e-12
        assert result.evaluations == 20000

    def test_pointwise_majorant_dominance(self):
        rng = np.random.default_rng(52)
        n = 5000
        c = rng.uniform(0, 2, n)
        x, y, z, w = (unit_disk_samples(rng, n) for _ in range(4))
        for family in FamilyId:
            for beta in (0.0, 0.6):
                vals = h22_batch(family, beta, c, x, y, z, w)
                t1, t2, t3, t4 = surrogate_terms(family, c, beta)
                lam, mu = np.abs(x), np.abs(y)
                f = t1 + t2 * (lam + mu) + t3 * (lam**2 + mu**2) + t4 * (lam + mu) ** 2
                assert float(np.max(vals - f)) <= 1e-10

    def test_seeded_determinism(self):
        a = empirical_max_h22(FamilyId.CONVEX, 0.25, 5000, seed=77)
        b = empirical_max_h22(FamilyId.CONVEX, 0.25, 5000, seed=77)
        assert a == b

    def test_constrained_experiment_runs(self):
        result = empirical_max_h22(
            FamilyId.STARLIKE, 0.0, 20000, seed=9, constrain_sum=True
        )
        assert result.evaluations <= 20000
        assert result.max_value <= h22_bound(FamilyId.STARLIKE, 0.0).bound + 1e-12

    def test_invalid_samples(self):
        with pytest.raises(DomainError):
            empirical_max_h22(FamilyId.STARLIKE, 0.0, 0, seed=1)

    def test_negative_seed_raises(self):
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            empirical_max_h22(FamilyId.STARLIKE, 0.0, 100, seed=-1)

    def test_negative_seed_raises_before_any_draw(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("samples drawn before the seed was checked")

        monkeypatch.setattr(opt, "disk_param_blocks", never)
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            empirical_max_h22(FamilyId.STARLIKE, 0.0, 100, seed=-1)


class TestBoundaryFraction:
    @pytest.mark.parametrize("fraction", [float("nan"), -0.5, 1.5, float("inf")])
    def test_out_of_range_raises(self, fraction):
        with pytest.raises(DomainError, match="boundary fraction"):
            empirical_max_h22(FamilyId.STARLIKE, 0.0, 100, seed=1,
                              boundary_fraction=fraction)

    def test_beta_is_checked_first(self):
        with pytest.raises(DomainError, match="beta"):
            empirical_max_h22(FamilyId.STARLIKE, 1.0, 100, seed=1,
                              boundary_fraction=float("nan"))

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_closed_endpoints_accepted(self, fraction):
        result = empirical_max_h22(FamilyId.CONVEX, 0.3, 100, seed=1,
                                   boundary_fraction=fraction)
        assert result.evaluations == 100


# The streaming search must give what one pass over all samples gives: the
# same five streams drawn in one go, one kernel call, one argmax.

def reference_search(family, beta, samples, seed, boundary_fraction=0.25,
                     constrain_sum=False):
    c_rng, x_rng, y_rng, z_rng, w_rng = (
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(5)
    )
    n_boundary = int(round(samples * boundary_fraction))
    c = c_rng.uniform(0.0, 2.0, samples)
    x = np.concatenate([unit_circle_samples(x_rng, n_boundary),
                        unit_disk_samples(x_rng, samples - n_boundary)])
    if constrain_sum:
        y = opt._sum_constraint_target(family, beta, c) - x
    else:
        y = np.concatenate([unit_circle_samples(y_rng, n_boundary),
                            unit_disk_samples(y_rng, samples - n_boundary)])
    z = unit_disk_samples(z_rng, samples)
    w = unit_disk_samples(w_rng, samples)
    if constrain_sum:
        keep = np.abs(y) <= 1.0
        if not np.any(keep):
            return SearchResult(0.0, (), 0)
        c, x, y, z, w = c[keep], x[keep], y[keep], z[keep], w[keep]
    vals = opt.h22_batch(family, beta, c, x, y, z, w)
    i = int(np.argmax(vals))
    argmax = (float(c[i]), complex(x[i]), complex(y[i]), complex(z[i]), complex(w[i]))
    return SearchResult(float(vals[i]), argmax, int(vals.size))


# (family, beta, samples, seed, boundary_fraction, constrain_sum)
SEARCH_CASES = (
    (FamilyId.STARLIKE, 0.0, 20000, 3, 0.25, False),
    (FamilyId.CONVEX, 0.3, 20000, 4, 0.25, True),
    (FamilyId.STARLIKE, 0.6, 20000, 5, 0.0, False),
    (FamilyId.CONVEX, 0.0, 20000, 6, 1.0, False),
    # n_boundary = 18000 ends inside a chunk for every chunk size below
    (FamilyId.CONVEX, 0.3, 40000, 7, 0.45, False),
)
CASE_IDS = ("plain", "constrain-sum", "fraction-0", "fraction-1", "fraction-mid-chunk")


def search(case):
    family, beta, samples, seed, fraction, constrained = case
    return empirical_max_h22(family, beta, samples, seed, boundary_fraction=fraction,
                             constrain_sum=constrained)


class TestStreamingSearch:
    @pytest.mark.parametrize("case", SEARCH_CASES, ids=CASE_IDS)
    def test_default_chunk_matches_whole_array_reference(self, case):
        assert car.SAMPLE_CHUNK == 1 << 12
        assert search(case) == reference_search(*case)

    @pytest.mark.parametrize("chunk", [7, (1 << 12) - 1, "samples", "more"])
    @pytest.mark.parametrize("case", SEARCH_CASES, ids=CASE_IDS)
    def test_independent_of_chunk_size(self, monkeypatch, case, chunk):
        samples = case[2]
        chunk = {"samples": samples, "more": samples + 1}.get(chunk, chunk)
        monkeypatch.setattr(car, "SAMPLE_CHUNK", chunk)
        assert search(case) == reference_search(*case)

    @pytest.mark.parametrize("case", SEARCH_CASES, ids=CASE_IDS)
    def test_chunks_of_one_sample(self, monkeypatch, case):
        small = case[:2] + (400,) + case[3:]
        monkeypatch.setattr(car, "SAMPLE_CHUNK", 1)
        assert search(small) == reference_search(*small)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_ties_go_to_the_lowest_index(self, monkeypatch, chunk):
        # a coarse kernel makes most values tie; one argmax over the whole
        # array reports the first of them, and so must the chunked search
        exact = opt.h22_batch
        monkeypatch.setattr(opt, "h22_batch", lambda *a: np.floor(exact(*a)))
        monkeypatch.setattr(car, "SAMPLE_CHUNK", chunk)
        case = (FamilyId.STARLIKE, 0.0, 600, 8, 0.25, False)
        expected = reference_search(*case)
        assert expected.max_value == 3.0
        assert search(case) == expected

    def test_nothing_kept(self, monkeypatch):
        # |target - x| >= 2 for every draw, so no y stays in the disk
        monkeypatch.setattr(opt, "_sum_constraint_target", lambda family, beta, c: c + 3.0)
        result = empirical_max_h22(FamilyId.CONVEX, 0.3, 50000, seed=2, constrain_sum=True)
        assert result == SearchResult(0.0, (), 0)

    def test_memory_does_not_grow_with_samples(self):
        def peak(samples):
            tracemalloc.start()
            try:
                empirical_max_h22(FamilyId.STARLIKE, 0.0, samples, seed=9)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(200_000), peak(2_000_000)
        assert large < 8 * 2**20
        assert large <= small + 2**18

    @pytest.mark.parametrize("constrain_sum", [False, True])
    def test_one_block_of_temporaries(self, constrain_sum):
        # a block of 2^12 draws and its kernel temporaries take about 0.8 MiB
        # (0.6 MiB with the sum constraint); blocks of 2^14 take 3.3 MiB
        tracemalloc.start()
        try:
            empirical_max_h22(FamilyId.CONVEX, 0.3, 200_000, seed=9,
                              constrain_sum=constrain_sum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


# The merged scans must reproduce the code they replaced bit for bit, and the
# kernel must agree with the one it replaced to rounding.  These are copies of
# the inline versions, kept as references.

def reference_h22_batch(family, beta, c, x, y, z, w):
    om = 1.0 - beta
    gap = 4.0 - c * c
    c2 = (c * c + x * gap) / 2.0
    c3 = (c**3 + 2.0 * gap * c * x - c * gap * x * x
          + 2.0 * gap * (1.0 - np.abs(x) ** 2) * z) / 4.0
    d2 = (c * c + y * gap) / 2.0
    d3 = (-(c**3) - 2.0 * gap * c * y + c * gap * y * y
          + 2.0 * gap * (1.0 - np.abs(y) ** 2) * w) / 4.0
    dc2 = c2 - d2
    dc3 = c3 - d3
    if family is FamilyId.STARLIKE:
        a2 = om * c
        a3 = om * om * c * c + om * dc2 / 4.0
        a4 = (2.0 / 3.0) * om**3 * c**3 + (5.0 / 8.0) * om * om * c * dc2 \
            + om * dc3 / 6.0
    else:
        a2 = om * c / 2.0
        a3 = om * om * c * c / 4.0 + om * dc2 / 12.0
        a4 = (5.0 / 48.0) * om**3 * c**3 + (5.0 / 48.0) * om * om * c * dc2 \
            + om * dc3 / 24.0
    return np.abs(a2 * a4 - a3 * a3)


def division_bi_coeffs(family, w, c1, dc2, dc3):
    """`bi_coeffs` with every constant divisor written as a division."""
    if family is FamilyId.STARLIKE:
        a2 = w * c1
        a3 = w * w * c1 * c1 + w * dc2 / 4.0
        a4 = (2.0 / 3.0) * w**3 * c1**3 + (5.0 / 8.0) * w * w * c1 * dc2 \
            + w * dc3 / 6.0
    else:
        a2 = w * c1 / 2.0
        a3 = w * w * c1 * c1 / 4.0 + w * dc2 / 12.0
        a4 = (5.0 / 48.0) * w**3 * c1**3 + (5.0 / 48.0) * w * w * c1 * dc2 \
            + w * dc3 / 24.0
    return a2, a3, a4


def reference_sum_constraint_target(family, beta, c):
    gap = 4.0 - c * c
    if family is FamilyId.STARLIKE:
        return 2.0 * c * c * (1.0 - 2.0 * beta) / gap
    return -2.0 * beta * c * c / gap


def reference_maximize_surrogate(family, beta):
    n, rounds, shrink = CUBE_SCHEDULE
    best_val = -np.inf
    best = (0.0, 1.0, 1.0)
    evals = 0
    widths = (2.0, 1.0, 1.0)
    wins = ((0.0, 2.0), (0.0, 1.0), (0.0, 1.0))
    for round_idx in range(rounds + 1):
        if round_idx > 0:
            widths = tuple(w * shrink for w in widths)
            wins = tuple(
                (max(lo, b - w / 2.0), min(hi, b + w / 2.0))
                for b, w, (lo, hi) in zip(best, widths, ((0.0, 2.0), (0.0, 1.0), (0.0, 1.0)))
            )
        cs = np.linspace(*wins[0], n)
        lam = np.linspace(wins[1][1], wins[1][0], n)
        mu = np.linspace(wins[2][1], wins[2][0], n)
        t1, t2, t3, t4 = surrogate_terms(family, cs, beta)
        s = lam[:, None] + mu[None, :]
        sq = lam[:, None] ** 2 + mu[None, :] ** 2
        vals = (
            t1[:, None, None]
            + t2[:, None, None] * s[None, :, :]
            + t3[:, None, None] * sq[None, :, :]
            + t4[:, None, None] * (s * s)[None, :, :]
        )
        evals += vals.size
        i, j, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[i, j, k] > best_val:
            best_val = float(vals[i, j, k])
            best = (float(cs[i]), float(lam[j]), float(mu[k]))
    return best_val, best, evals


# `h22_batch` adds B z + C w after forming a2 a4 - a3^2 at z = w = 0, where
# the reference forms both coefficient triples first, so the two round
# differently.  They agree to this many units of 2^-52 times the largest
# value of each block of draws below (14.8 at most on these blocks).
H22_ULPS = 16


class TestMergedFormulasMatchReferences:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_h22_batch_matches_reference_to_rounding(self, family, beta, seed):
        rng = np.random.default_rng(seed)
        n = 4000
        c = rng.uniform(0.0, 2.0, n)
        x, y, z, w = (unit_disk_samples(rng, n) for _ in range(4))
        got = h22_batch(family, beta, c, x, y, z, w)
        expected = reference_h22_batch(family, beta, c, x, y, z, w)
        assert np.max(np.abs(got - expected)) <= H22_ULPS * 2.0**-52 * np.max(expected)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_h22_batch_identical_to_division_form(self, monkeypatch, family, seed):
        # `bi_coeffs` scales its complex terms by reciprocals, which numpy's
        # complex division by a real does too, so the kernel's bytes are
        # those of the plain divisions
        c, x, y, z, w = next(disk_param_blocks(1 << 12, seed, 0.25))
        got = h22_batch(family, 0.3, c, x, y, z, w)
        monkeypatch.setattr(opt, "bi_coeffs", division_bi_coeffs)
        assert got.tobytes() == h22_batch(family, 0.3, c, x, y, z, w).tobytes()

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_sum_constraint_target_identical(self, family):
        # the row expression keeps each branch's bits: signed zeros at c = 0
        # and b = 0, and the inf or NaN of c = 2
        c = np.concatenate([np.linspace(0.0, 2.0, 20001),
                            np.random.default_rng(19).uniform(0.0, 2.0, 20000)])
        betas = ([0.0, 5e-324, 0.25, 0.5, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0)]
                 + threshold_betas() + np.random.default_rng(20).random(100).tolist())
        with np.errstate(divide="ignore", invalid="ignore"):
            for beta in betas:
                got = opt._sum_constraint_target(family, beta, c)
                expected = reference_sum_constraint_target(family, beta, c)
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_maximize_surrogate_identical(self, family, beta):
        result = maximize_surrogate(family, beta)
        value, argmax, evals = reference_maximize_surrogate(family, beta)
        assert (result.max_value, result.argmax) == (value, argmax)
        assert evals == 6 * 61**3
        assert rescanned_slices(result.evaluations) >= 1

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_surface_matches_inline_pointwise_majorant(self, family, beta):
        rng = np.random.default_rng(13)
        c = rng.uniform(0.0, 2.0, 4000)
        lam, mu = np.abs(unit_disk_samples(rng, 4000)), np.abs(unit_disk_samples(rng, 4000))
        t1, t2, t3, t4 = surrogate_terms(family, c, beta)
        inline = t1 + t2 * (lam + mu) + t3 * (lam**2 + mu**2) + t4 * (lam + mu) ** 2
        assert np.array_equal(surface(family, lam, mu, c, beta), inline)

    def test_inverse_side_matches_docstring_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            c = float(rng.uniform(0.0, 2.0))
            y, w = (complex(v) for v in unit_disk_samples(rng, 2))
            gap = 4.0 - c * c
            d2 = (c * c + y * gap) / 2.0
            d3 = (-(c**3) - 2.0 * gap * c * y + c * gap * y * y
                  + 2.0 * gap * (1.0 - abs(y) ** 2) * w) / 4.0
            # the inverse side of `h22_from_params`: d3 = -e3, negating w
            got_d2, e3 = disk_coeffs(c, y, -w)
            assert (got_d2, -e3) == (d2, d3)

    def test_scalar_and_array_kernel_agree(self):
        rng = np.random.default_rng(12)
        c = rng.uniform(0.0, 2.0, 300)
        x, z = unit_disk_samples(rng, 300), unit_disk_samples(rng, 300)
        c2s, c3s = disk_coeffs(c, x, z)
        for i in range(c.size):
            c2, c3 = disk_coeffs(float(c[i]), complex(x[i]), complex(z[i]))
            assert abs(c2 - c2s[i]) <= 1e-15 and abs(c3 - c3s[i]) <= 1e-15


class ExactComplex:
    """A complex number with `Fraction` parts, for rounding-free references."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, z):
        z = complex(z)
        return cls(z.real, z.imag)

    def __add__(self, other):
        other = other if isinstance(other, ExactComplex) else ExactComplex(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __rsub__(self, other):
        return (-1) * self + other

    def __mul__(self, other):
        other = other if isinstance(other, ExactComplex) else ExactComplex(other)
        return ExactComplex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def abs2(self):
        return self.re * self.re + self.im * self.im


def exact_h22_abs2(family, om, c, x, y, z, w):
    """|a2 a4 - a3^2|^2 in exact arithmetic, at the given doubles.

    The formulas of `reference_h22_batch`, with `om` = 1 - beta as the
    kernels round it.
    """
    om, c = Fraction(om), Fraction(c)
    x, y, z, w = (ExactComplex.of(v) for v in (x, y, z, w))
    gap = 4 - c * c
    dc2 = (x - y) * gap * Fraction(1, 2)
    dc3 = (2 * c**3 + 2 * gap * c * (x + y) - c * gap * (x * x + y * y)
           + 2 * gap * ((1 - x.abs2()) * z - (1 - y.abs2()) * w)) * Fraction(1, 4)
    if family is FamilyId.STARLIKE:
        a2 = om * c
        a3 = om * om * c * c + om * dc2 * Fraction(1, 4)
        a4 = (Fraction(2, 3) * om**3 * c**3 + Fraction(5, 8) * om * om * c * dc2
              + om * dc3 * Fraction(1, 6))
    else:
        a2 = om * c * Fraction(1, 2)
        a3 = om * om * c * c * Fraction(1, 4) + om * dc2 * Fraction(1, 12)
        a4 = (Fraction(5, 48) * om**3 * c**3 + Fraction(5, 48) * om * om * c * dc2
              + om * dc3 * Fraction(1, 24))
    return (a2 * a4 - a3 * a3).abs2()


def abs_error(value, exact_abs2):
    """|value - sqrt(exact_abs2)|, as |value^2 - exact_abs2| / (value + sqrt(...))."""
    diff = abs(Fraction(float(value)) ** 2 - exact_abs2)
    return 0.0 if diff == 0 else float(diff) / (float(value) + math.sqrt(exact_abs2))


class TestKernelAccuracy:
    def test_worst_error_no_larger_than_reference(self):
        # 50 fresh draws for each of the 8 (family, beta) blocks.  Errors are
        # in units of 2^-52 times the block's largest exact |H| (the unit of
        # H22_ULPS), so that every block counts, not only the largest values.
        rng = np.random.default_rng(2024)
        worst = {"kernel": 0.0, "reference": 0.0}
        for family in FamilyId:
            for beta in (0.0, 0.3, 0.7, 0.95):
                c = rng.uniform(0.0, 2.0, 50)
                x, y, z, w = (unit_disk_samples(rng, 50) for _ in range(4))
                exact = [exact_h22_abs2(family, 1.0 - beta, *draw)
                         for draw in zip(c, x, y, z, w)]
                unit = 2.0**-52 * math.sqrt(max(exact))
                for name, kernel in (("kernel", h22_batch), ("reference", reference_h22_batch)):
                    values = kernel(family, beta, c, x, y, z, w)
                    worst[name] = max(worst[name], *(abs_error(v, e) / unit
                                                      for v, e in zip(values, exact)))
        assert 0.0 < worst["kernel"] <= worst["reference"]

    def test_exact_reference_matches_the_scalar_route(self):
        rng = np.random.default_rng(3)
        for family in FamilyId:
            c = float(rng.uniform(0.0, 2.0))
            x, y, z, w = (complex(v) for v in unit_disk_samples(rng, 4))
            exact = exact_h22_abs2(family, 0.6, c, x, y, z, w)
            scalar = abs(h22_from_params(family, Order(0.4), c, x, y, z, w))
            assert abs_error(scalar, exact) < 1e-14


class TestH22Terms:
    @pytest.mark.parametrize("beta", [0.0, 0.55])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_terms_rebuild_the_complex_value(self, family, beta):
        rng = np.random.default_rng(61)
        n = 300
        c = rng.uniform(0.0, 2.0, n)
        x, y, z, w = (unit_disk_samples(rng, n) for _ in range(4))
        a, b, cw = h22_terms(family, beta, c, x, y)
        # B and C are real, B >= 0 >= C: a2, k and 4 - c^2 are >= 0
        assert b.dtype == cw.dtype == np.float64
        assert np.all(b >= 0.0) and np.all(cw <= 0.0)
        h = a + b * z + cw * w
        for i in range(n):
            scalar = h22_from_params(family, Order(beta), float(c[i]), complex(x[i]),
                                     complex(y[i]), complex(z[i]), complex(w[i]))
            assert abs(h[i] - scalar) < 1e-14


    @pytest.mark.parametrize("family", list(FamilyId))
    def test_broadcast_shapes_match_explicit_arrays(self, family):
        # c over one axis, x and y over the other two, as in a (c, x, y)
        # torus scan; w adds an axis that none of c, x, y has
        rng = np.random.default_rng(63)
        c = rng.uniform(0.0, 2.0, (21, 1, 1))
        x = unit_disk_samples(rng, 13 * 17).reshape(1, 13, 17)
        y = unit_disk_samples(rng, 17).reshape(1, 1, 17)
        z = unit_disk_samples(rng, 13).reshape(1, 13, 1)
        w = unit_disk_samples(rng, 2).reshape(2, 1, 1, 1)
        shape = (2, 21, 13, 17)
        full = [np.broadcast_to(v, shape).copy() for v in (c, x, y, z, w)]
        for got, expected in zip(h22_terms(family, 0.3, c, x, y),
                                 h22_terms(family, 0.3, *(v[0] for v in full[:3]))):
            assert got.shape == expected.shape == shape[1:]
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        got = h22_batch(family, 0.3, c, x, y, z, w)
        expected = h22_batch(family, 0.3, *full)
        assert got.shape == shape and got.tobytes() == expected.tobytes()


def object_route_h22(family, order, c, x, y, z, w):
    """`h22_from_params` as the coefficient objects computed it, inlined.

    (c1, c2, c3) = (c, disk_coeffs(c, x, z)) after the domain check,
    (d1, d2, d3) = (-c, d2, -e3) for (d2, e3) = disk_coeffs(c, y, -w),
    (a2, a3, a4) from `bi_coeffs` on the complex differences, and
    a2 a4 - a3^2 on their complex values.
    """
    check_disk_params(c, x, z)
    c2, c3 = disk_coeffs(c, x, z)
    p = (complex(c), c2, c3)
    d2, e3 = disk_coeffs(c, y, -w)
    q = (complex(-c), d2, -e3)
    a2, a3, a4 = (complex(v) for v in bi_coeffs(
        family, 1.0 - order.beta, complex(p[0]),
        complex(p[1]) - complex(q[1]), complex(p[2]) - complex(q[2]),
    ))
    return a2 * a4 - a3 ** 2


def bits(value):
    """The two doubles of a complex number, signed zeros told apart."""
    return value.real.hex(), value.imag.hex()


class TestH22FromParamsPinned:
    """The benchmark re-evaluates each `search` argmax with `h22_from_params`,
    so its value is pinned bit for bit to the object route it replaced."""

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_bit_identical_to_the_object_route(self, family, beta):
        order = Order(beta)
        blocks = list(disk_param_blocks(3000, 7, 0.25))
        # the corners of the domain: c = 0 and 2, x and y on the circle
        blocks.append((np.array([0.0, 2.0, 2.0, 0.0]), np.array([1, 1j, 0, -1 + 0j]),
                       np.array([-1j, 1, 0, 1 + 0j]), np.array([0j, 1, -1j, 0.5]),
                       np.array([1j, 0, 1, -0.5 + 0j])))
        count = 0
        for draws in blocks:
            for c, x, y, z, w in zip(*draws):
                args = (float(c), complex(x), complex(y), complex(z), complex(w))
                got = h22_from_params(family, order, *args)
                assert type(got) is complex
                assert bits(got) == bits(object_route_h22(family, order, *args))
                count += 1
        assert count == 3004

    def test_checks_the_direct_disk_params(self):
        with pytest.raises(ConstraintViolation, match=r"\|z\| must be <= 1"):
            h22_from_params(FamilyId.STARLIKE, Order(0.0), 1.0, 0j, 0j, 1.5 + 0j, 0j)

    @pytest.mark.parametrize("y,w,name", [(3 + 0j, 5j, "y"), (0j, 5j, "w"), (1.5j, 0j, "y")])
    def test_checks_the_inverse_disk_params(self, y, w, name):
        # the error names the inverse side's parameter; unchecked, the first
        # case evaluated to (-2.453125+10j)
        with pytest.raises(ConstraintViolation, match=rf"\|{name}\| must be <= 1"):
            h22_from_params(FamilyId.STARLIKE, Order(0.0), 1.0, 0j, y, 0j, w)


def reference_h22_terms(family, beta, c, x, y):
    """`h22_terms` as written with a4's divisor chosen by a family branch."""
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
    half *= om / (6.0 if family is FamilyId.STARLIKE else 24.0) / 2.0
    b = 1.0 - abs(x) ** 2
    b *= half
    cw = abs(y) ** 2 - 1.0
    cw *= half
    return a, b, cw


class TestH22TermsMatchReference:
    """`h22_terms` reads a4's divisor from the family's row of constants; its
    terms are the branch version's, bit for bit, on 4,096 draws as arrays
    and 200 as Python scalars, at four betas.  (`bi_coeffs` is pinned to its
    per-family formulas in test_functionals.py.)"""

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.7, 0.9999999])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_arrays_and_scalars(self, family, beta):
        c, x, y, _, _ = next(disk_param_blocks(4096, 22, 0.25))
        for got, expected in zip(h22_terms(family, beta, c, x, y),
                                 reference_h22_terms(family, beta, c, x, y)):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        for args in zip(c[:200].tolist(), x[:200].tolist(), y[:200].tolist()):
            for got, expected in zip(h22_terms(family, beta, *args),
                                     reference_h22_terms(family, beta, *args)):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
