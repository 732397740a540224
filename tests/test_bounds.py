import math

import numpy as np
import pytest

from bihankel.bounds import (
    Branch,
    convex_h22_bound,
    convex_surrogate_terms,
    critical_point,
    fekete_szego_bound,
    h22_bound,
    quartic_profile,
    starlike_h22_bound,
    starlike_surrogate_terms,
    surface,
    surrogate_terms,
    thresholds,
)
from bihankel.caratheodory import disk_coeffs, unit_disk_samples
from bihankel.errors import DomainError
from bihankel.functionals import FamilyId, bi_coeffs

BETAS = [0.0, 0.1, 0.25, 0.5, 0.7, 0.9, 0.98]


class TestSurrogateTerms:
    def test_starlike_hand_values_at_c1_beta0(self):
        t1, t2, t3, t4 = starlike_surrogate_terms(1.0, 0.0)
        assert abs(t1 - 11 / 12) < 1e-15
        assert abs(t2 - 21 / 48) < 1e-15
        assert abs(t3 + 1 / 8) < 1e-15
        assert abs(t4 - 9 / 64) < 1e-15

    def test_convex_hand_values_at_c1_beta0(self):
        m1, m2, m3, m4 = convex_surrogate_terms(1.0, 0.0)
        assert abs(m1 - 8 / 96) < 1e-15
        assert abs(m2 - 9 / 192) < 1e-15
        assert abs(m3 + 3 / 192) < 1e-15
        assert abs(m4 - 9 / 576) < 1e-15

    @pytest.mark.parametrize("beta", BETAS)
    def test_gap_terms_vanish_at_c2(self, beta):
        for terms in (starlike_surrogate_terms, convex_surrogate_terms):
            t1, t2, t3, t4 = terms(2.0, beta)
            assert t2 == t3 == t4 == 0
            assert t1 > 0

    @pytest.mark.parametrize("beta", BETAS)
    def test_only_square_term_survives_at_c0(self, beta):
        w2 = (1 - beta) ** 2
        t1, t2, t3, t4 = starlike_surrogate_terms(0.0, beta)
        assert t1 == t2 == t3 == 0
        assert abs(t4 - w2 / 4) < 1e-15
        m1, m2, m3, m4 = convex_surrogate_terms(0.0, beta)
        assert m1 == m2 == m3 == 0
        assert abs(m4 - w2 / 36) < 1e-15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            starlike_surrogate_terms(2.1, 0.0)
        with pytest.raises(DomainError):
            starlike_surrogate_terms(-0.1, 0.0)
        with pytest.raises(DomainError):
            convex_surrogate_terms(1.0, 1.0)


class TestQuarticProfile:
    @pytest.mark.parametrize("family", list(FamilyId))
    @pytest.mark.parametrize("beta", BETAS)
    def test_equals_term_combination(self, family, beta):
        profile = quartic_profile(family, beta)
        cs = np.linspace(0, 2, 123)
        t1, t2, t3, t4 = surrogate_terms(family, cs, beta)
        assert np.max(np.abs(profile.value(cs) - (t1 + 2 * t2 + 2 * t3 + 4 * t4))) < 1e-12

    @pytest.mark.parametrize("beta", BETAS)
    def test_starlike_endpoints(self, beta):
        w2 = (1 - beta) ** 2
        profile = quartic_profile(FamilyId.STARLIKE, beta)
        assert abs(profile.value(0.0) - w2) < 1e-15
        expected = 4 * w2 * (4 * beta**2 - 8 * beta + 5) / 3
        assert abs(profile.value(2.0) - expected) < 1e-13

    @pytest.mark.parametrize("beta", BETAS)
    def test_convex_endpoints(self, beta):
        w2 = (1 - beta) ** 2
        profile = quartic_profile(FamilyId.CONVEX, beta)
        assert abs(profile.value(0.0) - w2 / 9) < 1e-15
        expected = w2 * (beta**2 - 2 * beta + 2) / 6
        assert abs(profile.value(2.0) - expected) < 1e-13

    def test_derivative_matches_finite_differences(self):
        h = 1e-6
        h2 = 1e-4  # wider step: the second difference amplifies rounding
        for family in FamilyId:
            for beta in (0.0, 0.4, 0.8):
                profile = quartic_profile(family, beta)
                for c in (0.3, 1.0, 1.7):
                    fd = (profile.value(c + h) - profile.value(c - h)) / (2 * h)
                    assert abs(profile.derivative(c) - fd) < 1e-7
                    fd2 = (
                        profile.value(c + h2) - 2 * profile.value(c) + profile.value(c - h2)
                    ) / h2**2
                    assert abs(profile.second_derivative(c) - fd2) < 1e-6


class TestSurface:
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_corners_and_origin(self, family):
        profile = quartic_profile(family, 0.25)
        for c in (0.0, 0.7, 1.4, 2.0):
            t1 = surrogate_terms(family, c, 0.25)[0]
            assert abs(surface(family, 0.0, 0.0, c, 0.25) - t1) < 1e-15
            assert abs(surface(family, 1.0, 1.0, c, 0.25) - profile.value(c)) < 1e-13

    @pytest.mark.parametrize("beta", BETAS)
    def test_constant_at_c2_starlike(self, beta):
        expected = 4 * (1 - beta) ** 2 * (4 * beta**2 - 8 * beta + 5) / 3
        rng = np.random.default_rng(31)
        for _ in range(10):
            lam, mu = rng.uniform(0, 1, 2)
            assert abs(surface(FamilyId.STARLIKE, lam, mu, 2.0, beta) - expected) < 1e-13

    @pytest.mark.parametrize("c", [0.0, 0.25, 0.8, 1.0, 1.3, 1.9])
    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_strict_maximum_at_corner(self, family, beta, c):
        # for c < 2 the majorant peaks at lam = mu = 1 and nowhere else
        mesh = np.linspace(0.0, 1.0, 101)
        surf = surface(family, mesh[:, None], mesh[None, :], c, beta)
        assert surf.shape == (101, 101)
        assert np.all(surf.ravel()[:-1] < surf[-1, -1])

    def test_hessian_identity_against_finite_differences(self):
        # F_ll * F_mm - F_lm^2 must equal 4 t3 (t3 + 2 t4) and be negative
        h = 1e-4
        for family in FamilyId:
            for beta in (0.0, 0.3, 0.6):
                for c in (0.4, 1.0, 1.6):
                    t1, t2, t3, t4 = surrogate_terms(family, c, beta)
                    f = lambda l, m: surface(family, l, m, c, beta)
                    fll = (f(0.5 + h, 0.5) - 2 * f(0.5, 0.5) + f(0.5 - h, 0.5)) / h**2
                    fmm = (f(0.5, 0.5 + h) - 2 * f(0.5, 0.5) + f(0.5, 0.5 - h)) / h**2
                    flm = (
                        f(0.5 + h, 0.5 + h)
                        - f(0.5 + h, 0.5 - h)
                        - f(0.5 - h, 0.5 + h)
                        + f(0.5 - h, 0.5 - h)
                    ) / (4 * h**2)
                    closed = 4 * t3 * (t3 + 2 * t4)
                    assert abs((fll * fmm - flm**2) - closed) < 1e-6
                    assert closed < 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            surface(FamilyId.STARLIKE, 1.5, 0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            surface(FamilyId.STARLIKE, 0.5, -0.5, 1.0, 0.0)


class TestThresholds:
    def test_values_and_ordering(self):
        t = thresholds()
        assert abs(t.quartic_sign_change - (13 - math.sqrt(89)) / 16) < 1e-16
        assert abs(t.branch_split - (29 - math.sqrt(137)) / 32) < 1e-16
        assert 0 < t.quartic_sign_change < t.branch_split < 1
        # documented decimal approximations
        assert abs(t.quartic_sign_change - 0.222876) < 1e-6
        assert abs(t.branch_split - 0.540478) < 1e-6

    def test_sign_change_is_quartic_root(self):
        b = thresholds().quartic_sign_change
        assert abs(16 * b**2 - 26 * b + 5) < 1e-13

    def test_branch_split_is_crossing_root(self):
        b = thresholds().branch_split
        assert abs(16 * b**2 - 29 * b + 11) < 1e-13


class TestCriticalPoint:
    def test_starlike_none_while_quartic_opens_up(self):
        assert critical_point(FamilyId.STARLIKE, 0.0) is None
        assert critical_point(FamilyId.STARLIKE, 0.2) is None

    def test_starlike_equals_two_at_branch_split(self):
        c = critical_point(FamilyId.STARLIKE, thresholds().branch_split)
        assert c is not None
        assert abs(c - 2.0) < 1e-9

    def test_convex_beta0_is_boundary(self):
        c = critical_point(FamilyId.CONVEX, 0.0)
        assert abs(c - 2.0) < 1e-15
        # stationarity cross-check by central differences
        profile = quartic_profile(FamilyId.CONVEX, 0.0)
        h = 1e-6
        fd = (profile.value(2.0) - profile.value(2.0 - h)) / h
        assert abs(fd) < 1e-5

    @pytest.mark.parametrize("beta", BETAS)
    def test_convex_always_interior_and_stationary(self, beta):
        c = critical_point(FamilyId.CONVEX, beta)
        assert 0 < c <= 2
        profile = quartic_profile(FamilyId.CONVEX, beta)
        assert abs(profile.derivative(c)) < 1e-12
        assert profile.second_derivative(c) < 0


class TestBounds:
    def test_starlike_beta_zero_value(self):
        result = starlike_h22_bound(0.0)
        assert result.bound == 20 / 3
        assert result.branch is Branch.BOUNDARY_C2
        assert result.critical_c == 2.0

    def test_convex_beta_zero_value(self):
        result = convex_h22_bound(0.0)
        assert result.bound == 1 / 3
        assert result.branch is Branch.INTERIOR_CRITICAL
        assert abs(result.critical_c - 2.0) < 1e-15

    def test_starlike_midrange(self):
        assert abs(starlike_h22_bound(0.5).bound - 2 / 3) < 1e-15

    def test_starlike_interior_branch_value(self):
        result = starlike_h22_bound(0.75)
        assert result.branch is Branch.INTERIOR_CRITICAL
        # hand evaluation: 0.0625 * (-10.1875) / (-5.5)
        assert abs(result.bound - 0.11576704545454546) < 1e-15
        assert 0 < result.critical_c < 2

    def test_convex_midrange(self):
        # hand evaluation: (0.25 / 24) * (-26.75 / -4.75)
        assert abs(convex_h22_bound(0.5).bound - 0.05866228070175439) < 1e-15

    def test_branch_label_at_split_is_boundary(self):
        split = thresholds().branch_split
        assert starlike_h22_bound(split).branch is Branch.BOUNDARY_C2

    def test_branch_continuity_at_split(self):
        split = thresholds().branch_split
        left = starlike_h22_bound(math.nextafter(split, 0.0)).bound
        right = starlike_h22_bound(math.nextafter(split, 1.0)).bound
        assert abs(left - right) < 1e-9

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_bound_equals_grid_maximum_of_quartic(self, family):
        # independent oracle: dense numpy scan of the quartic profile
        cs = np.linspace(0, 2, 200001)
        for beta in BETAS:
            profile = quartic_profile(family, beta)
            grid_max = float(np.max(profile.value(cs)))
            assert abs(grid_max - h22_bound(family, beta).bound) < 1e-8

    def test_convex_bound_decreases_to_zero(self):
        betas = np.linspace(0, 0.999, 300)
        values = [convex_h22_bound(b).bound for b in betas]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert values[-1] < 1e-5

    @pytest.mark.parametrize("beta", [b for b in BETAS if b <= 0.54])
    def test_quartic_monotone_below_split(self, beta):
        profile = quartic_profile(FamilyId.STARLIKE, beta)
        cs = np.linspace(0, 2, 5001)
        assert float(np.min(profile.derivative(cs))) >= -1e-12

    def test_domain_errors(self):
        for fn in (starlike_h22_bound, convex_h22_bound):
            with pytest.raises(DomainError):
                fn(1.0)
            with pytest.raises(DomainError):
                fn(-0.2)


class TestFeketeSzegoBound:
    def test_flat_branch_values(self):
        assert fekete_szego_bound(FamilyId.STARLIKE, 0.0, 1.0) == 1.0
        assert fekete_szego_bound(FamilyId.CONVEX, 0.0, 1.0) == 1 / 3
        assert abs(fekete_szego_bound(FamilyId.CONVEX, 0.4, 1.0) - 0.2) < 1e-15

    def test_outer_branch_values(self):
        assert fekete_szego_bound(FamilyId.STARLIKE, 0.0, 2.0) == 2.0
        assert fekete_szego_bound(FamilyId.STARLIKE, 0.0, 3.0) == 4.0
        assert fekete_szego_bound(FamilyId.CONVEX, 0.0, 2.0) == 1.0

    @pytest.mark.parametrize("family", list(FamilyId))
    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_is_domain_error(self, family, mu):
        with pytest.raises(DomainError):
            fekete_szego_bound(family, 0.0, mu)

    @pytest.mark.parametrize("beta", BETAS)
    def test_continuity_at_joins(self, beta):
        for family, joins in (
            (FamilyId.STARLIKE, (0.5, 1.5)),
            (FamilyId.CONVEX, (2 / 3, 4 / 3)),
        ):
            for mu in joins:
                inner = fekete_szego_bound(family, beta, mu)
                for side in (math.nextafter(mu, -10), math.nextafter(mu, 10)):
                    assert abs(fekete_szego_bound(family, beta, side) - inner) < 1e-12


def relaxed_fs_at_c2(family, beta, mu, x, y, z, w):
    """|a3 - mu a2^2| at c = 2 of the relaxed set, through both coefficient triples.

    (d2, d3) = (d2, -e3) for (d2, e3) = `disk_coeffs(2, y, -w)`, at d1 = -2.
    """
    c2, c3 = disk_coeffs(2.0, x, z)
    d2, e3 = disk_coeffs(2.0, y, -w)
    a2, a3, _ = bi_coeffs(family, 1.0 - beta, 2 + 0j, c2 - d2, c3 + e3)
    return abs(a3 - mu * a2**2)


def relaxed_draws():
    """(x, y, z, w) draws: the centre, a boundary point and seeded disk points."""
    pts = unit_disk_samples(np.random.default_rng(31), 4 * 6).reshape(6, 4)
    return [(0j, 0j, 0j, 0j), (1 + 0j, -1j, 1j, -1 + 0j), *(tuple(map(complex, r)) for r in pts)]


class TestFeketeSzegoNeedsTheSumRelation:
    """Without the c2 + d2 relation the starlike bound is false.

    At c = 2 the relaxed set gives |a3 - mu a2^2| = 4 (1-b)^2 |1 - mu| for
    every x, y, z, w.  This pins that counterexample, so the bound can only
    be checked where the relation holds.
    """

    # beta, value, bound at mu = 0
    STARLIKE_MU0 = [(0.0, 4.0, 2.0), (0.45, 1.21, 1.1), (0.5, 1.0, 1.0), (0.55, 0.81, 0.9)]

    @pytest.mark.parametrize("beta,value,bound", STARLIKE_MU0)
    def test_starlike_values_at_mu_0(self, beta, value, bound):
        assert fekete_szego_bound(FamilyId.STARLIKE, beta, 0.0) == pytest.approx(bound, rel=1e-15)
        for draw in relaxed_draws():
            got = relaxed_fs_at_c2(FamilyId.STARLIKE, beta, 0.0, *draw)
            assert got == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("mu", [0.0, 3.0])
    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.45, 0.5, 0.55, 0.9])
    def test_starlike_bound_fails_exactly_below_one_half(self, beta, mu):
        bound = fekete_szego_bound(FamilyId.STARLIKE, beta, mu)
        for draw in relaxed_draws():
            got = relaxed_fs_at_c2(FamilyId.STARLIKE, beta, mu, *draw)
            assert got == pytest.approx(4 * (1 - beta) ** 2 * abs(1 - mu), rel=1e-14)
            if beta < 0.5:
                assert got > bound
            elif beta == 0.5:
                assert got == pytest.approx(bound, rel=1e-14)
            else:
                assert got < bound

    @pytest.mark.parametrize("mu", [0.0, 3.0])
    @pytest.mark.parametrize("beta", BETAS)
    def test_convex_value_stays_below_its_bound(self, beta, mu):
        bound = fekete_szego_bound(FamilyId.CONVEX, beta, mu)
        for draw in relaxed_draws():
            got = relaxed_fs_at_c2(FamilyId.CONVEX, beta, mu, *draw)
            assert got == pytest.approx((1 - beta) ** 2 * abs(1 - mu), rel=1e-14)
            assert got <= bound + 1e-15


class TestValidatorsRejectNaN:
    """c, lambda and mu are accepted only when every value is in range."""

    profile = quartic_profile(FamilyId.STARLIKE, 0.3)
    methods = {"value": profile.value, "derivative": profile.derivative,
               "second_derivative": profile.second_derivative,
               "terms": lambda c: surrogate_terms(FamilyId.STARLIKE, c, 0.3)}

    @staticmethod
    def majorant(lam, mu, c):
        return surface(FamilyId.STARLIKE, lam, mu, c, 0.3)

    @pytest.mark.parametrize("c", [math.nan, np.array([0.5, math.nan]), np.full((2, 3), math.nan)])
    @pytest.mark.parametrize("method", ["value", "derivative", "second_derivative", "terms"])
    def test_nan_c(self, method, c):
        with pytest.raises(DomainError, match="c must lie in"):
            self.methods[method](c)

    @pytest.mark.parametrize(
        "lam,mu,c,name",
        [(math.nan, 0.5, 1.0, "lambda"), (0.5, math.nan, 1.0, "mu"), (0.5, 0.5, math.nan, "c"),
         (np.array([0.2, math.nan]), 0.5, 1.0, "lambda")],
    )
    def test_nan_surface(self, lam, mu, c, name):
        with pytest.raises(DomainError, match=f"{name} must lie in"):
            self.majorant(lam, mu, c)

    @pytest.mark.parametrize("lam,mu,c,message", [
        (1.5, 0.5, 1.0, "lambda must lie in [0, 1], got 1.5"),
        (0.5, np.array([0.2, -0.25]), 1.0, "mu must lie in [0, 1], got -0.25"),
        (0.5, 0.5, np.array([0.5, 2.5, 3.0]), "c must lie in [0, 2], got 2.5"),
    ])
    def test_message_names_the_first_bad_value(self, lam, mu, c, message):
        with pytest.raises(DomainError) as info:
            self.majorant(lam, mu, c)
        assert str(info.value) == message

    def test_infinities_rejected(self):
        with pytest.raises(DomainError):
            self.profile.value(math.inf)
        with pytest.raises(DomainError):
            self.majorant(0.5, -math.inf, 1.0)

    def test_closed_ranges_and_empty_arrays_pass(self):
        assert self.profile.value(np.array([])).shape == (0,)
        assert np.isfinite(self.profile.value(np.array([0.0, 2.0]))).all()
        assert np.isfinite(self.majorant(np.array([0.0, 1.0]), 1.0, 2.0)).all()


# the table-sweep grid plus a beta where numpy's ** rounds (1-b)^2 apart
# from the float ** of the closed forms
SWEEP_BETAS = [k * 4e-4 for k in range(2476)] + [0.311221784]


class TestArrayProfile:
    """A beta array gives (rows, 1) alpha columns, bit for bit the scalar profiles."""

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_columns_equal_scalar_profiles_over_the_sweep(self, family):
        stacked = quartic_profile(family, SWEEP_BETAS)
        for name in ("alpha4", "alpha2", "alpha0"):
            column = getattr(stacked, name)
            assert column.shape == (len(SWEEP_BETAS), 1)
            expected = [getattr(quartic_profile(family, b), name) for b in SWEEP_BETAS]
            assert np.array_equal(column[:, 0], expected), name

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_alphas_are_the_float_formulas_over_the_sweep(self, family):
        # the closed forms round (1-b)^2 with float **; the profile must too
        def alphas(b):
            w2 = (1.0 - b) ** 2
            if family is FamilyId.STARLIKE:
                s = w2 / 48.0
                return s * (16.0 * b * b - 26.0 * b + 5.0), s * 24.0 * (2.0 - b), s * 48.0
            s = w2 / 288.0
            return s * (3.0 * b * b - 3.0 * b - 4.0), s * 4.0 * (8.0 - 3.0 * b), s * 32.0

        stacked = quartic_profile(family, SWEEP_BETAS)
        expected = np.array([alphas(b) for b in SWEEP_BETAS])
        got = np.hstack([stacked.alpha4, stacked.alpha2, stacked.alpha0])
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_rows_equal_each_profile_bit_for_bit(self, family):
        stacked = quartic_profile(family, np.array(BETAS))
        cs = np.linspace(0.0, 2.0, 2001)
        grid = np.tile(cs, (len(BETAS), 1))
        for values in (stacked.value(cs), stacked.value(grid)):
            assert values.shape == (len(BETAS), cs.size)
            for row, beta in zip(values, BETAS):
                assert np.array_equal(row, quartic_profile(family, beta).value(cs))

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_value_is_the_written_formula(self, family):
        # the in-place sum keeps the operation order of the written formula,
        # on arrays, 0-d arrays and floats alike
        cs = np.random.default_rng(5).uniform(0.0, 2.0, 20001)
        for beta in BETAS:
            p = quartic_profile(family, beta)
            c2 = cs * cs
            assert np.array_equal(p.value(cs), p.alpha4 * c2 * c2 + p.alpha2 * c2 + p.alpha0)
            for c in (1.3, 0.7, 2.0):
                expected = p.alpha4 * (c * c) * (c * c) + p.alpha2 * (c * c) + p.alpha0
                assert p.value(c) == expected
                assert p.value(np.array(c)) == expected

    @pytest.mark.parametrize("beta", [[0.2, 1.0], [math.nan], [-0.1, 0.5], np.array([0.5, math.inf])])
    def test_out_of_domain_betas_rejected(self, beta):
        with pytest.raises(DomainError, match=r"beta must lie in \[0, 1\)"):
            quartic_profile(FamilyId.STARLIKE, beta)

    def test_empty_beta_array_gives_no_rows(self):
        assert quartic_profile(FamilyId.CONVEX, []).value(np.linspace(0.0, 2.0, 5)).shape == (0, 5)

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_every_method_gives_each_profile_row(self, family):
        stacked = quartic_profile(family, SWEEP_BETAS)
        singles = [quartic_profile(family, beta) for beta in SWEEP_BETAS]
        cs = np.linspace(0.0, 2.0, 41)
        for name in ("value", "derivative", "second_derivative"):
            for c in (cs, 1.3):
                rows = getattr(stacked, name)(c)
                assert rows.shape == (len(SWEEP_BETAS), np.size(c))
                expected = np.array([getattr(p, name)(c) for p in singles]).reshape(rows.shape)
                assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64)), name

    def test_stacked_value_checks_every_point(self):
        stacked = quartic_profile(FamilyId.CONVEX, [0.0, 0.5])
        grid = np.full((2, 5), 1.0)
        grid[1, 3] = math.nan
        with pytest.raises(DomainError):
            stacked.value(grid)


def float_bound(family, beta):
    """The closed forms on Python floats, as written before the array path:
    (bound, branch, critical_c)."""
    w2 = (1.0 - beta) ** 2
    if family is FamilyId.STARLIKE:
        if beta <= (29.0 - math.sqrt(137.0)) / 32.0:
            return 4.0 * w2 * (4.0 * beta * beta - 8.0 * beta + 5.0) / 3.0, Branch.BOUNDARY_C2, 2.0
        lead = 16.0 * beta * beta - 26.0 * beta + 5.0
        return (w2 * (13.0 * beta * beta - 14.0 * beta - 7.0) / lead, Branch.INTERIOR_CRITICAL,
                math.sqrt(-12.0 * (2.0 - beta) / lead))
    lead = 3.0 * beta * beta - 3.0 * beta - 4.0
    return (w2 / 24.0 * (5.0 * beta * beta + 8.0 * beta - 32.0) / lead, Branch.INTERIOR_CRITICAL,
            math.sqrt(2.0 * (3.0 * beta - 8.0) / lead))


def threshold_betas():
    out = []
    for t in (thresholds().quartic_sign_change, thresholds().branch_split):
        out += [math.nextafter(t, 0.0), t, math.nextafter(t, 1.0)]
    return out + [math.nextafter(1.0, 0.0)]


class TestArrayBound:
    """`h22_bound` of a beta array: bound, branch and critical_c of each entry
    equal the float beta's, bit for bit."""

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_entries_equal_the_scalar_results(self, family):
        betas = SWEEP_BETAS + threshold_betas()
        got = h22_bound(family, betas)
        assert got.bound.shape == got.branch.shape == got.critical_c.shape == (len(betas),)
        assert np.array_equal(got.beta, betas)
        for k, beta in enumerate(betas):
            one = h22_bound(family, beta)
            assert type(one.bound) is float and type(one.critical_c) is float
            assert (got.bound[k], got.branch[k], got.critical_c[k]) == \
                (one.bound, one.branch, one.critical_c)
            assert (one.bound, one.branch, one.critical_c) == float_bound(family, beta)

    def test_branch_switches_after_the_split(self):
        split = thresholds().branch_split
        got = starlike_h22_bound([math.nextafter(split, 0.0), split, math.nextafter(split, 1.0)])
        assert got.branch.tolist() == [Branch.BOUNDARY_C2] * 2 + [Branch.INTERIOR_CRITICAL]
        assert got.critical_c[:2].tolist() == [2.0, 2.0] and got.critical_c[2] < 2.0

    def test_convex_is_always_interior(self):
        assert set(convex_h22_bound(SWEEP_BETAS).branch) == {Branch.INTERIOR_CRITICAL}

    def test_bad_entry_is_rejected(self):
        with pytest.raises(DomainError, match=r"got 1\.0$"):
            h22_bound(FamilyId.CONVEX, [0.2, 1.0, math.nan])


# The two per-family term functions and the majorant as they were written
# before `surrogate_terms` took one row of constants per family, kept as
# references.

def reference_starlike_terms(c, beta):
    w2 = (1.0 - beta) ** 2
    gap = 4.0 - c * c
    t1 = w2 / 12.0 * ((1.0 + 4.0 * w2) * c**4 - 2.0 * c**3 + 8.0 * c)
    t2 = w2 / 48.0 * c * c * gap * (7.0 - 3.0 * beta)
    t3 = w2 / 24.0 * c * gap * (c - 2.0)
    t4 = w2 / 64.0 * gap * gap
    return t1, t2, t3, t4


def reference_convex_terms(c, beta):
    w2 = (1.0 - beta) ** 2
    gap = 4.0 - c * c
    t1 = w2 / 96.0 * ((1.0 + w2) * c**4 - 2.0 * c**3 + 8.0 * c)
    t2 = w2 / 192.0 * c * c * gap * (3.0 - beta)
    t3 = w2 / 192.0 * c * gap * (c - 2.0)
    t4 = w2 / 576.0 * gap * gap
    return t1, t2, t3, t4


REFERENCE_TERMS = {FamilyId.STARLIKE: reference_starlike_terms,
                   FamilyId.CONVEX: reference_convex_terms}


def reference_surface(family, lam, mu, c, beta):
    t1, t2, t3, t4 = REFERENCE_TERMS[family](c, beta)
    s = lam + mu
    return t1 + t2 * s + t3 * (lam * lam + mu * mu) + t4 * (s * s)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestMergedTermsMatchReference:
    """`surrogate_terms` and `surface` are the per-family formulas, bit for bit.

    Every beta gets the whole c-grid, four scalar c and its own share of the
    200k random points."""

    rng = np.random.default_rng(1901)
    GRID = np.linspace(0.0, 2.0, 4001)
    BETAS = rng.random(300).tolist() + [0.0, thresholds().quartic_sign_change,
                                        thresholds().branch_split, 0.99, 1.0 - 1e-7]
    # (c, lam, mu) rows, split into one share per beta
    SHARES = np.array_split(rng.uniform(0.0, 1.0, (200_000, 3)) * [2.0, 1.0, 1.0], len(BETAS))

    def test_the_grid_holds_both_ends(self):
        assert self.GRID[0] == 0.0 and self.GRID[-1] == 2.0

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_terms_on_a_grid_random_and_scalar_c(self, family):
        reference = REFERENCE_TERMS[family]
        for beta, share in zip(self.BETAS, self.SHARES):
            for c in (self.GRID, share[:, 0], 0.0, 0.7, 1.3, 2.0):
                for got, expected in zip(surrogate_terms(family, c, beta), reference(c, beta)):
                    assert np.array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_surface_on_random_points_and_the_corner(self, family):
        for beta, (c, lam, mu) in zip(self.BETAS, (share.T for share in self.SHARES)):
            for point in ((lam, mu, c), (1.0, 1.0, self.GRID), (0.3, 0.9, 1.1)):
                got = surface(family, *point, beta)
                assert np.array_equal(bits(got), bits(reference_surface(family, *point, beta)))


# The corner quartic, its stationary point, the closed-form bounds and the
# Fekete-Szego bound as they were written with one branch per family, before
# each family became one row of `_ROWS`; kept as references.

def reference_lead(family, beta):
    if family is FamilyId.STARLIKE:
        return 16.0 * beta * beta - 26.0 * beta + 5.0
    return 3.0 * beta * beta - 3.0 * beta - 4.0


def reference_stationary_c(family, beta, lead):
    with np.errstate(divide="ignore", invalid="ignore"):
        if family is FamilyId.STARLIKE:
            return np.sqrt(-12.0 * (2.0 - beta) / lead)
        return np.sqrt(2.0 * (3.0 * beta - 8.0) / lead)


def reference_alphas(family, beta):
    """(alpha4, alpha2, alpha0) of `quartic_profile`."""
    if np.ndim(beta):
        beta = np.asarray(beta, dtype=float)[:, None]
    w2 = np.float_power(1.0 - beta, 2)
    if family is FamilyId.STARLIKE:
        scale = w2 / 48.0
        alpha2, alpha0 = scale * 24.0 * (2.0 - beta), scale * 48.0
    else:
        scale = w2 / 288.0
        alpha2, alpha0 = scale * 4.0 * (8.0 - 3.0 * beta), scale * 32.0
    return scale * reference_lead(family, beta), alpha2, alpha0


def reference_critical_point(family, beta):
    lead = reference_lead(family, beta)
    if family is FamilyId.STARLIKE and lead >= 0.0:
        return None
    return float(reference_stationary_c(family, beta, lead))


def reference_h22_bound(family, beta):
    """(bound, on_c2, critical_c) of `h22_bound`, before `_bound_result`."""
    b = np.asarray(beta, dtype=float)
    w2 = np.float_power(1.0 - b, 2)
    lead = reference_lead(family, b)
    if family is FamilyId.STARLIKE:
        on_c2 = b <= (29.0 - math.sqrt(137.0)) / 32.0
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.where(on_c2, 4.0 * w2 * (4.0 * b * b - 8.0 * b + 5.0) / 3.0,
                             w2 * (13.0 * b * b - 14.0 * b - 7.0) / lead)
        return bound, on_c2, np.where(on_c2, 2.0, reference_stationary_c(family, b, lead))
    bound = w2 / 24.0 * (5.0 * b * b + 8.0 * b - 32.0) / lead
    return bound, np.zeros(b.shape, bool), reference_stationary_c(family, b, lead)


def reference_fekete_szego_bound(family, beta, mu):
    w = 1.0 - beta
    if family is FamilyId.STARLIKE:
        return w if 0.5 <= mu <= 1.5 else 2.0 * w * abs(mu - 1.0)
    if 2.0 / 3.0 <= mu <= 4.0 / 3.0:
        return w / 3.0
    return w * abs(mu - 1.0)


def same_bits(got, expected):
    return np.array_equal(bits(got), bits(expected))


class TestRowsMatchReference:
    """Each row-driven function is its per-family formula, bit for bit, on a
    beta array and on each float beta: the table-sweep grid, 20,000 random
    betas, the ends of the range and both thresholds one ulp either side."""

    BETAS = (SWEEP_BETAS + np.random.default_rng(2201).random(20_000).tolist()
             + [5e-324, 0.9999999] + threshold_betas())
    JOINS = (0.5, 1.5, 2.0 / 3.0, 4.0 / 3.0)
    MUS = np.linspace(-1.0, 3.0, 11).tolist() + [
        math.nextafter(m, to) for m in JOINS for to in (-math.inf, math.inf)] + list(JOINS)

    def test_the_betas(self):
        assert len(self.BETAS) == 22_486 and min(self.BETAS) == 0.0
        assert max(self.BETAS) == math.nextafter(1.0, 0.0)

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_quartic_profile(self, family):
        stacked = quartic_profile(family, self.BETAS)
        for name, expected in zip(("alpha4", "alpha2", "alpha0"),
                                  reference_alphas(family, self.BETAS)):
            assert same_bits(getattr(stacked, name), expected), name
        for beta in self.BETAS:
            profile = quartic_profile(family, beta)
            got = (profile.alpha4, profile.alpha2, profile.alpha0)
            expected = reference_alphas(family, beta)
            assert all(type(g) is type(e) and same_bits(g, e) for g, e in zip(got, expected))

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_critical_point(self, family):
        for beta in self.BETAS:
            got, expected = critical_point(family, beta), reference_critical_point(family, beta)
            assert got is expected is None or (type(got) is float and same_bits(got, expected))

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_h22_bound_on_an_array(self, family):
        got = h22_bound(family, self.BETAS)
        bound, on_c2, critical_c = reference_h22_bound(family, self.BETAS)
        assert same_bits(got.bound, bound) and same_bits(got.critical_c, critical_c)
        assert got.branch.tolist() == np.where(
            on_c2, Branch.BOUNDARY_C2, Branch.INTERIOR_CRITICAL).tolist()

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_h22_bound_on_floats(self, family):
        for beta in self.BETAS:
            got = h22_bound(family, beta)
            bound, on_c2, critical_c = reference_h22_bound(family, beta)
            assert same_bits(got.bound, bound) and same_bits(got.critical_c, critical_c)
            assert got.branch is (Branch.BOUNDARY_C2 if on_c2 else Branch.INTERIOR_CRITICAL)

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_fekete_szego_bound(self, family):
        for beta in self.BETAS[::50]:
            for mu in self.MUS:
                got = fekete_szego_bound(family, beta, mu)
                expected = reference_fekete_szego_bound(family, beta, mu)
                assert type(got) is float and same_bits(got, expected)

    def test_the_partials_are_h22_bound(self):
        for beta in (0.0, 0.3, 0.6):
            assert starlike_h22_bound(beta) == h22_bound(FamilyId.STARLIKE, beta)
            assert convex_h22_bound(beta) == h22_bound(FamilyId.CONVEX, beta)


class TestFamilyAliases:
    """The per-family names are functions of their own that call the one
    formula, bit for bit, on the table-sweep betas as an array."""

    ALIASES = ((starlike_surrogate_terms, surrogate_terms, FamilyId.STARLIKE),
               (convex_surrogate_terms, surrogate_terms, FamilyId.CONVEX),
               (starlike_h22_bound, h22_bound, FamilyId.STARLIKE),
               (convex_h22_bound, h22_bound, FamilyId.CONVEX))
    IDS = ("starlike_terms", "convex_terms", "starlike_bound", "convex_bound")

    @pytest.mark.parametrize("alias,general,family", ALIASES, ids=IDS)
    def test_named_and_documented(self, alias, general, family):
        assert alias.__name__ == f"{family.value}_{general.__name__}"
        assert alias.__module__ == "bihankel.bounds"
        assert alias.__doc__ and general.__name__ in alias.__doc__

    @pytest.mark.parametrize("alias,general,family", ALIASES, ids=IDS)
    def test_the_general_result_bit_for_bit(self, alias, general, family):
        betas = np.array(SWEEP_BETAS)
        if general is h22_bound:
            got, expected = alias(betas), general(family, betas)
            assert same_bits(got.bound, expected.bound)
            assert same_bits(got.critical_c, expected.critical_c)
            assert got.branch.tolist() == expected.branch.tolist()
        else:
            c = np.linspace(0.0, 2.0, 9)[:, None]
            got, expected = alias(c, betas), general(family, c, betas)
            assert all(same_bits(u, v) for u, v in zip(got, expected))
