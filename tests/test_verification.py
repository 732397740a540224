import numpy as np
import pytest

from bihankel import verification as vf
from bihankel.caratheodory import (
    coeffs_from_disk_params,
    p_coefficients_from_herglotz,
    sample_disk_params,
    sample_herglotz_measures,
)
from bihankel.errors import DomainError
from bihankel.functionals import BiCoefficients, FamilyId, Order, verify_coefficient_system

INVARIANT = ("series_identity_residual", "disk_param_coeff_bound", "herglotz_coeff_bound")
FAMILY_FREE = ("disk_param_coeff_bound", "herglotz_coeff_bound")
BETAS = (0.0, 0.3, 0.7)


# reference loops: the spot checks as run_checks computed them inline, per beta

def reference_series_worst(family, beta, trials, seed):
    rng = np.random.default_rng(seed + 1)
    order = Order(beta)
    worst = 0.0
    for _ in range(trials):
        draw = rng.uniform(-3.0, 3.0, 6)
        a = BiCoefficients(
            complex(draw[0], draw[1]),
            complex(draw[2], draw[3]),
            complex(draw[4], draw[5]),
        )
        worst = max(worst, verify_coefficient_system(family, order, a).max_residual)
    return worst


def reference_disk_param_excess(spot_samples, seed):
    params = sample_disk_params(spot_samples, seed + 2)
    return max(
        max(abs(c) for c in coeffs_from_disk_params(p).as_tuple()) - 2.0
        for p in params
    )


def reference_herglotz_excess(spot_samples, seed):
    measures = sample_herglotz_measures(spot_samples, seed + 3)
    return max(
        max(abs(c) for c in p_coefficients_from_herglotz(m).as_tuple()) - 2.0
        for m in measures
    )


@pytest.fixture(autouse=True)
def fresh_cache():
    vf.clear_spot_check_cache()
    yield
    vf.clear_spot_check_cache()


def values(checks):
    return {c.name: c.value for c in checks}


class TestSpotCheckMemo:
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_invariant_values_equal_across_betas(self, family):
        runs = [
            values(vf.run_checks(family, beta, seed=2, trials=15, spot_samples=150))
            for beta in BETAS
        ]
        for name in INVARIANT:
            assert len({run[name] for run in runs}) == 1, name

    def test_coefficient_checks_equal_across_families(self):
        runs = [
            values(vf.run_checks(family, 0.3, seed=2, trials=5, spot_samples=150))
            for family in FamilyId
        ]
        for name in FAMILY_FREE:
            assert runs[0][name] == runs[1][name]

    @pytest.mark.parametrize("family", list(FamilyId))
    @pytest.mark.parametrize("beta", BETAS)
    def test_series_helper_matches_reference_loop(self, family, beta):
        assert vf._series_worst(family, 30, 4) == reference_series_worst(family, beta, 30, 4)

    def test_sampling_helpers_match_reference_loops(self):
        assert vf._disk_param_excess(300, 4) == reference_disk_param_excess(300, 4)
        assert vf._herglotz_excess(300, 4) == reference_herglotz_excess(300, 4)

    def test_run_checks_reports_reference_values(self):
        got = values(vf.run_checks(FamilyId.CONVEX, 0.7, seed=6, trials=12, spot_samples=120))
        assert got["series_identity_residual"] == reference_series_worst(
            FamilyId.CONVEX, 0.7, 12, 6
        )
        assert got["disk_param_coeff_bound"] == reference_disk_param_excess(120, 6)
        assert got["herglotz_coeff_bound"] == reference_herglotz_excess(120, 6)

    def test_changed_arguments_never_return_a_stale_value(self):
        keys = [(10, 0), (10, 1), (20, 0), (20, 1), (10, 0)]
        for n, seed in keys:
            assert vf._disk_param_excess(n, seed) == reference_disk_param_excess(n, seed)
            assert vf._herglotz_excess(n, seed) == reference_herglotz_excess(n, seed)
            for family in FamilyId:
                assert vf._series_worst(family, n, seed) == reference_series_worst(
                    family, 0.0, n, seed
                )
        # the disk-param values differ per key, so a stale hit would show above;
        # other values can coincide (the Herglotz excess is 0.0 for every key,
        # and more trials at one seed extend the same draws), so check that
        # every new key was computed and only the repeated one was served
        assert len({vf._disk_param_excess(n, seed) for n, seed in keys}) == 4
        for helper, misses in (
            (vf._disk_param_excess, 4), (vf._herglotz_excess, 4), (vf._series_worst, 8)
        ):
            assert helper.cache_info().misses == misses

    def test_one_verify_run_samples_once(self, monkeypatch):
        calls = []

        def counting(count, seed):
            calls.append((count, seed))
            return sample_herglotz_measures(count, seed)

        monkeypatch.setattr(vf, "sample_herglotz_measures", counting)
        for family in FamilyId:
            for beta in BETAS:
                vf.run_checks(family, beta, seed=1, trials=2, spot_samples=50)
        assert calls == [(50, 4)]
        vf.clear_spot_check_cache()
        vf.run_checks(FamilyId.STARLIKE, 0.0, seed=1, trials=2, spot_samples=50)
        assert calls == [(50, 4), (50, 4)]

    def test_caches_are_bounded_and_hold_scalars(self):
        for helper, args in (
            (vf._series_worst, (FamilyId.STARLIKE, 3, 0)),
            (vf._disk_param_excess, (40, 0)),
            (vf._herglotz_excess, (40, 0)),
        ):
            assert type(helper(*args)) is float
            assert 1 <= helper.cache_info().maxsize <= 8


class TestRunChecksInputs:
    @pytest.mark.parametrize("trials,spot_samples", [(0, 50), (5, 0), (-1, 50), (0, 0)])
    def test_empty_draws_raise(self, trials, spot_samples):
        with pytest.raises(DomainError, match="trials and samples must be >= 1"):
            vf.run_checks(FamilyId.STARLIKE, 0.0, trials=trials, spot_samples=spot_samples)

    def test_beta_is_checked_first(self):
        with pytest.raises(DomainError, match="beta"):
            vf.run_checks(FamilyId.STARLIKE, 2.0, trials=0, spot_samples=0)

    @pytest.mark.parametrize("seed", [-1, -4, -5])
    def test_negative_seed_raises(self, seed):
        # seed + 4 and seed + 5 drive the sampling checks, so -1 used to run
        with pytest.raises(DomainError, match=f"seed must be >= 0, got {seed}"):
            vf.run_checks(FamilyId.STARLIKE, 0.0, seed=seed, trials=1, spot_samples=1)

    def test_smallest_counts_run(self):
        checks = vf.run_checks(FamilyId.CONVEX, 0.3, trials=1, spot_samples=1)
        assert vf.all_passed(checks)

    @pytest.mark.parametrize("c_points", [2, 1, 0, -4])
    def test_c_grid_without_interior_raises(self, c_points):
        with pytest.raises(DomainError, match=f"c_points must be >= 3, got {c_points}"):
            vf.run_checks(FamilyId.STARLIKE, 0.0, trials=1, spot_samples=1, c_points=c_points)

    def test_smallest_c_grid_runs(self):
        checks = vf.run_checks(FamilyId.STARLIKE, 0.0, trials=1, spot_samples=1, c_points=3)
        assert vf.all_passed(checks)
