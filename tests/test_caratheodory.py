import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihankel.caratheodory import (
    DiskParams,
    HerglotzMeasure,
    PCoefficients,
    check_seed,
    coeffs_from_disk_params,
    coeffs_from_herglotz,
    p_coefficients_from_herglotz,
    rotate_to_real,
    sample_disk_params,
    sample_herglotz_measures,
    unit_disk_samples,
    validate_p,
    x_from_c2,
)
from bihankel.errors import ConstraintViolation, DomainError


class TestDiskParams:
    def test_domain_enforced_at_construction(self):
        with pytest.raises(ConstraintViolation):
            DiskParams(2.5, 0j, 0j)
        with pytest.raises(ConstraintViolation):
            DiskParams(-0.5, 0j, 0j)
        with pytest.raises(ConstraintViolation):
            DiskParams(1.0, 1.1 + 0j, 0j)
        with pytest.raises(ConstraintViolation):
            DiskParams(1.0, 0j, 0 + 1.2j)

    @pytest.mark.parametrize("x,z", [(0j, 0j), (0.5 + 0.1j, -0.3j), (1j, 1j)])
    def test_c_equals_two_pins_all_coefficients(self, x, z):
        # the 4 - c^2 factors vanish, leaving (2, 2, 2)
        p = coeffs_from_disk_params(DiskParams(2.0, x, z))
        assert p.as_tuple() == (2, 2, 2)

    def test_c_zero_x_one(self):
        p = coeffs_from_disk_params(DiskParams(0.0, 1 + 0j, 0.7j))
        assert p.as_tuple() == (0, 2, 0)

    def test_hand_substitution(self):
        p = coeffs_from_disk_params(DiskParams(1.0, 0j, 1 + 0j))
        assert p.c1 == 1
        assert p.c2 == 0.5
        assert p.c3 == 1.75


class TestHerglotz:
    def test_single_atom_extreme_point(self):
        m = HerglotzMeasure(((1.0, 0.0),))
        assert coeffs_from_herglotz(m, 5) == [2, 2, 2, 2, 2]

    def test_two_atoms_cancel_odd_harmonics(self):
        m = HerglotzMeasure(((0.5, 0.0), (0.5, math.pi)))
        c1, c2, c3 = coeffs_from_herglotz(m, 3)
        assert abs(c1) < 1e-15
        assert abs(c2 - 2) < 1e-15
        assert abs(c3) < 1e-15

    def test_random_measure_respects_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            weights = rng.uniform(0.1, 1.0, 5)
            weights /= weights.sum()
            angles = rng.uniform(0, 2 * math.pi, 5)
            m = HerglotzMeasure(tuple(zip(weights.tolist(), angles.tolist())))
            cs = coeffs_from_herglotz(m, 6)
            # triangle inequality oracle: |c_k| <= 2 sum w_j = 2
            assert all(abs(c) <= 2 * weights.sum() + 1e-12 for c in cs)

    def test_invalid_measures_rejected(self):
        with pytest.raises(ConstraintViolation):
            HerglotzMeasure(())
        with pytest.raises(ConstraintViolation):
            HerglotzMeasure(((0.7, 0.0), (0.7, 1.0)))
        with pytest.raises(ConstraintViolation):
            HerglotzMeasure(((1.0, -0.5),))
        with pytest.raises(ConstraintViolation):
            HerglotzMeasure(((1.0, 7.0),))


class TestValidateP:
    def test_bound_attained(self):
        assert validate_p(PCoefficients(2, 2, 2))

    def test_violation_detected(self):
        assert not validate_p(PCoefficients(2.5, 0, 0))

    def test_sampled_params_always_valid(self):
        for params in sample_disk_params(2000, seed=11):
            assert validate_p(coeffs_from_disk_params(params))

    def test_sampled_measures_always_valid(self):
        for m in sample_herglotz_measures(2000, seed=12):
            assert validate_p(p_coefficients_from_herglotz(m))


@settings(max_examples=200, derandomize=True)
@given(
    c=st.floats(0.0, 2.0),
    rx=st.floats(0.0, 1.0),
    tx=st.floats(0.0, 2 * math.pi, exclude_max=True),
    rz=st.floats(0.0, 1.0),
    tz=st.floats(0.0, 2 * math.pi, exclude_max=True),
)
def test_parametrization_stays_in_class(c, rx, tx, rz, tz):
    params = DiskParams(c, rx * cmath.exp(1j * tx), rz * cmath.exp(1j * tz))
    assert validate_p(coeffs_from_disk_params(params))


class TestRotation:
    def test_first_coefficient_becomes_real(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = PCoefficients(
                *(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
            )
            r = rotate_to_real(p)
            assert abs(r.c1.imag) < 1e-12
            assert r.c1.real >= 0
            for before, after in zip(p.as_tuple(), r.as_tuple()):
                assert abs(abs(before) - abs(after)) < 1e-12

    def test_zero_first_coefficient_untouched(self):
        p = PCoefficients(0, 1j, -1)
        assert rotate_to_real(p) is p


class TestXRecovery:
    def test_herglotz_samples_land_in_disk(self):
        # surjectivity at the (c1, c2) level: every rotated class sample
        # admits an |x| <= 1 reproducing its second coefficient
        for m in sample_herglotz_measures(1000, seed=14):
            p = rotate_to_real(p_coefficients_from_herglotz(m))
            c1 = p.c1.real
            x = x_from_c2(c1, p.c2)
            assert abs(x) <= 1 + 1e-9
            gap = 4.0 - c1 * c1
            residual = abs(2 * p.c2 - c1 * c1 - x * gap)
            assert residual <= (1e-12 if gap > 1e-5 else 2e-5)

    def test_round_trip_from_params(self):
        for params in sample_disk_params(500, seed=15):
            p = coeffs_from_disk_params(params)
            if 4 - params.c**2 <= 1e-5:
                continue
            assert abs(x_from_c2(params.c, p.c2) - params.x) < 1e-9


class TestSamplers:
    def test_seeded_reproducibility(self):
        assert sample_disk_params(50, seed=3) == sample_disk_params(50, seed=3)
        a = sample_herglotz_measures(50, seed=4)
        b = sample_herglotz_measures(50, seed=4)
        assert a == b

    def test_disk_rejection_stays_inside(self):
        rng = np.random.default_rng(5)
        pts = unit_disk_samples(rng, 10000)
        assert pts.shape == (10000,)
        assert float(np.max(np.abs(pts))) <= 1.0


def reference_disk(seed, count):
    """The first `count` accepted (re, im) pairs, and the state just past them.

    Draws one long run of interleaved pairs, takes the accepted ones, and
    rebuilds the end state by drawing exactly the doubles used.
    """
    pairs = np.random.default_rng(seed).uniform(-1.0, 1.0, (2 * count + 64, 2))
    pts = pairs[:, 0] + 1j * pairs[:, 1]
    used = np.flatnonzero(np.abs(pts) <= 1.0)[:count]
    assert used.size == count
    rng = np.random.default_rng(seed)
    rng.uniform(-1.0, 1.0, 2 * (int(used[-1]) + 1) if count else 0)
    return pts[used], rng.bit_generator.state


class TestDiskSamplerPrefix:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 300), st.integers(0, 300))
    def test_split_draws_equal_one_draw(self, seed, n, m):
        whole_rng = np.random.default_rng(seed)
        whole = unit_disk_samples(whole_rng, n + m)
        split_rng = np.random.default_rng(seed)
        split = np.concatenate([unit_disk_samples(split_rng, n),
                                unit_disk_samples(split_rng, m)])
        assert np.array_equal(split, whole)
        assert split_rng.bit_generator.state == whole_rng.bit_generator.state
        assert whole.shape == (n + m,)
        assert np.all(np.abs(whole) <= 1.0)

    @pytest.mark.parametrize("count", [0, 1, 2, 50, 16384])
    def test_matches_pair_stream(self, count):
        rng = np.random.default_rng(count)
        pts = unit_disk_samples(rng, count)
        expected, state = reference_disk(count, count)
        assert np.array_equal(pts, expected)
        assert rng.bit_generator.state == state

    def test_second_batch_matches_pair_stream(self):
        # seeds whose 100th accepted pair lies past the first batch of
        # int(100 * 1.35) + 8 = 143 pairs, so the sampler draws twice
        count, first_batch = 100, 143
        seeds = []
        for seed in range(2000):
            pairs = np.random.default_rng(seed).uniform(-1.0, 1.0, (first_batch, 2))
            if np.count_nonzero(np.abs(pairs[:, 0] + 1j * pairs[:, 1]) <= 1.0) < count:
                seeds.append(seed)
        assert seeds
        for seed in seeds:
            rng = np.random.default_rng(seed)
            pts = unit_disk_samples(rng, count)
            expected, state = reference_disk(seed, count)
            assert np.array_equal(pts, expected)
            assert rng.bit_generator.state == state


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [0, 1, 2**40])
    def test_non_negative_accepted(self, seed):
        assert check_seed(seed) == seed

    @pytest.mark.parametrize("sampler", [sample_disk_params, sample_herglotz_measures])
    def test_negative_seed_raises(self, sampler):
        with pytest.raises(DomainError, match=r"seed must be >= 0, got -1"):
            sampler(5, seed=-1)
