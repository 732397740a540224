import cmath
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihankel import caratheodory as car
from bihankel.caratheodory import (
    COEFF_BOUND_TOL,
    PCoefficients,
    check_disk_params,
    check_herglotz,
    check_unit_disk,
    check_seed,
    coeff_excess,
    coeffs_from_herglotz,
    disk_coeffs,
    disk_param_blocks,
    herglotz_blocks,
    unit_circle_samples,
    unit_disk_samples,
)
from bihankel.errors import ConstraintViolation, DomainError


def whole(blocks):
    """The fields of a streamed sampler's blocks, each joined into one array."""
    return tuple(None if f[0] is None else np.concatenate(f) for f in zip(*blocks))


def disk_draws(count, seed):
    """(c, x, z) of `disk_param_blocks`, joined over its blocks."""
    c, x, _, z, _ = whole(disk_param_blocks(count, seed, draw_y=False))
    return c, x, z


def herglotz_draws(count, seed):
    """(weights, angles) of `herglotz_blocks`, joined over its blocks."""
    return whole(herglotz_blocks(count, seed))


def row_scalars(c, x, z):
    """The rows of the sampled arrays as Python (float, complex, complex)."""
    return [(float(ci), complex(xi), complex(zi)) for ci, xi, zi in zip(c, x, z)]


def row_atoms(weights, angles):
    """The (weights, angles) of each packed row, without its zero-weight padding."""
    return [(w[w > 0], t[w > 0]) for w, t in zip(weights, angles)]


def packed(*atoms):
    """One packed measure, a (1, atoms) row, from (weight, angle) pairs."""
    weights, angles = np.array(atoms, dtype=float).reshape(-1, 2).T
    return weights[None, :], angles[None, :]


def within_class(*coeffs):
    """|c_k| <= 2 (with `COEFF_BOUND_TOL` of slack) for every entry of every array."""
    return all(bool(np.all(np.abs(c) <= 2.0 + COEFF_BOUND_TOL)) for c in coeffs)


class TestDiskParams:
    def test_domain_enforced_on_scalars(self):
        for c, x, z in ((2.5, 0j, 0j), (-0.5, 0j, 0j), (1.0, 1.1 + 0j, 0j), (1.0, 0j, 1.2j)):
            with pytest.raises(ConstraintViolation):
                check_disk_params(c, x, z)

    @pytest.mark.parametrize("x,z", [(0j, 0j), (0.5 + 0.1j, -0.3j), (1j, 1j)])
    def test_c_equals_two_pins_all_coefficients(self, x, z):
        # the 4 - c^2 factors vanish, leaving c2 = c3 = 2
        assert disk_coeffs(2.0, x, z) == (2, 2)

    def test_c_zero_x_one(self):
        assert disk_coeffs(0.0, 1 + 0j, 0.7j) == (2, 0)

    def test_hand_substitution(self):
        assert disk_coeffs(1.0, 0j, 1 + 0j) == (0.5, 1.75)


def reference_coeffs_from_herglotz(measure, k_max):
    """`coeffs_from_herglotz` as written before it reused one buffer: a new
    array for each operation of each k."""
    weights, angles = measure
    out = np.empty(weights.shape[:-1] + (k_max,), dtype=complex)
    for k in range(1, k_max + 1):
        out[..., k - 1] = 2.0 * np.sum(weights * np.exp(1j * k * angles), axis=-1)
    return out


class TestHerglotz:
    def test_single_atom_extreme_point(self):
        assert coeffs_from_herglotz(packed((1.0, 0.0)), 5).tolist() == [[2, 2, 2, 2, 2]]

    def test_two_atoms_cancel_odd_harmonics(self):
        (c1, c2, c3), = coeffs_from_herglotz(packed((0.5, 0.0), (0.5, math.pi)), 3)
        assert abs(c1) < 1e-15
        assert abs(c2 - 2) < 1e-15
        assert abs(c3) < 1e-15

    def test_random_measure_respects_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            weights = rng.uniform(0.1, 1.0, 5)
            weights /= weights.sum()
            angles = rng.uniform(0, 2 * math.pi, 5)
            cs = coeffs_from_herglotz((weights[None, :], angles[None, :]), 6)
            # triangle inequality oracle: |c_k| <= 2 sum w_j = 2
            assert np.all(np.abs(cs) <= 2 * weights.sum() + 1e-12)

    def test_invalid_measures_rejected(self):
        for measure in (
            (np.empty((1, 0)), np.empty((1, 0))),
            packed((0.7, 0.0), (0.7, 1.0)),
            packed((1.0, -0.5)),
            packed((1.0, 7.0)),
        ):
            with pytest.raises(ConstraintViolation):
                check_herglotz(*measure)

    @pytest.mark.parametrize("atoms", [
        (np.array([0.5, 0.5]), np.array([0.1])),  # one angle for two weights
        (np.float64(1.0), np.float64(0.0)),  # a bare scalar has no atom axis
        (np.full((2, 3), 1 / 3), np.zeros((3, 2))),
        (np.array([[0.5, 0.5]]), np.array([0.1, 0.2])),
        (np.array([1.0]), np.array([[0.0]])),
    ])
    def test_malformed_atoms_rejected(self, atoms):
        weights, angles = atoms
        with pytest.raises(ConstraintViolation, match="must share one shape"):
            check_herglotz(weights, angles)
        with pytest.raises(ConstraintViolation, match="must share one shape"):
            coeffs_from_herglotz((weights, angles), 3)

    @pytest.mark.parametrize("k_max", [1, 2, 3, 4])
    def test_one_buffer_matches_a_new_array_per_operation(self, k_max):
        # streamed blocks of several seeds (with padded rows), hand-made
        # measures whose terms cancel to signed zeros, one measure as a 1-d
        # row and a 3-d stack; compared as bytes so that signed zeros count
        measures = [block for seed in range(6) for block in herglotz_blocks(1500, seed)]
        assert all(np.any(weights == 0.0) for weights, _ in measures)
        measures += [
            packed((1.0, 0.0)),
            packed((0.5, 0.0), (0.5, math.pi)),
            packed((0.25, math.pi / 2), (0.75, 3 * math.pi / 2), (0.0, 0.0)),
        ]
        weights, angles = herglotz_draws(40, 3)
        measures += [(weights[0], angles[0]),
                     (weights.reshape(4, 10, 6), angles.reshape(4, 10, 6))]
        for measure in measures:
            got = coeffs_from_herglotz(measure, k_max)
            assert got.tobytes() == reference_coeffs_from_herglotz(measure, k_max).tobytes()

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_k_max_below_one_is_a_domain_error(self, k_max):
        with pytest.raises(DomainError, match=f"k_max must be >= 1, got {k_max}"):
            coeffs_from_herglotz(packed((1.0, 0.0)), k_max)
        with pytest.raises(DomainError):
            coeffs_from_herglotz(herglotz_draws(3, 0), k_max)


class TestHerglotzValidator:
    """`check_herglotz` on packed rows, and on each row alone."""

    @staticmethod
    def packed():
        weights = np.array([[0.25, 0.75, 0.0], [1.0, 0.0, 0.0]])
        angles = np.array([[0.5, 6.0, 0.0], [3.0, 0.0, 0.0]])
        return weights, angles

    def test_valid_rows_with_padding_pass(self):
        check_herglotz(*self.packed())
        check_herglotz(*herglotz_draws(500, 1))

    @pytest.mark.parametrize("row,col,field,value,message", [
        (0, 0, 0, -0.25, "negative atom weight, got -0.25"),
        (1, 1, 0, 0.5, "atom weights do not sum to 1, got 1.5"),
        (0, 1, 1, 2 * math.pi, "atom angle outside"),
        (1, 0, 1, -1e-300, "atom angle outside"),
        (0, 2, 0, math.nan, "negative atom weight, got nan"),
        (1, 2, 1, math.nan, "atom angle outside"),
    ])
    def test_error_cases(self, row, col, field, value, message):
        arrays = self.packed()
        old = arrays[field][row, col]
        arrays[field][row, col] = value
        if message.startswith("negative") and not math.isnan(value):
            arrays[0][row, col + 1] += old - value  # keep the row sum at 1
            assert arrays[0][row].sum() == 1.0
        with pytest.raises(ConstraintViolation, match=re.escape(message)):
            check_herglotz(*arrays)
        with pytest.raises(ConstraintViolation, match=re.escape(message)):
            check_herglotz(arrays[0][row], arrays[1][row])

    def test_row_sum_slack_is_1e_12(self):
        weights, angles = self.packed()
        weights[1, 0] += 0.9e-12
        check_herglotz(weights, angles)
        weights[1, 0] += 0.2e-12
        with pytest.raises(ConstraintViolation, match="do not sum to 1"):
            check_herglotz(weights, angles)

    @pytest.mark.parametrize("weights,angles", [
        (np.ones((2, 3)) / 3, np.zeros((2, 2))),
        (np.ones((2, 0)), np.ones((2, 0))),
    ])
    def test_shape_errors(self, weights, angles):
        with pytest.raises(ConstraintViolation):
            check_herglotz(weights, angles)

    def test_packed_coefficients_validate_first(self):
        weights, angles = self.packed()
        angles[0, 0] = 2 * math.pi
        with pytest.raises(ConstraintViolation, match="atom angle outside"):
            coeffs_from_herglotz((weights, angles), 3)


class TestHerglotzSamples:
    def test_shape_padding_and_weights(self):
        weights, angles = herglotz_draws(4000, 21)
        assert weights.shape == angles.shape == (4000, 6)
        n_atoms = np.count_nonzero(weights, axis=1)
        # atoms first, then padding: weight 0 at angle 0
        assert np.array_equal(weights > 0, np.arange(6) < n_atoms[:, None])
        assert np.all(angles[weights == 0] == 0.0)
        assert set(n_atoms.tolist()) == {1, 2, 3, 4, 5, 6}
        assert np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12)

    def test_packed_rows_equal_their_measures(self):
        # every packed row gives exactly the coefficients of its atoms alone:
        # the zero-weight padding adds nothing to the sum over the atom axis
        weights, angles = herglotz_draws(1000, 22)
        rows = coeffs_from_herglotz((weights, angles), 4)
        for row, (w, t) in zip(rows, row_atoms(weights, angles)):
            assert row.tolist() == coeffs_from_herglotz((w, t), 4).tolist()

    def test_packed_rows_match_the_cmath_loop(self):
        # independent oracle: the per-atom cmath sum 2 sum_j w_j e^{i k t_j}
        weights, angles = herglotz_draws(1000, 23)
        rows = coeffs_from_herglotz((weights, angles), 3)
        for row, (w, t) in zip(rows, row_atoms(weights, angles)):
            for k in (1, 2, 3):
                ref = 2.0 * sum(wj * cmath.exp(1j * k * tj) for wj, tj in zip(w, t))
                assert abs(row[k - 1] - ref) <= 1e-15


class TestCoeffBound:
    def test_bound_attained(self):
        assert coeff_excess(*PCoefficients(2, 2, 2).as_tuple()) <= COEFF_BOUND_TOL

    def test_violation_detected(self):
        assert coeff_excess(*PCoefficients(2.5, 0, 0).as_tuple()) > COEFF_BOUND_TOL

    def test_sampled_params_always_valid(self):
        c, x, z = disk_draws(2000, 11)
        check_disk_params(c, x, z)
        assert within_class(c, *disk_coeffs(c, x, z))
        for ci, xi, zi in row_scalars(c, x, z):
            assert coeff_excess(ci, *disk_coeffs(ci, xi, zi)) <= COEFF_BOUND_TOL

    def test_sampled_measures_always_valid(self):
        weights, angles = herglotz_draws(2000, 12)
        assert within_class(coeffs_from_herglotz((weights, angles), 3))
        for w, t in row_atoms(weights, angles):
            assert coeff_excess(coeffs_from_herglotz((w, t), 3)) <= COEFF_BOUND_TOL


class TestCoeffExcess:
    def test_scalars_and_arrays(self):
        assert coeff_excess(2.0, 1j, -0.5) == 0.0
        assert coeff_excess(np.array([0.5, -1.5]), np.array([[1.5j], [0.25]])) == -0.5

    def test_nan_propagates(self):
        assert math.isnan(coeff_excess(np.array([1.0, math.nan]), 0.5))
        assert math.isnan(coeff_excess(1.0, math.nan))


class TestDiskParamValidator:
    def test_sampled_draws_pass_both_validators(self):
        c, x, z = disk_draws(300, 16)
        check_disk_params(c, x, z)
        for row in row_scalars(c, x, z):
            check_disk_params(*row)

    @pytest.mark.parametrize("field,value,message", [
        (0, 2.5, "c must lie in [0, 2], got 2.5"),
        (0, -0.5, "c must lie in [0, 2], got -0.5"),
        (0, math.nan, "c must lie in [0, 2], got nan"),
        (1, 1.1 + 0j, "|x| must be <= 1, got 1.1"),
        (2, 1.2j, "|z| must be <= 1, got 1.2"),
        (2, complex(math.nan, 0.0), "|z| must be <= 1, got nan"),
    ])
    def test_error_cases(self, field, value, message):
        arrays = [np.array([1.0, 0.5]), np.array([0.5j, 0j]), np.array([0j, -0.5])]
        arrays[field] = arrays[field].astype(type(value))
        arrays[field][1] = value
        with pytest.raises(ConstraintViolation, match=re.escape(message)):
            check_disk_params(*arrays)
        scalars = [float(arrays[0][1]), complex(arrays[1][1]), complex(arrays[2][1])]
        with pytest.raises(ConstraintViolation, match=re.escape(message)):
            check_disk_params(*scalars)

    @pytest.mark.parametrize("values,message", [
        ({"y": 1.5 + 0j, "w": 5j}, "|y| must be <= 1, got 1.5"),
        ({"y": np.array([0.5j, 0j]), "w": np.array([1j, 2.0 + 0j])}, "|w| must be <= 1, got 2.0"),
        ({"w": complex(math.nan, 0.0)}, "|w| must be <= 1, got nan"),
    ])
    def test_unit_disk_check_names_the_keyword(self, values, message):
        check_unit_disk(y=np.array([1j, 0.5 + 0j]), w=1.0 + 1e-13j)
        with pytest.raises(ConstraintViolation, match=re.escape(message)):
            check_unit_disk(**values)


@settings(max_examples=200, derandomize=True)
@given(
    c=st.floats(0.0, 2.0),
    rx=st.floats(0.0, 1.0),
    tx=st.floats(0.0, 2 * math.pi, exclude_max=True),
    rz=st.floats(0.0, 1.0),
    tz=st.floats(0.0, 2 * math.pi, exclude_max=True),
)
def test_parametrization_stays_in_class(c, rx, tx, rz, tz):
    x, z = rx * cmath.exp(1j * tx), rz * cmath.exp(1j * tz)
    check_disk_params(c, x, z)
    assert coeff_excess(c, *disk_coeffs(c, x, z)) <= COEFF_BOUND_TOL


class TestXRecovery:
    def test_herglotz_samples_land_in_disk(self):
        # surjectivity at the (c1, c2) level: rotated by e^{-i k arg c1}, so
        # that c1 is real and >= 0, every class sample has x = (2 c2 - c1^2) /
        # (4 - c1^2) in the disk; near c1 = 2 only |2 c2 - c1^2| is small
        coeffs = coeffs_from_herglotz(herglotz_draws(1000, 14), 3)
        rotation = np.exp(-1j * np.angle(coeffs[:, :1]))
        c1, c2 = (coeffs[:, :2] * rotation ** np.arange(1, 3)).T
        assert np.all(np.abs(c1.imag) <= 1e-12) and np.all(c1.real >= -1e-12)
        c1 = c1.real
        gap = 4.0 - c1 * c1
        slack = np.where(gap >= 1e-5, (1 + 1e-9) * gap, 2e-5)
        assert np.all(np.abs(2 * c2 - c1 * c1) <= slack)

    def test_round_trip_from_params(self):
        c, x, z = disk_draws(500, 15)
        c2, _ = disk_coeffs(c, x, z)
        gap = 4.0 - c * c
        keep = gap > 1e-5
        recovered = (2 * c2[keep] - c[keep] ** 2) / gap[keep]
        assert np.all(np.abs(recovered - x[keep]) < 1e-9)

    @pytest.mark.parametrize("c1", [-1.0, -2.5, 3.0, math.nan])
    def test_c1_outside_its_range_raises(self, c1):
        with pytest.raises(ConstraintViolation, match=r"c must lie in \[0, 2\]"):
            check_disk_params(c1, 0j, 0j)
        with pytest.raises(ConstraintViolation, match=r"c must lie in \[0, 2\]"):
            check_disk_params(np.array([1.0, c1]), np.zeros(2), np.zeros(2))

    def test_c1_endpoints_take_the_domain_slack(self):
        check_disk_params(-1e-13, 1 + 0j, 0j)
        check_disk_params(2.0 + 1e-13, 0j, 1j)
        for c1 in (-2e-12, 2.0 + 2e-12):
            with pytest.raises(ConstraintViolation):
                check_disk_params(c1, 0j, 0j)
        # just past c1 = 2 the 4 - c1^2 factors are still ~0, so c2 = c3 = 2
        c2, c3 = disk_coeffs(2.0 + 1e-13, 1 + 0j, 1j)
        assert abs(c2 - 2) < 1e-12 and abs(c3 - 2) < 1e-12


def reference_disk_params(samples, seed, boundary_fraction=0.0):
    """All of (c, x, y, z, w) drawn in one go from the five spawned streams."""
    c_rng, x_rng, y_rng, z_rng, w_rng = (
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(5)
    )
    n_boundary = int(round(samples * boundary_fraction))

    def ring_then_disk(rng):
        return np.concatenate([unit_circle_samples(rng, n_boundary),
                               unit_disk_samples(rng, samples - n_boundary)])

    return (c_rng.uniform(0.0, 2.0, samples), ring_then_disk(x_rng), ring_then_disk(y_rng),
            unit_disk_samples(z_rng, samples), unit_disk_samples(w_rng, samples))


def reference_herglotz(samples, seed, max_atoms=6):
    """All packed measures drawn in one go from the three spawned streams."""
    n_rng, w_rng, t_rng = (
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3)
    )
    n_atoms = n_rng.integers(1, max_atoms + 1, samples)
    weights = w_rng.uniform(0.1, 1.0, (samples, max_atoms))
    angles = t_rng.uniform(0.0, 2 * math.pi, (samples, max_atoms))
    pad = np.arange(max_atoms) >= n_atoms[:, None]
    weights[pad] = 0.0
    angles[pad] = 0.0
    return weights / weights.sum(axis=1, keepdims=True), angles


def arrays_equal(got, expected):
    return len(got) == len(expected) and all(
        np.array_equal(u, v) for u, v in zip(got, expected)
    )


# block sizes for the streamed samplers: one draw, a prime, one short of the
# default, and one block of exactly / more than all the draws
CHUNKS = (1, 7, (1 << 12) - 1, "samples", "more")


def chunk_size(chunk, samples):
    return {"samples": samples, "more": samples + 1}.get(chunk, chunk)


class TestSamplers:
    def test_seeded_reproducibility(self):
        for sampler, seed in ((disk_param_blocks, 3), (herglotz_blocks, 4)):
            assert arrays_equal(whole(sampler(50, seed)), whole(sampler(50, seed)))

    def test_disk_params_take_one_stream_per_variable(self):
        assert arrays_equal(whole(disk_param_blocks(50, 3)), reference_disk_params(50, 3))

    def test_default_block_size(self):
        assert car.SAMPLE_CHUNK == 1 << 12
        sizes = [block[0].size for block in disk_param_blocks(10000, 1)]
        assert sizes == [1 << 12, 1 << 12, 10000 - (2 << 12)]
        # Herglotz blocks hold SAMPLE_CHUNK // MAX_ATOMS = 682 measures of 6 atoms
        assert [w.shape for w, _ in herglotz_blocks(5000, 1)] == [(682, 6)] * 7 + [(226, 6)]

    def test_disk_rejection_stays_inside(self):
        rng = np.random.default_rng(5)
        pts = unit_disk_samples(rng, 10000)
        assert pts.shape == (10000,)
        assert float(np.max(np.abs(pts))) <= 1.0


class TestStreamedSamplers:
    """The blocks of a streamed sampler, joined, are the draws of one whole batch."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    def test_disk_blocks_match_one_whole_draw(self, monkeypatch, chunk, fraction):
        samples = 400 if chunk == 1 else 20000
        monkeypatch.setattr(car, "SAMPLE_CHUNK", chunk_size(chunk, samples))
        got = whole(disk_param_blocks(samples, 8, fraction))
        assert arrays_equal(got, reference_disk_params(samples, 8, fraction))

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_herglotz_blocks_match_one_whole_draw(self, monkeypatch, chunk):
        samples = 400 if chunk == 1 else 20000
        # a block holds SAMPLE_CHUNK // MAX_ATOMS measures (at least one), so
        # "samples" and "more" scale by the atoms to give one block of exactly
        # and of more than all the measures
        scale = car.MAX_ATOMS if isinstance(chunk, str) else 1
        monkeypatch.setattr(car, "SAMPLE_CHUNK", chunk_size(chunk, samples) * scale)
        got = whole(herglotz_blocks(samples, 9))
        assert arrays_equal(got, reference_herglotz(samples, 9))

    @pytest.mark.parametrize("chunk", [7, 1 << 14])
    def test_skipping_y_leaves_the_other_streams(self, monkeypatch, chunk):
        monkeypatch.setattr(car, "SAMPLE_CHUNK", chunk)
        c, x, y, z, w = whole(disk_param_blocks(20000, 4, 0.25, draw_y=False))
        assert y is None
        expected = reference_disk_params(20000, 4, 0.25)
        assert arrays_equal((c, x, z, w), expected[:2] + expected[3:])

    def test_no_reference_to_a_yielded_block(self):
        for blocks in (disk_param_blocks(100, 1), herglotz_blocks(100, 1)):
            block = next(blocks)
            refs = [weakref.ref(a) for a in block]
            del block
            assert [r() for r in refs] == [None] * len(refs)

    def test_negative_seed_raises(self):
        for sampler in (disk_param_blocks, herglotz_blocks):
            with pytest.raises(DomainError, match="seed must be >= 0, got -3"):
                next(sampler(10, -3))


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


# Inline copies of the samplers as they drew with `rng.uniform`, before they
# drew `rng.random` and scaled it.  The draws are pinned to these bit for bit.

def uniform_unit_disk_samples(rng, count):
    out = np.empty(count, dtype=complex)
    filled = 0
    while filled < count:
        need = count - filled
        batch = int(need * 1.35) + 8
        state = rng.bit_generator.state
        pts = rng.uniform(-1.0, 1.0, (batch, 2)).view(complex)[:, 0]
        used = np.flatnonzero(np.abs(pts) <= 1.0)
        if used.size >= need:
            used = used[:need]
            rng.bit_generator.state = state
            rng.bit_generator.advance(2 * (int(used[-1]) + 1))
        out[filled:filled + used.size] = pts[used]
        filled += used.size
    return out


def uniform_unit_circle_samples(rng, count):
    return np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, count))


def uniform_disk_param_blocks(samples, seed, boundary_fraction=0.0, draw_y=True):
    c_rng, x_rng, y_rng, z_rng, w_rng = (
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(5)
    )
    n_boundary = int(round(samples * boundary_fraction))

    def ring_then_disk(rng, start, stop):
        on_circle = min(max(n_boundary - start, 0), stop - start)
        return np.concatenate([uniform_unit_circle_samples(rng, on_circle),
                               uniform_unit_disk_samples(rng, stop - start - on_circle)])

    for start in range(0, samples, car.SAMPLE_CHUNK):
        stop = min(start + car.SAMPLE_CHUNK, samples)
        yield (
            c_rng.uniform(0.0, 2.0, stop - start),
            ring_then_disk(x_rng, start, stop),
            ring_then_disk(y_rng, start, stop) if draw_y else None,
            uniform_unit_disk_samples(z_rng, stop - start),
            uniform_unit_disk_samples(w_rng, stop - start),
        )


def same_bits(got, expected):
    if got is None or expected is None:
        return got is expected
    return (got.dtype == expected.dtype and got.shape == expected.shape
            and got.tobytes() == expected.tobytes())


# seed 229's first int(100 * 1.35) + 8 = 143 pairs hold fewer than 100
# points of the disk, so 100 points take a second rejection round
SECOND_ROUND_SEED, SECOND_ROUND_COUNT = 229, 100


class TestDrawsArePinned:
    @pytest.mark.parametrize("count", [0, 1, 2, 50, SECOND_ROUND_COUNT, 16385])
    @pytest.mark.parametrize("sampler, pinned", [
        (unit_disk_samples, uniform_unit_disk_samples),
        (unit_circle_samples, uniform_unit_circle_samples),
    ], ids=["disk", "circle"])
    def test_sampler_matches_uniform_draws(self, sampler, pinned, count):
        for seed in (SECOND_ROUND_SEED, 17):
            rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert same_bits(sampler(rng, count), pinned(expected_rng, count))
            assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_second_round_is_taken(self):
        pairs = np.random.default_rng(SECOND_ROUND_SEED).uniform(
            -1.0, 1.0, (int(SECOND_ROUND_COUNT * 1.35) + 8, 2))
        inside = np.count_nonzero(np.abs(pairs[:, 0] + 1j * pairs[:, 1]) <= 1.0)
        assert inside < SECOND_ROUND_COUNT

    @pytest.mark.parametrize("chunk, samples", [(7, 40), (1 << 14, (1 << 14) + 1)])
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("draw_y", [True, False])
    def test_disk_param_blocks_match_uniform_draws(self, monkeypatch, chunk, samples,
                                                   fraction, draw_y):
        monkeypatch.setattr(car, "SAMPLE_CHUNK", chunk)
        got = list(disk_param_blocks(samples, 6, fraction, draw_y))
        expected = list(uniform_disk_param_blocks(samples, 6, fraction, draw_y))
        assert len(got) == len(expected)
        for block, pinned in zip(got, expected):
            assert all(same_bits(u, v) for u, v in zip(block, pinned))


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [0, 1, 2**40])
    def test_non_negative_accepted(self, seed):
        assert check_seed(seed) == seed

    def test_negative_seed_raises(self):
        with pytest.raises(DomainError, match=r"seed must be >= 0, got -1"):
            check_seed(-1)
