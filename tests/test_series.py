import numpy as np
import pytest

from bihankel.errors import DomainError, NotNormalized, ZeroConstantTerm
from bihankel.series import (
    TruncatedSeries,
    add,
    compose,
    convex_functional,
    divide,
    invert_composition,
    max_coeff_diff,
    multiply,
    starlike_functional,
)


def naive_convolution(a, b, order):
    # independent oracle: direct double loop, no shared code with the package
    out = [0j] * (order + 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if i + j <= order:
                out[i + j] += ca * cb
    return out


def random_series(rng, order, radius=1.0, normalized=False):
    coeffs = radius * (rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1))
    if normalized:
        coeffs[0] = 0.0
        coeffs[1] = 1.0
    return TruncatedSeries(order, tuple(coeffs))


class TestConstruction:
    def test_length_must_match_order(self):
        with pytest.raises(ValueError):
            TruncatedSeries(3, (1, 2))

    @pytest.mark.parametrize("order,coeffs,message", [
        (0, (1,), "order must be >= 1, got 0"),
        (3, (1, 2), "expected 4 coefficients for order 3, got 2"),
        (2, (np.zeros(3), 1, 2, 3), "expected 3 coefficients for order 2, got 4"),
    ])
    def test_invalid_shape_is_a_domain_error(self, order, coeffs, message):
        with pytest.raises(DomainError, match=message):
            TruncatedSeries(order, coeffs)

    def test_scalar_series_keep_python_complex(self):
        s = TruncatedSeries(2, (np.float64(1.0), 2, np.complex128(3j)))
        assert s.coeffs == (1, 2, 3j)
        assert all(type(c) is complex for c in s.coeffs)

    def test_array_coefficients_make_a_batch(self):
        s = TruncatedSeries.from_coeffs([0, 1, np.array([2.0, 3.0, 4.0])], order=3)
        assert isinstance(s.coeffs, np.ndarray)
        assert s.coeffs.shape == (4, 3) and s.coeffs.dtype == complex
        assert np.array_equal(s[1], [1, 1, 1])
        assert np.array_equal(s[2], [2, 3, 4])
        assert np.array_equal(s[3], [0, 0, 0])

    def test_batch_operations_leave_operands_untouched(self):
        a = TruncatedSeries.from_coeffs([np.array([2.0, 3.0]), 1.0, 0.5], order=2)
        before = a.coeffs.copy()
        divide(a, a)
        add(a, 1.0)
        multiply(a, a)
        assert np.array_equal(a.coeffs, before)

    def test_from_coeffs_pads(self):
        s = TruncatedSeries.from_coeffs([1, 2], order=4)
        assert s.coeffs == (1, 2, 0, 0, 0)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(0, (1,))


class TestMultiply:
    def test_difference_of_squares(self):
        a = TruncatedSeries.from_coeffs([1, 1], order=2)
        b = TruncatedSeries.from_coeffs([1, -1], order=2)
        assert multiply(a, b).coeffs == (1, 0, -1)

    def test_identity_element(self):
        a = TruncatedSeries.from_coeffs([1, 2, 3])
        one = TruncatedSeries.from_coeffs([1], 2)
        assert multiply(a, one).coeffs == (1, 2, 3)

    def test_square_against_naive_convolution(self):
        a = TruncatedSeries.from_coeffs([1, 1, 1], order=2)
        expected = naive_convolution([1, 1, 1], [1, 1, 1], 2)
        got = multiply(a, a)
        assert got.coeffs == tuple(expected) == (1, 2, 3)

    def test_random_products_match_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = random_series(rng, 8)
            b = random_series(rng, 8)
            expected = naive_convolution(a.coeffs, b.coeffs, 8)
            assert max(
                abs(x - y) for x, y in zip(multiply(a, b).coeffs, expected)
            ) < 1e-14

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a, b, c = (random_series(rng, 8) for _ in range(3))
            assert max_coeff_diff(multiply(a, b), multiply(b, a)) <= 1e-13
            assert max_coeff_diff(
                multiply(multiply(a, b), c), multiply(a, multiply(b, c))
            ) <= 1e-13

    def test_truncates_to_smaller_order(self):
        a = TruncatedSeries.from_coeffs([1, 1, 1, 1], order=3)
        b = TruncatedSeries.from_coeffs([1, 1], order=1)
        assert multiply(a, b).order == 1


class TestDivide:
    def test_geometric_series(self):
        one = TruncatedSeries.from_coeffs([1], 3)
        denom = TruncatedSeries.from_coeffs([1, -1], order=3)
        assert divide(one, denom).coeffs == (1, 1, 1, 1)

    def test_self_division(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            a = random_series(rng, 6)
            if abs(a.coeffs[0]) < 1e-3:
                a = add(a, 1.0)
            q = divide(a, a)
            assert abs(q.coeffs[0] - 1) < 1e-13
            assert max(abs(c) for c in q.coeffs[1:]) < 1e-12

    def test_multiply_back_residual(self):
        num = TruncatedSeries.from_coeffs([0, 1, 2, 3, 4], order=4)
        den = TruncatedSeries.from_coeffs([1, 2, 3, 4], order=3)
        q = divide(num, den)
        assert q.order == 3
        back = multiply(q, den)
        assert max(
            abs(back.coeffs[k] - num.coeffs[k]) for k in range(4)
        ) < 1e-12

    def test_zero_constant_term_raises(self):
        a = TruncatedSeries.from_coeffs([1], 3)
        b = TruncatedSeries.from_coeffs([0, 1], order=3)
        with pytest.raises(ZeroConstantTerm):
            divide(a, b)


class TestInvertComposition:
    def test_identity_map(self):
        f = TruncatedSeries.from_coeffs([0, 1], 4)
        assert invert_composition(f).coeffs == (0, 1, 0, 0, 0)

    def test_matches_inverse_series_formula(self):
        # leading inverse coefficients: -a2, 2 a2^2 - a3, -(5 a2^3 - 5 a2 a3 + a4)
        rng = np.random.default_rng(44)
        for _ in range(30):
            a2, a3, a4 = (
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)
            )
            f = TruncatedSeries.from_coeffs([0, 1, a2, a3, a4], order=4)
            g = invert_composition(f)
            assert abs(g[2] - (-a2)) < 1e-12
            assert abs(g[3] - (2 * a2**2 - a3)) < 1e-12
            assert abs(g[4] - (-(5 * a2**3 - 5 * a2 * a3 + a4))) < 1e-12

    def test_koebe_like_gives_catalan_signs(self):
        f = TruncatedSeries.from_coeffs([0, 1, 2, 3, 4], order=4)
        g = invert_composition(f)
        assert g.coeffs == (0, 1, -2, 5, -14)
        # composition oracle: f(g(w)) = w + O(w^5)
        residual = max_coeff_diff(compose(f, g), TruncatedSeries.from_coeffs([0, 1], 4))
        assert residual < 1e-13

    def test_round_trip_random(self):
        rng = np.random.default_rng(45)
        for order in (4, 6, 8):
            for _ in range(20):
                f = random_series(rng, order, normalized=True)
                g = invert_composition(f)
                assert max_coeff_diff(
                    compose(f, g), TruncatedSeries.from_coeffs([0, 1], order)
                ) <= 1e-11

    def test_not_normalized_raises(self):
        with pytest.raises(NotNormalized):
            invert_composition(TruncatedSeries.from_coeffs([0, 2, 1], order=2))
        with pytest.raises(NotNormalized):
            invert_composition(TruncatedSeries.from_coeffs([1, 1], order=2))


def random_abc(rng, radius=3.0):
    return tuple(
        radius * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)
    )


class TestFunctionals:
    def test_starlike_of_identity_is_one(self):
        out = starlike_functional(TruncatedSeries.from_coeffs([0, 1], 4))
        assert out.coeffs == (1, 0, 0, 0)

    def test_convex_of_identity_is_one(self):
        out = convex_functional(TruncatedSeries.from_coeffs([0, 1], 4))
        assert out.coeffs == (1, 0, 0, 0)

    @pytest.mark.parametrize("seed", [46, 47])
    def test_closed_form_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            a2, a3, a4 = random_abc(rng)
            f = TruncatedSeries.from_coeffs([0, 1, a2, a3, a4], order=4)

            s = starlike_functional(f)
            assert abs(s[1] - a2) < 1e-12
            assert abs(s[2] - (2 * a3 - a2**2)) < 1e-12
            assert abs(s[3] - (3 * a4 - 3 * a3 * a2 + a2**3)) < 1e-12

            k = convex_functional(f)
            assert abs(k[1] - 2 * a2) < 1e-12
            assert abs(k[2] - (6 * a3 - 4 * a2**2)) < 1e-12
            assert abs(k[3] - (12 * a4 - 18 * a3 * a2 + 8 * a2**3)) < 1e-12

    def test_inverse_side_coefficients(self):
        rng = np.random.default_rng(48)
        for _ in range(100):
            a2, a3, a4 = random_abc(rng)
            f = TruncatedSeries.from_coeffs([0, 1, a2, a3, a4], order=4)
            g = invert_composition(f)

            s = starlike_functional(g)
            assert abs(s[1] - (-a2)) < 1e-12
            assert abs(s[2] - (3 * a2**2 - 2 * a3)) < 1e-12
            assert abs(s[3] - (-10 * a2**3 + 12 * a3 * a2 - 3 * a4)) < 1e-12

            k = convex_functional(g)
            assert abs(k[1] - (-2 * a2)) < 1e-12
            assert abs(k[2] - (8 * a2**2 - 6 * a3)) < 1e-12
            assert abs(k[3] - (-32 * a2**3 + 42 * a3 * a2 - 12 * a4)) < 1e-12

    def test_requires_zero_origin(self):
        with pytest.raises(NotNormalized):
            starlike_functional(TruncatedSeries.from_coeffs([1], 4))


def batch_of(series):
    """One batched series holding the given scalar series as its rows."""
    return TruncatedSeries(series[0].order, np.array([s.coeffs for s in series]).T)


def assert_rows_match(batched, scalars, rtol=1e-13):
    """Every batch row equals its scalar series coefficient by coefficient.

    Not bit for bit: numpy divides complex numbers through a reciprocal,
    where CPython divides directly, so quotients can differ in the last ulp,
    and later coefficients carry that along.
    """
    assert batched.coeffs.shape == (scalars[0].order + 1, len(scalars))
    for i, scalar in enumerate(scalars):
        for k, ref in enumerate(scalar.coeffs):
            got = batched.coeffs[k, i]
            assert abs(got - ref) <= rtol * max(abs(ref), 1e-300) or got == ref, (i, k)


class TestBatchedMatchesScalar:
    """The batched path against the per-series loop it replaces."""

    @staticmethod
    def normalized(seed, count=200, order=4, radius=3.0):
        rng = np.random.default_rng(seed)
        return [random_series(rng, order, radius, normalized=True) for _ in range(count)]

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_invert_composition(self, order):
        fs = self.normalized(60 + order, order=order)
        assert_rows_match(invert_composition(batch_of(fs)), [invert_composition(f) for f in fs])

    @pytest.mark.parametrize("functional", [starlike_functional, convex_functional])
    def test_functionals(self, functional):
        fs = self.normalized(70)
        assert_rows_match(functional(batch_of(fs)), [functional(f) for f in fs])
        gs = [invert_composition(f) for f in fs]
        assert_rows_match(functional(batch_of(gs)), [functional(g) for g in gs])

    def test_divide(self):
        rng = np.random.default_rng(80)
        nums = [random_series(rng, 5, 3.0) for _ in range(200)]
        dens = [add(random_series(rng, 5, 3.0), 4.0) for _ in range(200)]
        assert_rows_match(
            divide(batch_of(nums), batch_of(dens)), [divide(a, b) for a, b in zip(nums, dens)]
        )

    def test_scalar_operand_broadcasts_over_the_batch(self):
        fs = self.normalized(81, count=20)
        one = TruncatedSeries.from_coeffs([1, 0.5, 0.25], order=4)
        assert_rows_match(divide(batch_of(fs), one), [divide(f, one) for f in fs])
        assert_rows_match(multiply(one, batch_of(fs)), [multiply(one, f) for f in fs])

    def test_one_bad_row_fails_the_batch(self):
        fs = self.normalized(82, count=5)
        bad = TruncatedSeries.from_coeffs([0, 1.5, 1], order=4)
        with pytest.raises(NotNormalized, match="requires f\\(0\\)=0 and f'\\(0\\)=1"):
            invert_composition(batch_of(fs + [bad]))
        shifted_origin = TruncatedSeries.from_coeffs([0.5, 1], order=4)
        with pytest.raises(NotNormalized, match="requires f\\(0\\)=0 and f'\\(0\\)=1"):
            invert_composition(batch_of(fs + [shifted_origin]))
        units = [add(f, 1.0) for f in fs]
        with pytest.raises(ZeroConstantTerm, match="divisor constant term"):
            divide(batch_of(units), batch_of(units[:-1] + [fs[-1]]))
        shifted = TruncatedSeries.from_coeffs([0.5, 1], order=4)
        with pytest.raises(NotNormalized, match="functional requires f\\(0\\)=0"):
            starlike_functional(batch_of(fs + [shifted]))

    def test_max_coeff_diff_covers_the_batch(self):
        fs = self.normalized(83, count=3)
        bump = TruncatedSeries.from_coeffs([0, 0, 0, 1e-3], order=4)
        gs = [fs[0], fs[1], add(fs[2], bump)]
        assert max_coeff_diff(batch_of(fs), batch_of(gs)) == pytest.approx(1e-3)
        # numpy's complex modulus may round an ulp apart from Python's abs
        assert max_coeff_diff(batch_of(fs), fs[0]) == pytest.approx(
            max(max_coeff_diff(f, fs[0]) for f in fs), rel=1e-15)

    def test_max_coeff_diff_keeps_a_nan_past_a_finite_difference(self):
        a = TruncatedSeries.from_coeffs([0, 1, 0.5, 0.25], order=4)
        b = TruncatedSeries.from_coeffs([0, 1, 0.5, float("nan")], order=4)
        assert np.isnan(max_coeff_diff(a, b))
        assert np.isnan(max_coeff_diff(batch_of([a, a]), batch_of([a, b])))
