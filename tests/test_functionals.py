import math

import numpy as np
import pytest

from bihankel import caratheodory as car
from bihankel import functionals
from bihankel.caratheodory import disk_coeffs
from bihankel.errors import ConstraintViolation, DomainError
from bihankel.functionals import (
    BiCoefficients,
    FamilyId,
    Order,
    bi_coeffs,
    check_beta,
    series_residual,
    verify_coefficient_system,
)
from bihankel.optimizer import h22_from_params
from bihankel.series import TruncatedSeries


def class_pair_coeffs(family, beta, c, x, y, z, w):
    """(a2, a3, a4) of the pair with (c2, c3) from (c, x, z) and (d2, d3)
    from (c, y, w) at d1 = -c, where d3 = -e3 for (d2, e3) = disk_coeffs(c, y, -w)."""
    c2, c3 = disk_coeffs(c, x, z)
    d2, e3 = disk_coeffs(c, y, -w)
    return bi_coeffs(family, 1.0 - beta, complex(c), c2 - d2, c3 + e3)


class TestOrder:
    def test_domain(self):
        Order(0.0)
        Order(0.999)
        with pytest.raises(DomainError):
            Order(1.0)
        with pytest.raises(DomainError):
            Order(-0.1)


class TestValidatedRecords:
    """`Order`, `BiCoefficients` and `TruncatedSeries` check their fields on
    every construction path: the constructor, `_make`, and `_replace`, which
    namedtuple builds on `_make`."""

    RECORDS = [
        (Order, (0.3,), {"beta": 1.5}, DomainError),
        (Order, (0.3,), {"beta": math.nan}, DomainError),
        (BiCoefficients, (1, 2j, 3), {"a2": math.nan}, ConstraintViolation),
        (BiCoefficients, (1, 2j, 3), {"a4": complex(0.0, math.inf)}, ConstraintViolation),
        (TruncatedSeries, (2, (0, 1, 2)), {"order": 0}, DomainError),
        (TruncatedSeries, (2, (0, 1, 2)), {"coeffs": (0, 1)}, DomainError),
    ]

    @pytest.mark.parametrize("path", ["constructor", "_make", "_replace"])
    @pytest.mark.parametrize("record,good,bad,error", RECORDS)
    def test_bad_field_is_rejected(self, record, good, bad, error, path):
        fields = dict(zip(record._fields, good), **bad)
        build = {"constructor": lambda: record(**fields),
                 "_make": lambda: record._make(fields.values()),
                 "_replace": lambda: record(*good)._replace(**bad)}[path]
        with pytest.raises(error):
            build()

    @pytest.mark.parametrize("record,good", [r[:2] for r in RECORDS[::2]])
    def test_good_fields_build_the_same_record_on_every_path(self, record, good):
        built = record(*good)
        for other in (record._make(good), built._replace(), record(**built._asdict())):
            assert type(other) is record and other == built

    def test_replace_normalizes_series_coefficients(self):
        s = TruncatedSeries(2, (0, 1, 2))._replace(coeffs=[0, 1, np.float64(3.0)])
        assert s.coeffs == (0, 1, 3) and all(type(c) is complex for c in s.coeffs)


class TestCheckBeta:
    @pytest.mark.parametrize("beta", [1.0, -0.1, float("nan"), float("inf"), 1.5])
    def test_out_of_domain_raises(self, beta):
        with pytest.raises(DomainError, match=r"beta must lie in \[0, 1\)"):
            check_beta(beta)
        with pytest.raises(DomainError, match=r"beta must lie in \[0, 1\)"):
            Order(beta)

    def test_returns_float(self):
        assert check_beta(0) == 0.0 and type(check_beta(0)) is float

    def test_array_returns_floats(self):
        got = check_beta([0, 0.5, np.float32(0.25)])
        assert got.dtype == np.float64 and got.tolist() == [0.0, 0.5, 0.25]

    @pytest.mark.parametrize("betas,bad", [([0.1, 1.0, -1.0], "1.0"), ([0.1, 0.2, math.nan], "nan"),
                                           (np.array([-0.0, -1e-300]), "-1e-300")])
    def test_array_reports_its_first_bad_entry(self, betas, bad):
        with pytest.raises(DomainError, match=rf"beta must lie in \[0, 1\), got {bad}$"):
            check_beta(betas)

    def test_bounds_reexports_the_same_validator(self):
        from bihankel import bounds

        assert bounds.check_beta is check_beta


# The residuals are rounding noise, so the batched and the per-draw route
# cannot be compared through them; their coefficients must agree within this
# relative tolerance (numpy divides complex numbers through a reciprocal,
# CPython directly).
COEFF_REF_REL = 1e-13


def assert_matches_scalar_path(family, order, draws, func_f, func_g):
    """Batched (c1..c3), (d1..d3) equal `verify_coefficient_system`'s per draw."""
    w = 1.0 - order.beta
    for i, (a2, a3, a4) in enumerate(draws):
        report = verify_coefficient_system(family, order, BiCoefficients(a2, a3, a4))
        for func, scalar in ((func_f, report.p), (func_g, report.q)):
            for k, ref in enumerate(scalar.as_tuple(), start=1):
                assert func[k][i] / w == pytest.approx(ref, rel=COEFF_REF_REL, abs=0)


class TestSeriesResidual:
    @pytest.mark.parametrize("trials", [1, 7, 200])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_same_draws_and_state_as_the_per_draw_loop(self, family, trials, monkeypatch):
        seen = []
        batched = functionals._system_residuals

        def recording(fam, a2, a3, a4):
            out = batched(fam, a2, a3, a4)
            seen.append(((a2.copy(), a3.copy(), a4.copy()), out))
            return out

        monkeypatch.setattr(functionals, "_system_residuals", recording)
        batch_rng, loop_rng = np.random.default_rng(31), np.random.default_rng(31)
        got = series_residual(family, batch_rng, trials)
        monkeypatch.undo()

        assert len(seen) == 1  # one batched pass per call
        (columns, (func_f, func_g, residuals)), = seen
        draws = [loop_rng.uniform(-3.0, 3.0, 6) for _ in range(trials)]
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state
        for k, column in enumerate(columns):
            assert column.tolist() == [complex(d[2 * k], d[2 * k + 1]) for d in draws]
        assert got == max(float(np.max(r)) for r in residuals)
        assert type(got) is float and 0.0 < got < 1e-11
        assert_matches_scalar_path(family, Order(0.3), zip(*columns), func_f, func_g)

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_batched_coefficients_match_each_draw(self, family):
        draws = np.random.default_rng(32).uniform(-3.0, 3.0, (100, 6)).view(complex)
        func_f, func_g, _ = functionals._system_residuals(family, *draws.T)
        assert_matches_scalar_path(family, Order(0.0), draws.tolist(), func_f, func_g)

    @pytest.mark.parametrize("trials", [3, 10, 11])
    def test_chunks_take_the_same_draws_and_worst(self, trials, monkeypatch):
        whole_rng, chunked_rng = np.random.default_rng(33), np.random.default_rng(33)
        whole = series_residual(FamilyId.CONVEX, whole_rng, trials)
        passes = []
        batched = functionals._system_residuals

        def counting(fam, a2, a3, a4):
            passes.append(a2.size)
            return batched(fam, a2, a3, a4)

        monkeypatch.setattr(car, "SAMPLE_CHUNK", 3)
        monkeypatch.setattr(functionals, "_system_residuals", counting)
        chunked = series_residual(FamilyId.CONVEX, chunked_rng, trials)
        assert passes == [3] * (trials // 3) + ([trials % 3] if trials % 3 else [])
        assert chunked == whole
        assert chunked_rng.bit_generator.state == whole_rng.bit_generator.state

    def test_shared_generator_continues_the_stream(self):
        one = np.random.default_rng(3)
        split = series_residual(FamilyId.STARLIKE, one, 4)
        split = max(split, series_residual(FamilyId.STARLIKE, one, 6))
        whole = series_residual(FamilyId.STARLIKE, np.random.default_rng(3), 10)
        assert split == whole
        assert 0.0 < whole < 1e-10

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_raises(self, trials):
        with pytest.raises(DomainError, match="trials must be >= 1"):
            series_residual(FamilyId.CONVEX, np.random.default_rng(0), trials)


class TestReconstruct:
    # c = 2 pins (c1, c2, c3) = (2, 2, 2) and (d1, d2, d3) = (-2, 2, -2) for
    # every x, y, z, w: the extreme pair
    EXTREME = (2.0, 0.5 + 0.1j, -0.3j, 1j, 0.2 + 0j)

    def test_starlike_extreme_pair(self):
        assert class_pair_coeffs(FamilyId.STARLIKE, 0.0, *self.EXTREME) == (2, 4, 6)

    def test_convex_extreme_pair(self):
        assert class_pair_coeffs(FamilyId.CONVEX, 0.0, *self.EXTREME) == (1, 1, 1)

    def test_zero_pair_gives_zero(self):
        for family in FamilyId:
            assert bi_coeffs(family, 0.7, 0j, 0j, 0j) == (0, 0, 0)

    def test_a2_scales_linearly_in_one_minus_beta(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            c = rng.uniform(0, 2)
            x, z, y, w = (complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(4))
            for family in FamilyId:
                base = class_pair_coeffs(family, 0.2, c, x, y, z, w)[0]
                other = class_pair_coeffs(family, 0.6, c, x, y, z, w)[0]
                expected = base * (1 - 0.6) / (1 - 0.2)
                assert abs(other - expected) < 1e-13


class TestHankelFunctionals:
    def test_h22_examples(self):
        # a2 a4 - a3^2 of the extreme pairs: 2 * 6 - 4^2 and 1 * 1 - 1^2
        extreme = TestReconstruct.EXTREME
        assert h22_from_params(FamilyId.STARLIKE, Order(0.0), *extreme) == -4
        assert h22_from_params(FamilyId.CONVEX, Order(0.0), *extreme) == 0


class TestVerifyCoefficientSystem:
    def test_trivial_function(self):
        report = verify_coefficient_system(
            FamilyId.STARLIKE, Order(0.0), BiCoefficients(0, 0, 0)
        )
        assert report.max_residual == 0

    def test_max_residual_keeps_a_nan_past_a_finite_residual(self):
        report = functionals.SystemReport(None, None, (1e-15, 0.0, math.nan, 0.0, 0.0, 0.0))
        assert math.isnan(report.max_residual)
        assert functionals.SystemReport(None, None, (0.0, 3e-16)).max_residual == 3e-16

    def test_starlike_extreme_extraction(self):
        # only c1, c3 of the generating pair are recovered: the difference
        # relaxation makes the map non-invertible at the c2/d2 level, and
        # the extracted triple reflects f itself
        report = verify_coefficient_system(
            FamilyId.STARLIKE, Order(0.0), BiCoefficients(2, 4, 6)
        )
        assert report.max_residual <= 1e-12
        assert np.allclose(report.p.as_tuple(), (2, 4, 2), atol=1e-12)
        assert np.allclose(report.q.as_tuple(), (-2, 4, -2), atol=1e-12)

    def test_convex_extreme_extraction(self):
        report = verify_coefficient_system(
            FamilyId.CONVEX, Order(0.0), BiCoefficients(1, 1, 1)
        )
        assert report.max_residual <= 1e-12
        assert np.allclose(report.p.as_tuple(), (2, 2, 2), atol=1e-12)
        assert np.allclose(report.q.as_tuple(), (-2, 2, -2), atol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.7])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_random_draws_are_identities(self, family, beta):
        rng = np.random.default_rng(23)
        order = Order(beta)
        for _ in range(25):
            draw = rng.uniform(-3, 3, 6)
            a = BiCoefficients(
                complex(draw[0], draw[1]),
                complex(draw[2], draw[3]),
                complex(draw[4], draw[5]),
            )
            report = verify_coefficient_system(family, order, a)
            assert report.max_residual <= 1e-11
            assert len(report.residuals) == 6

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_round_trip_from_class_pairs(self, family):
        rng = np.random.default_rng(24)
        for _ in range(200):
            c = rng.uniform(0, 2)
            x, z, y, w = (
                complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(4)
            )
            order = Order(rng.uniform(0, 0.95))
            a = BiCoefficients(*class_pair_coeffs(family, order.beta, c, x, y, z, w))
            assert verify_coefficient_system(family, order, a).max_residual <= 1e-11


# `bi_coeffs` and the six left-hand sides as they were written with one branch
# per family, before each family became one row of constants; kept as
# references.

def reference_bi_coeffs(family, w, c1, dc2, dc3):
    if family is FamilyId.STARLIKE:
        a2 = w * c1
        a3 = w * w * c1 * c1 + w * dc2 * 0.25
        a4 = (2.0 / 3.0) * w**3 * c1**3 + (5.0 / 8.0) * w * w * c1 * dc2 \
            + w * dc3 * (1.0 / 6.0)
    else:
        a2 = w * c1 / 2.0
        a3 = w * w * c1 * c1 / 4.0 + w * dc2 * (1.0 / 12.0)
        a4 = (5.0 / 48.0) * w**3 * c1**3 + (5.0 / 48.0) * w * w * c1 * dc2 \
            + w * dc3 * (1.0 / 24.0)
    return a2, a3, a4


def reference_lhs(family, a2, a3, a4):
    if family is FamilyId.STARLIKE:
        direct = (a2, 2.0 * a3 - a2 * a2, 3.0 * a4 - 3.0 * a3 * a2 + a2**3)
        inverse = (-a2, 3.0 * a2 * a2 - 2.0 * a3, -10.0 * a2**3 + 12.0 * a3 * a2 - 3.0 * a4)
    else:
        direct = (2.0 * a2, 6.0 * a3 - 4.0 * a2 * a2, 12.0 * a4 - 18.0 * a3 * a2 + 8.0 * a2**3)
        inverse = (-2.0 * a2, 8.0 * a2 * a2 - 6.0 * a3,
                   -32.0 * a2**3 + 42.0 * a3 * a2 - 12.0 * a4)
    return direct, inverse


def same_bits(got, expected):
    """Same type, dtype, shape and bytes: signed zeros told apart."""
    if type(got) is not type(expected):
        return False
    got, expected = np.asarray(got), np.asarray(expected)
    return (got.dtype == expected.dtype and got.shape == expected.shape
            and got.tobytes() == expected.tobytes())


class TestRowsMatchReference:
    """`bi_coeffs` and `_lhs` are the per-family formulas, bit for bit, on
    4,096 complex draws as arrays and 200 as Python complex, at four w."""

    WS = tuple(1.0 - beta for beta in (0.0, 0.3, 0.7, 0.9999999))

    @staticmethod
    def draws(seed, rows):
        """Three complex arrays with parts uniform on [-3, 3]."""
        return tuple(np.random.default_rng(seed).uniform(-3.0, 3.0, (rows, 6)).view(complex).T)

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_bi_coeffs(self, family):
        for k, w in enumerate(self.WS):
            arrays = self.draws(k, 4096)
            for got, expected in zip(bi_coeffs(family, w, *arrays),
                                     reference_bi_coeffs(family, w, *arrays)):
                assert same_bits(got, expected)
            for args in zip(*(v.tolist() for v in self.draws(k + 10, 200))):
                for got, expected in zip(bi_coeffs(family, w, *args),
                                         reference_bi_coeffs(family, w, *args)):
                    assert type(got) is complex and same_bits(got, expected)

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_bi_coeffs_on_the_kernel_inputs(self, family):
        # `h22_terms` passes a real c1 array and complex differences
        c1 = np.random.default_rng(5).uniform(0.0, 2.0, 4096)
        _, dc2, dc3 = self.draws(6, 4096)
        for w in self.WS:
            for got, expected in zip(bi_coeffs(family, w, c1, dc2, dc3),
                                     reference_bi_coeffs(family, w, c1, dc2, dc3)):
                assert same_bits(got, expected)

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_lhs(self, family):
        arrays = self.draws(20, 4096)
        scalars = list(zip(*(v.tolist() for v in self.draws(21, 800))))
        for a in [arrays] + scalars:
            got, expected = functionals._lhs(family, *a), reference_lhs(family, *a)
            for got_side, expected_side in zip(got, expected):
                for g, e in zip(got_side, expected_side):
                    assert same_bits(g, e)


def closure_residuals(family):
    """The closure identities of `bi_coeffs` in `_lhs`'s system, expanded as
    polynomials in (w, c, dc2, dc3): direct[0] - w c and
    direct[k] - inverse[k] - w dc_(k+1) for k = 1, 2."""
    sp = pytest.importorskip("sympy")
    w, c, dc2, dc3 = symbols = sp.symbols("w c dc2 dc3")
    direct, inverse = functionals._lhs(family, *bi_coeffs(family, w, c, dc2, dc3))
    residuals = (direct[0] - w * c, direct[1] - inverse[1] - w * dc2,
                 direct[2] - inverse[2] - w * dc3)
    return [sp.Poly(sp.expand(r), *symbols) for r in residuals]


class TestClosureIdentity:
    """`bi_coeffs` solves the coefficient system of `_lhs` exactly: with
    a = bi_coeffs(w, c, dc2, dc3), the first direct equation reads w c and
    each direct minus inverse equation reads w times the difference."""

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_bi_coeffs_closes_the_system(self, family):
        for poly in closure_residuals(family):
            assert all(abs(float(coeff)) <= 1e-15 for coeff in poly.coeffs())

    def test_a_wrong_weight_leaves_a_residual(self, monkeypatch):
        row = functionals._SYSTEMS[FamilyId.STARLIKE]
        h, g1, g2, e1, e2 = row.weights
        monkeypatch.setitem(functionals._SYSTEMS, FamilyId.STARLIKE,
                            row._replace(weights=(h, g1, 0.9 * g2, e1, e2)))
        _, k1, _ = closure_residuals(FamilyId.STARLIKE)
        (monomial, coeff), = k1.terms()
        assert monomial == (1, 0, 1, 0)  # w dc2
        assert abs(float(coeff) + 0.1) <= 1e-15
