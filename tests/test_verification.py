import ast
import cmath
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bihankel import bounds as bd
from bihankel import caratheodory as car
from bihankel import functionals
from bihankel import optimizer as opt
from bihankel import verification as vf
from bihankel.caratheodory import (
    disk_coeffs,
    disk_param_blocks,
    herglotz_blocks,
    unit_disk_samples,
)
from bihankel.errors import ConstraintViolation, DomainError
from bihankel.functionals import BiCoefficients, FamilyId, Order, verify_coefficient_system

INVARIANT = ("series_identity_residual", "disk_param_coeff_bound", "herglotz_coeff_bound")
FAMILY_FREE = ("disk_param_coeff_bound", "herglotz_coeff_bound")
BETAS = (0.0, 0.3, 0.7)


# numpy rounds complex products, powers and moduli apart from CPython by an
# ulp, so the array coefficient checks match the per-draw loops to a few
# ulps of the largest |c_k| (near 2), not bit for bit.
COEFF_ULPS = 4 * np.finfo(float).eps
# The batched series algebra matches the scalar one coefficient by
# coefficient within this relative tolerance (numpy divides complex numbers
# through a reciprocal, CPython directly).
SERIES_COEFF_REL = 1e-13


# reference loops: the spot checks as run_checks computed them inline, per
# beta, with Python scalars per draw, on the same draws taken in one batch
# straight from the spawned streams

def reference_series_draws(trials, seed):
    """(a2, a3, a4) per draw, as the per-draw loop took them from the stream."""
    rng = np.random.default_rng(seed + 1)
    return [rng.uniform(-3.0, 3.0, 6).view(complex).tolist() for _ in range(trials)]


def check_series_worst(got, family, beta, trials, seed):
    """`got` is the worst batched residual over the per-draw loop's draws.

    The series residuals are rounding noise, so they cannot be compared
    across two routes; instead `got` must be exactly the largest residual
    of the batched algebra on those draws, and that algebra must give every
    draw's (c1..c3) and (d1..d3) of the scalar `verify_coefficient_system`.
    """
    draws = reference_series_draws(trials, seed)
    func_f, func_g, residuals = functionals._system_residuals(family, *np.array(draws).T)
    assert got == max(float(np.max(r)) for r in residuals)
    assert 0.0 < got <= vf.SERIES_TOL
    w = 1.0 - beta
    for i, a in enumerate(draws):
        report = verify_coefficient_system(family, Order(beta), BiCoefficients(*a))
        for func, scalar in ((func_f, report.p), (func_g, report.q)):
            for k, ref in enumerate(scalar.as_tuple(), start=1):
                assert func[k][i] / w == pytest.approx(ref, rel=SERIES_COEFF_REL, abs=0)


def spawned(seed, count):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def reference_disk_param_max(spot_samples, seed):
    """Largest |c_k| over the draws, `disk_coeffs` on Python scalars per draw."""
    c_rng, x_rng, _, z_rng, _ = spawned(seed + 2, 5)
    c = c_rng.uniform(0.0, 2.0, spot_samples)
    x, z = unit_disk_samples(x_rng, spot_samples), unit_disk_samples(z_rng, spot_samples)
    return max(
        max(abs(ci), *(abs(v) for v in disk_coeffs(ci, xi, zi)))
        for ci, xi, zi in zip(c.tolist(), x.tolist(), z.tolist())
    )


def reference_herglotz_max(spot_samples, seed):
    """Largest |c_k| over the measures, c_k = 2 sum_j w_j e^{i k t_j} in cmath."""
    n_rng, w_rng, t_rng = spawned(seed + 3, 3)
    largest = 0.0
    for n in n_rng.integers(1, 7, spot_samples):
        weights = w_rng.uniform(0.1, 1.0, 6)[:n]
        angles = t_rng.uniform(0.0, 2 * np.pi, 6)[:n]
        atoms = list(zip((weights / weights.sum()).tolist(), angles.tolist()))
        for k in (1, 2, 3):
            largest = max(largest, abs(2.0 * sum(w * cmath.exp(1j * k * t) for w, t in atoms)))
    return largest


def check_coeff_excess(got, reference_max):
    """`got` = max|c_k| - 2 with max|c_k| within a few ulps of the reference."""
    assert got + 2.0 == pytest.approx(reference_max, rel=COEFF_ULPS, abs=0)


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
        check_series_worst(vf._series_worst(family, 30, 4), family, beta, 30, 4)

    def test_sampling_helpers_match_reference_loops(self):
        check_coeff_excess(vf._disk_param_excess(300, 4), reference_disk_param_max(300, 4))
        check_coeff_excess(vf._herglotz_excess(300, 4), reference_herglotz_max(300, 4))

    def test_run_checks_reports_reference_values(self):
        got = values(vf.run_checks(FamilyId.CONVEX, 0.7, seed=6, trials=12, spot_samples=120))
        check_series_worst(got["series_identity_residual"], FamilyId.CONVEX, 0.7, 12, 6)
        check_coeff_excess(got["disk_param_coeff_bound"], reference_disk_param_max(120, 6))
        check_coeff_excess(got["herglotz_coeff_bound"], reference_herglotz_max(120, 6))

    def test_changed_arguments_never_return_a_stale_value(self):
        # 30 rather than 20 draws: the samplers are prefix-consistent, and at
        # seed 1 the largest of the first 20 disk draws is among the first 10
        keys = [(10, 0), (10, 1), (30, 0), (30, 1), (10, 0)]
        for n, seed in keys:
            check_coeff_excess(vf._disk_param_excess(n, seed), reference_disk_param_max(n, seed))
            check_coeff_excess(vf._herglotz_excess(n, seed), reference_herglotz_max(n, seed))
            for family in FamilyId:
                check_series_worst(vf._series_worst(family, n, seed), family, 0.0, n, seed)
        # the disk-param values differ per key, so a stale hit would show above;
        # other values can coincide (the Herglotz excess is 0 or an ulp of 2
        # for every key, and more draws at one seed extend the same draws),
        # so check that every new key was computed and only the repeated one
        # was served
        assert len({vf._disk_param_excess(n, seed) for n, seed in keys}) == 4
        for helper, misses in (
            (vf._disk_param_excess, 4), (vf._herglotz_excess, 4), (vf._series_worst, 8)
        ):
            assert helper.cache_info().misses == misses

    def test_one_verify_run_samples_once(self, monkeypatch):
        calls = []

        def counting(samples, seed):
            calls.append((samples, seed))
            return herglotz_blocks(samples, seed)

        monkeypatch.setattr(vf, "herglotz_blocks", counting)
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


class TestArraySpotChecks:
    @pytest.mark.parametrize("chunk", [7, 1 << 14])
    def test_disk_check_validates_the_draws(self, chunk, monkeypatch):
        monkeypatch.setattr(car, "SAMPLE_CHUNK", chunk)

        def out_of_domain(samples, seed, **kwargs):
            blocks = list(disk_param_blocks(samples, seed, **kwargs))
            blocks[-1][0][-1] = 2.5
            return iter(blocks)

        monkeypatch.setattr(vf, "disk_param_blocks", out_of_domain)
        with pytest.raises(ConstraintViolation, match=r"c must lie in \[0, 2\], got 2.5"):
            vf._disk_param_excess(50, 0)

    @pytest.mark.parametrize("chunk", [7, 1 << 14])
    def test_herglotz_check_validates_the_draws(self, chunk, monkeypatch):
        monkeypatch.setattr(car, "SAMPLE_CHUNK", chunk)

        def full_turn(samples, seed):
            blocks = list(herglotz_blocks(samples, seed))
            blocks[-1][1][-1, 0] = 2 * np.pi
            return iter(blocks)

        monkeypatch.setattr(vf, "herglotz_blocks", full_turn)
        with pytest.raises(ConstraintViolation, match="atom angle outside"):
            vf._herglotz_excess(50, 0)

    def test_herglotz_check_reports_the_largest_modulus(self, monkeypatch):
        # two atoms of weight 1/2 a quarter turn apart: |c1| = |c3| = sqrt(2)
        # and c2 = 0, so the excess is sqrt(2) - 2, not the 0 of an extreme point
        def quarter_turns(samples, seed):
            weights = np.full((samples, 3), 0.5)
            weights[:, 2] = 0.0
            angles = np.zeros((samples, 3))
            angles[:, 1] = np.pi / 2
            angles[1::2, :2] += np.pi / 2
            return iter([(weights[:2], angles[:2]), (weights[2:], angles[2:])])

        monkeypatch.setattr(vf, "herglotz_blocks", quarter_turns)
        assert vf._herglotz_excess(5, 0) == pytest.approx(np.sqrt(2.0) - 2.0, rel=1e-15)

    @pytest.mark.parametrize("chunk", [1, 7, (1 << 12) - 1, "samples", "more"])
    def test_chunks_give_the_whole_batch_value(self, chunk, monkeypatch):
        samples = 300
        # one block for every pass: a Herglotz block holds SAMPLE_CHUNK //
        # MAX_ATOMS measures
        monkeypatch.setattr(car, "SAMPLE_CHUNK", (samples + 1) * car.MAX_ATOMS)
        whole = values(vf.run_checks(FamilyId.STARLIKE, 0.3, seed=5, trials=2,
                                     spot_samples=samples))
        vf.clear_spot_check_cache()
        chunk = {"samples": samples, "more": samples + 1}.get(chunk, chunk)
        monkeypatch.setattr(car, "SAMPLE_CHUNK", chunk)
        got = values(vf.run_checks(FamilyId.STARLIKE, 0.3, seed=5, trials=2,
                                   spot_samples=samples))
        assert got == whole

    def test_herglotz_check_holds_one_block_of_temporaries(self):
        # blocks of 682 measures and one complex buffer take about 0.2 MiB;
        # blocks of 2^12 measures and a new array per operation take 1.3 MiB
        tracemalloc.start()
        try:
            vf._herglotz_excess(200_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**19

    def test_memory_does_not_grow_with_samples(self):
        def peaks(samples):
            vf.clear_spot_check_cache()
            out = []
            for run in (
                lambda: vf._disk_param_excess(samples, 0),
                lambda: vf._herglotz_excess(samples, 0),
                lambda: vf.run_checks(FamilyId.STARLIKE, 0.0, trials=1, spot_samples=samples),
            ):
                vf.clear_spot_check_cache()
                tracemalloc.start()
                try:
                    run()
                    out.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return out

        for small, large in zip(peaks(200_000), peaks(2_000_000)):
            assert abs(large - small) <= 2**18


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


class TestRegistry:
    # 0.2228761792464623: the sign change of the quartic's c^4 coefficient;
    # 0.5404781277900117: the split, the last beta where quartic_monotone runs
    BETAS = (0.0, 0.2228761792464623, 0.3, 0.5404781277900117, 0.5404781277900118, 0.9999999)
    SHARED = (
        "grid_max_matches_bound", "surrogate_scan_matches_bound", "surrogate_argmax_at_corner",
        "corner_combination", "term_sign_pattern", "hessian_negative",
        "positivity_factorization", "growth_inequality", "growth_factorization",
        "series_identity_residual", "disk_param_coeff_bound", "herglotz_coeff_bound",
        "empirical_dominance", "pointwise_majorant_dominance",
    )
    CRITICAL = ("critical_point_stationary", "critical_point_maximum")
    BELOW_SPLIT = SHARED + ("branch_continuity", "quartic_monotone", "fs_branch_continuity")
    NAMES = {
        FamilyId.STARLIKE: (
            BELOW_SPLIT, BELOW_SPLIT, BELOW_SPLIT,
            SHARED + ("branch_continuity", "quartic_monotone") + CRITICAL
            + ("fs_branch_continuity",),
            SHARED + ("branch_continuity",) + CRITICAL + ("fs_branch_continuity",),
            SHARED + ("branch_continuity",) + CRITICAL + ("fs_branch_continuity",),
        ),
        FamilyId.CONVEX: (
            SHARED + CRITICAL + ("endpoint_values", "fs_branch_continuity"),
        ) * 6,
    }

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_names_in_report_order(self, family):
        for beta, expected in zip(self.BETAS, self.NAMES[family]):
            checks = vf.run_checks(family, beta, trials=1, spot_samples=1)
            assert tuple(c.name for c in checks) == expected, beta

    def recorded(self, monkeypatch):
        """The families each `CHECKS` entry ran for and the names it gave,
        and the names of every run, over both families and `BETAS`."""
        ran = [set() for _ in vf.CHECKS]
        gave = [set() for _ in vf.CHECKS]

        def recording(i, check):
            def run(ctx):
                results = list(check(ctx))
                ran[i].add(ctx.family)
                gave[i].update(r.name for r in results)
                return results
            return run

        monkeypatch.setattr(vf, "CHECKS", tuple(
            (recording(i, check), families) for i, (check, families) in enumerate(vf.CHECKS)
        ))
        runs = {
            (family, beta): [c.name for c in vf.run_checks(family, beta, trials=1, spot_samples=1)]
            for family in FamilyId for beta in self.BETAS
        }
        return ran, gave, runs

    def test_each_name_once_per_run_and_in_one_entry(self, monkeypatch):
        _, gave, runs = self.recorded(monkeypatch)
        for names in runs.values():
            assert len(names) == len(set(names))
        every = set().union(*gave)
        assert every == set().union(*runs.values())
        for name in every:
            assert sum(name in names for names in gave) == 1, name

    def test_single_family_entries_never_run_for_the_other(self, monkeypatch):
        ran, gave, runs = self.recorded(monkeypatch)
        single = {
            family: [i for i, (_, families) in enumerate(vf.CHECKS) if families == (family,)]
            for family in FamilyId
        }
        assert all(single.values())
        for family, entries in single.items():
            other = {name for (f, _), names in runs.items() if f is not family for name in names}
            for i in entries:
                assert ran[i] == {family}
                assert gave[i] and not gave[i] & other


class TestFsBranchContinuity:
    JOINS = {FamilyId.STARLIKE: (0.5, 1.5), FamilyId.CONVEX: (2.0 / 3.0, 4.0 / 3.0)}

    @pytest.mark.parametrize("piece", ["flat", "slope"])
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_fails_on_a_bound_one_percent_off(self, family, piece, monkeypatch):
        lo, hi = self.JOINS[family]
        true_bound = bd.fekete_szego_bound

        def off_bound(fam, beta, mu):
            flat = lo <= mu <= hi
            return true_bound(fam, beta, mu) * (1.01 if flat == (piece == "flat") else 1.0)

        monkeypatch.setattr(bd, "fekete_szego_bound", off_bound)
        checks = vf.run_checks(family, 0.3, trials=1, spot_samples=1)
        check, = (c for c in checks if c.name == "fs_branch_continuity")
        assert not check.passed and check.value > 1e-3
        assert not vf.all_passed(checks)


class TestGrowthInequality:
    """`growth_inequality` is proved, so it is a hard check like the others."""

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_factorization_follows_the_inequality(self, family):
        # 25 betas by the 401 c-points of the check; the residual is rounding
        for beta in np.linspace(0.0, 0.999, 25):
            checks = vf.run_checks(family, beta, trials=1, spot_samples=1)
            names = [c.name for c in checks]
            i = names.index("growth_inequality")
            assert names[i + 1] == "growth_factorization"
            assert checks[i].passed and checks[i + 1].passed
            assert 0.0 <= checks[i + 1].value <= 1e-15

    def test_proof_in_exact_arithmetic(self):
        # the terms as `surrogate_terms` states them, constants filled in;
        # the factored forms and discriminants of `run_checks`
        sp = pytest.importorskip("sympy")
        c, b = sp.symbols("c b")
        w2, gap = (1 - b) ** 2, 4 - c * c
        cases = {
            FamilyId.STARLIKE: (
                (w2 / 48 * c * c * gap * (7 - 3 * b), w2 / 24 * c * gap * (c - 2),
                 w2 / 64 * gap**2),
                (19 - 6 * b) * c * c - 16 * c + 12, 96, 288 * b - 656,
            ),
            FamilyId.CONVEX: (
                (w2 / 192 * c * c * gap * (3 - b), w2 / 192 * c * gap * (c - 2),
                 w2 / 576 * gap**2),
                (13 - 3 * b) * c * c - 12 * c + 8, 576, 96 * b - 272,
            ),
        }
        for family, ((t2, t3, t4), quadratic, denominator, discriminant) in cases.items():
            assert sp.expand(t2 + 2 * (t3 + t4) - w2 * gap * quadratic / denominator) == 0
            assert sp.expand(sp.discriminant(quadratic, c) - discriminant) == 0
            # the symbolic terms are the ones the package evaluates
            for cv, bv in ((0.3, 0.1), (1.7, 0.8)):
                _, *got = bd.surrogate_terms(family, cv, bv)
                for term, value in zip((t2, t3, t4), got):
                    assert float(term.subs({c: cv, b: bv})) == pytest.approx(value, rel=1e-14)

    def test_a_violation_fails_verify(self, monkeypatch):
        true_terms = bd.surrogate_terms

        def short_t2(family, c, beta):
            t1, t2, t3, t4 = true_terms(family, c, beta)
            return t1, t2 - 1.0, t3, t4

        monkeypatch.setattr(bd, "surrogate_terms", short_t2)
        checks = vf.run_checks(FamilyId.STARLIKE, 0.3, trials=1, spot_samples=1)
        check, = (c for c in checks if c.name == "growth_inequality")
        assert not check.passed and check.value > 0.5
        assert not vf.all_passed(checks)


def with_nan(result):
    """A copy of an array with its row 1 (or its last row) set to NaN."""
    out = np.array(result)
    out[min(1, len(out) - 1)] = math.nan
    return out


# Each sampled check, and where a NaN goes into one block of its values:
# (check, module, function, NaN-making edit of its result, the function's
# calls before the check's first block, the check's blocks).  With
# SAMPLE_CHUNK = 12, 30 draws and 30 trials, the Herglotz check streams
# blocks of two measures and the others blocks of 12 rows; h22_batch runs
# the search's three blocks before the pointwise check's.
NAN_CASES = (
    ("series_identity_residual", functionals, "_system_residuals",
     lambda out: (out[0], out[1], (with_nan(out[2][0]),) + out[2][1:]), 0, 3),
    ("disk_param_coeff_bound", vf, "disk_coeffs", lambda out: (out[0], with_nan(out[1])), 0, 3),
    ("herglotz_coeff_bound", vf, "coeffs_from_herglotz", with_nan, 0, 15),
    ("empirical_dominance", opt, "h22_batch", with_nan, 0, 3),
    ("pointwise_majorant_dominance", opt, "h22_batch", with_nan, 3, 3),
)


class TestNanFailsTheCheck:
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("case", NAN_CASES, ids=[case[0] for case in NAN_CASES])
    def test_nan_in_one_block(self, case, position, monkeypatch):
        name, module, function, poison, before, blocks = case
        target = before + {"first": 0, "middle": blocks // 2, "last": blocks - 1}[position]
        true_function = getattr(module, function)
        calls = []

        def one_nan_block(*args, **kwargs):
            out = true_function(*args, **kwargs)
            calls.append(None)
            return poison(out) if len(calls) - 1 == target else out

        monkeypatch.setattr(car, "SAMPLE_CHUNK", 12)
        monkeypatch.setattr(module, function, one_nan_block)
        checks = vf.run_checks(FamilyId.STARLIKE, 0.3, trials=30, spot_samples=30)
        check, = (c for c in checks if c.name == name)
        assert len(calls) == (6 if function == "h22_batch" else blocks)
        assert math.isnan(check.value) and not check.passed
        assert not vf.all_passed(checks)


class TestEndpointValues:
    @pytest.mark.parametrize("field", range(5))
    def test_a_scaled_convex_value_at_c2_fails(self, field, monkeypatch):
        # at_c2 = (f, (p2, p1, p0), d); convex has no branch split, so the
        # check is the field's only reader
        row = bd._ROWS[FamilyId.CONVEX]
        f, (p2, p1, p0), d = row.at_c2
        values = [f, p2, p1, p0, d]
        values[field] *= 1.1
        at_c2 = (values[0], tuple(values[1:4]), values[4])
        monkeypatch.setitem(bd._ROWS, FamilyId.CONVEX, row._replace(at_c2=at_c2))
        checks = vf.run_checks(FamilyId.CONVEX, 0.3, trials=1, spot_samples=1)
        check, = (c for c in checks if c.name == "endpoint_values")
        assert not check.passed and check.value > 1e-4
        assert [c.name for c in checks if not c.passed] == ["endpoint_values"]


def check_named(checks, name):
    check, = (c for c in checks if c.name == name)
    return check


class TestNanDeviationFailsTheCheck:
    """A NaN in any one deviation of a deterministic check makes its value
    NaN, wherever the deviation sits among the check's parts."""

    @pytest.mark.parametrize("family", list(FamilyId))
    @pytest.mark.parametrize("call", range(4))
    def test_fs_branch_continuity(self, family, call, monkeypatch):
        # the check evaluates the bound at each join and one ulp past it
        true_bound = bd.fekete_szego_bound
        calls = []

        def nan_bound(*args):
            calls.append(None)
            return math.nan if len(calls) - 1 == call else true_bound(*args)

        monkeypatch.setattr(bd, "fekete_szego_bound", nan_bound)
        checks = vf.run_checks(family, 0.3, trials=1, spot_samples=1)
        assert len(calls) == 4
        check = check_named(checks, "fs_branch_continuity")
        assert math.isnan(check.value) and not check.passed
        assert not vf.all_passed(checks)

    @pytest.mark.parametrize("endpoint", [0.0, 2.0])
    def test_endpoint_values(self, endpoint, monkeypatch):
        true_value = bd.QuarticProfile.value

        def nan_at_endpoint(profile, c):
            return math.nan if np.ndim(c) == 0 and c == endpoint else true_value(profile, c)

        monkeypatch.setattr(bd.QuarticProfile, "value", nan_at_endpoint)
        checks = vf.run_checks(FamilyId.CONVEX, 0.3, trials=1, spot_samples=1)
        check = check_named(checks, "endpoint_values")
        assert math.isnan(check.value) and not check.passed

    @pytest.mark.parametrize("axis", [1, 2])
    def test_surrogate_argmax_at_corner(self, axis, monkeypatch):
        true_scan = opt.maximize_surrogate

        def nan_argmax(family, beta):
            result = true_scan(family, beta)
            argmax = list(result.argmax)
            argmax[axis] = math.nan
            return result._replace(argmax=tuple(argmax))

        monkeypatch.setattr(opt, "maximize_surrogate", nan_argmax)
        checks = vf.run_checks(FamilyId.STARLIKE, 0.3, trials=1, spot_samples=1)
        check = check_named(checks, "surrogate_argmax_at_corner")
        assert math.isnan(check.value) and not check.passed
        assert [c.name for c in checks if not c.passed] == ["surrogate_argmax_at_corner"]

    @pytest.mark.parametrize("term", range(4))
    def test_term_sign_pattern(self, term, monkeypatch):
        true_terms = bd.surrogate_terms

        def nan_entry(family, c, beta):
            # one NaN in the middle of the check's c-grid; other callers untouched
            terms = true_terms(family, c, beta)
            if np.shape(c) != (vf.C_POINTS,):
                return terms
            terms = [np.array(t) for t in terms]
            terms[term][vf.C_POINTS // 2] = math.nan
            return tuple(terms)

        monkeypatch.setattr(bd, "surrogate_terms", nan_entry)
        checks = vf.run_checks(FamilyId.STARLIKE, 0.3, trials=1, spot_samples=1)
        check = check_named(checks, "term_sign_pattern")
        assert math.isnan(check.value) and not check.passed



class TestCriticalPointChecksRun:
    """The critical-point checks run on every interior-branch beta; a lost c*
    fails them there instead of dropping them from the report."""

    CRITICAL = ("critical_point_stationary", "critical_point_maximum")
    CASES = [(FamilyId.STARLIKE, 0.7), (FamilyId.CONVEX, 0.3), (FamilyId.CONVEX, 0.7)]

    @pytest.mark.parametrize("c_star", [math.nan, 2.5])
    @pytest.mark.parametrize("family, beta", CASES)
    def test_a_lost_critical_point_fails_both(self, family, beta, c_star, monkeypatch):
        monkeypatch.setattr(bd, "_stationary_c",
                            lambda row, beta, lead: np.full(np.shape(lead), c_star))
        checks = vf.run_checks(family, beta, trials=1, spot_samples=1)
        for name in self.CRITICAL:
            check = check_named(checks, name)
            assert math.isnan(check.value) and not check.passed
        assert not vf.all_passed(checks)

    @pytest.mark.parametrize("family", list(FamilyId))
    def test_every_interior_branch_beta_runs_both(self, family):
        for beta in np.linspace(0.0, 0.999, 40).tolist() + [0.5404781277900118]:
            interior = bd.h22_bound(family, beta).branch is bd.Branch.INTERIOR_CRITICAL
            checks = vf.run_checks(family, beta, trials=1, spot_samples=1)
            names = [c.name for c in checks]
            if interior:
                assert all(name in names for name in self.CRITICAL), beta
            assert all(c.passed for c in checks if c.name in self.CRITICAL), beta


class TestWorst:
    """`_worst`, the one reduction behind every check's value."""

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_nan_in_any_part(self, where):
        parts = [0.5, np.array([1.0, 2.0]), 3.0, np.array([[0.25]]), 1e-3]
        parts[where] = np.array([0.0, math.nan]) if where != 4 else math.nan
        assert math.isnan(vf._worst(parts))

    def test_nan_after_the_largest_entry(self):
        assert math.isnan(vf._worst([np.array([5.0, math.nan]), 1.0]))
        assert math.isnan(vf._worst([5.0, np.array([1.0, math.nan])]))

    def test_scalars_mixed_with_arrays(self):
        got = vf._worst([0.5, np.array([-1.0, 2.5]), 1, np.float64(-3.0), np.array([[4.0], [0.0]])])
        assert got == 4.0 and type(got) is float

    def test_one_array_is_np_max_bit_for_bit(self):
        rng = np.random.default_rng(32)
        for values in (rng.normal(size=401), -np.abs(rng.normal(size=7)), np.array([-0.0, 0.0])):
            got = vf._worst([values])
            assert np.array([got]).view(np.uint64) == np.array([np.max(values)]).view(np.uint64)

    def test_check_and_sign_check_read_the_worst(self):
        assert vf._check("x", 1.0, 0.5, np.array([1.0, 0.25])) == ("x", 1.0, 1.0, True)
        assert vf._check("x", 1.0, np.array([0.0, math.nan]), 0.5).passed is False
        assert vf._sign_check("y", -1.0, np.array([-2.0, -0.5])) == ("y", -0.5, 0.0, True)
        assert vf._sign_check("y", -1.0, 0.0).passed is False


# functions a check could call to reduce its deviations on its own
REDUCERS = {"max", "min", "amax", "amin", "nanmax", "nanmin"}


def test_only_worst_reduces_in_verification():
    """No builtin `max` or `min` in `verification.py`, and no `np.max`-like
    call outside `_worst`: every check reduces through `_check` or
    `_sign_check`, so one NaN rule covers them all."""
    tree = ast.parse(Path(vf.__file__).read_text())
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for inner in ast.walk(node):
                owner.setdefault(inner, node.name)
    offenders = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in REDUCERS and not (isinstance(func, ast.Attribute)
                                     and owner.get(node) == "_worst"):
            offenders.append((node.lineno, ast.unparse(func)))
    assert offenders == []
