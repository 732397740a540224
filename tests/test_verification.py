import cmath
import tracemalloc

import numpy as np
import pytest

from bihankel import bounds as bd
from bihankel import caratheodory as car
from bihankel import functionals
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
