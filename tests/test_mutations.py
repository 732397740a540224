"""The mutation catalogue: which faults planted in the package `verify` catches.

Each mutation monkeypatches one piece of the package: the closed-form
bound, the kernel's terms (A, B, C), a weight of the coefficient system,
the disk parametrization or the Fekete-Szego bound.  `run_checks` then runs
at the verify-suite settings (both families, betas 0, 0.3 and 0.7, 200
trials, 4000 samples, seed 0) and again at b = 0.9999999, and the set of
check names that fail is pinned for each.  A mutation is caught when that
set is not empty.  A check added to `verify` adds here what it catches.

Print each mutation's failing checks and the score with

    PYTHONPATH=src python tests/test_mutations.py
"""

from pathlib import Path

import numpy as np
import pytest

from bihankel import bounds as bd
from bihankel import caratheodory as car
from bihankel import functionals
from bihankel import optimizer as opt
from bihankel import verification as vf
from bihankel.caratheodory import disk_coeffs
from bihankel.functionals import FamilyId

SUITE_BETAS = (0.0, 0.3, 0.7)
EDGE_BETAS = (0.9999999,)
SETTINGS = dict(seed=0, trials=200, spot_samples=4000)

GRID = {"grid_max_matches_bound", "surrogate_scan_matches_bound"}
DOMINANCE = {"empirical_dominance", "pointwise_majorant_dominance"}


def scaled_bound(factor):
    def apply(mp):
        true_bound = bd.h22_bound

        def mutated(family, beta):
            result = true_bound(family, beta)
            return result._replace(bound=result.bound * factor)

        mp.setattr(bd, "h22_bound", mutated)
    return apply


def scaled_terms(fa, fb, fc):
    def apply(mp):
        true_terms = opt.h22_terms

        def mutated(family, beta, c, x, y):
            a, b, cw = true_terms(family, beta, c, x, y)
            return a * fa, b * fb, cw * fc

        mp.setattr(opt, "h22_terms", mutated)
    return apply


def scaled_weight(family, index):
    """One of the weights (h, g1, g2, e1, e2) of `bi_coeffs` times 0.9."""
    def apply(mp):
        row = functionals._SYSTEMS[family]
        weights = list(row.weights)
        weights[index] *= 0.9
        mp.setitem(functionals._SYSTEMS, family, row._replace(weights=tuple(weights)))
    return apply


def c2_x_term_short(c, x, z):
    gap = 4.0 - c * c
    c2 = (c * c + 0.9 * x * gap) / 2.0
    return c2, disk_coeffs(c, x, z)[1]


def c3_x_term_flipped(c, x, z):
    gap = 4.0 - c * c
    c3 = (c**3 - 2.0 * gap * c * x - c * gap * x * x
          + 2.0 * gap * (1.0 - abs(x) ** 2) * z) / 4.0
    return disk_coeffs(c, x, z)[0], c3


def z_weight_linear(c, x, z):
    gap = 4.0 - c * c
    c3 = (c**3 + 2.0 * gap * c * x - c * gap * x * x
          + 2.0 * gap * (1.0 - abs(x)) * z) / 4.0
    return disk_coeffs(c, x, z)[0], c3


def disk_coeffs_as(mutated):
    """`disk_coeffs` replaced in every module that reads it (the mutants call
    this module's binding of the true one)."""
    def apply(mp):
        for module in (car, vf, opt):
            mp.setattr(module, "disk_coeffs", mutated)
    return apply


def fs_outer_high(mp):
    for family, row in list(bd._ROWS.items()):
        flat, outer, joins = row.fs
        mp.setitem(bd._ROWS, family, row._replace(fs=(flat, outer * 1.1, joins)))


# name -> (apply, failing checks at SUITE_BETAS, failing checks at EDGE_BETAS)
CATALOGUE = {
    "h22_bound x2": (scaled_bound(2.0), GRID, set()),
    "h22_bound x0.5": (scaled_bound(0.5), GRID | {"empirical_dominance"}, set()),
    "h22_terms A, B, C x3": (scaled_terms(3.0, 3.0, 3.0), DOMINANCE, set()),
    "h22_terms A x0.97": (scaled_terms(0.97, 1.0, 1.0), set(), set()),
    "h22_terms B x0.5": (scaled_terms(1.0, 0.5, 1.0), set(), set()),
    "h22_terms B sign flipped": (scaled_terms(1.0, -1.0, 1.0), set(), set()),
    "starlike e2 x0.9": (scaled_weight(FamilyId.STARLIKE, 4), set(), set()),
    "starlike g2 x0.9": (scaled_weight(FamilyId.STARLIKE, 2), set(), set()),
    "convex e1 x0.9": (scaled_weight(FamilyId.CONVEX, 3), set(), set()),
    "disk_coeffs c2's x term x0.9": (disk_coeffs_as(c2_x_term_short), set(), set()),
    "disk_coeffs c3's 2 gap c x sign flipped": (disk_coeffs_as(c3_x_term_flipped), set(), set()),
    "disk_coeffs 1 - |x| for 1 - |x|^2": (disk_coeffs_as(z_weight_linear), set(), set()),
    "fekete_szego outer branch x1.1": (
        fs_outer_high, {"fs_branch_continuity"}, {"fs_branch_continuity"}
    ),
}


def failing_checks(name, betas):
    """Names of the checks that fail under one mutation, over both families."""
    apply = CATALOGUE[name][0]
    with pytest.MonkeyPatch.context() as mp:
        apply(mp)
        vf.clear_spot_check_cache()
        try:
            return {
                check.name
                for family in FamilyId
                for beta in betas
                for check in vf.run_checks(family, beta, **SETTINGS)
                if not check.passed
            }
        finally:
            vf.clear_spot_check_cache()


def score(failing_sets):
    return f"{sum(1 for names in failing_sets if names)}/{len(CATALOGUE)}"


@pytest.mark.parametrize("name", list(CATALOGUE))
def test_failing_checks_at_the_verify_suite_settings(name):
    assert failing_checks(name, SUITE_BETAS) == CATALOGUE[name][1]


@pytest.mark.parametrize("name", list(CATALOGUE))
def test_failing_checks_near_beta_one(name):
    assert failing_checks(name, EDGE_BETAS) == CATALOGUE[name][2]


def probes():
    """Values of every mutated piece, reached the way `run_checks` reaches them."""
    rng = np.random.default_rng(1)
    c = rng.uniform(0.0, 2.0, 8)
    x, y, z, w = (car.unit_disk_samples(rng, 8) for _ in range(4))
    out = []
    for family in FamilyId:
        out.append(bd.h22_bound(family, 0.3).bound)
        out.extend(opt.h22_batch(family, 0.3, c, x, y, z, w))
        out.append(bd.fekete_szego_bound(family, 0.3, 3.0))
    out.extend(np.concatenate(vf.disk_coeffs(c, x, z)))
    return np.array(out)


@pytest.mark.parametrize("name", list(CATALOGUE))
def test_every_mutation_changes_what_verify_reads(name):
    # a mutation that no check catches must still be a fault
    before = probes()
    with pytest.MonkeyPatch.context() as mp:
        CATALOGUE[name][0](mp)
        during = probes()
    assert not np.array_equal(during, before)
    assert np.array_equal(probes(), before)


def test_score_is_the_readme_one():
    # the pinned sets, which the tests above compare with the measured ones
    suite, edge = (score(entry[i] for entry in CATALOGUE.values()) for i in (1, 2))
    print(f"\nmutation score: {suite} at the verify-suite settings, {edge} at b = {EDGE_BETAS[0]}")
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    assert (f"catches {suite} of them at the verify-suite settings" in readme
            and f"and {edge} at beta = {EDGE_BETAS[0]}," in readme)


if __name__ == "__main__":
    measured = {name: (failing_checks(name, SUITE_BETAS), failing_checks(name, EDGE_BETAS))
                for name in CATALOGUE}
    for name, (suite, edge) in measured.items():
        print(f"{name}: {sorted(suite)} at the verify-suite settings, {sorted(edge)} near 1")
    print(f"score: {score(s for s, _ in measured.values())} at the verify-suite settings, "
          f"{score(e for _, e in measured.values())} at b = {EDGE_BETAS[0]}")
