"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from bihankel.bounds import (
    convex_h22_bound,
    convex_surrogate_terms,
    critical_point,
    fekete_szego_bound,
    h22_bound,
    quartic_profile,
    starlike_h22_bound,
    starlike_surrogate_terms,
    thresholds,
)
from bihankel.caratheodory import (
    check_disk_params,
    coeffs_from_herglotz,
    disk_coeffs,
    disk_param_blocks,
    herglotz_blocks,
)
from bihankel.cli import main
from bihankel.functionals import (
    BiCoefficients,
    FamilyId,
    Order,
    verify_coefficient_system,
)
from bihankel.optimizer import empirical_max_h22, maximize_1d, maximize_surrogate
from bihankel.series import TruncatedSeries, invert_composition


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_beta_zero_values(capsys):
    start = time.perf_counter()
    ok = abs(starlike_h22_bound(0.0).bound - 20 / 3) <= 1e-12
    ok &= abs(convex_h22_bound(0.0).bound - 1 / 3) <= 1e-12
    exit_code = main(["verify", "--beta", "0"])
    capsys.readouterr()  # the report itself is not under test here
    ok &= exit_code == 0
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    with capsys.disabled():
        report(1, f"beta=0 bounds 20/3 and 1/3, verify exit 0 ({elapsed:.2f}s)", ok)


def test_criterion_02_optimizer_agreement(capsys):
    start = time.perf_counter()
    betas = np.linspace(0.0, 0.98, 50)
    worst_1d = 0.0
    worst_3d = 0.0
    for beta in betas:
        for family in FamilyId:
            bound = h22_bound(family, float(beta)).bound
            profile = quartic_profile(family, float(beta))
            scan = maximize_1d(profile.value, (0.0, 2.0))
            worst_1d = max(worst_1d, abs(scan.max_value - bound))
            cube = maximize_surrogate(family, float(beta))
            worst_3d = max(worst_3d, abs(cube.max_value - bound))
    elapsed = time.perf_counter() - start
    ok = worst_1d <= 1e-8 and worst_3d <= 1e-6 and elapsed < 30.0
    with capsys.disabled():
        report(
            2,
            f"grid max within 1e-8 (worst {worst_1d:.2e}), surrogate scan "
            f"within 1e-6 (worst {worst_3d:.2e}), {elapsed:.1f}s",
            ok,
        )


def test_criterion_03_branch_structure(capsys):
    split = thresholds().branch_split
    left = starlike_h22_bound(math.nextafter(split, 0.0)).bound
    right = starlike_h22_bound(math.nextafter(split, 1.0)).bound
    c_star = critical_point(FamilyId.STARLIKE, split)
    ok = abs(left - right) <= 1e-9 and c_star is not None
    ok &= abs(c_star - 2.0) <= 1e-9
    with capsys.disabled():
        report(
            3,
            f"bound continuous at branch split (gap {abs(left - right):.2e}), "
            f"critical point {c_star:.12f} = 2",
            ok,
        )


def test_criterion_04_critical_point_identities(capsys):
    ok = True
    worst_deriv = 0.0
    for beta in np.linspace(0.0, 0.98, 50):
        beta = float(beta)
        profile = quartic_profile(FamilyId.CONVEX, beta)
        c_star = critical_point(FamilyId.CONVEX, beta)
        deriv = abs(profile.derivative(c_star))
        worst_deriv = max(worst_deriv, deriv)
        ok &= deriv <= 1e-9
        ok &= profile.second_derivative(c_star) < 0
        # finite-difference cross-check of stationarity
        h = 1e-6
        hi = min(c_star + h, 2.0)
        lo = c_star - h
        fd = (profile.value(hi) - profile.value(lo)) / (hi - lo)
        ok &= abs(fd) <= 1e-5
        w2 = (1 - beta) ** 2
        ok &= abs(profile.value(0.0) - w2 / 9) <= 1e-12
        ok &= abs(profile.value(2.0) - w2 * (beta**2 - 2 * beta + 2) / 6) <= 1e-12
    with capsys.disabled():
        report(
            4,
            f"convex critical point stationary (worst |Q'| {worst_deriv:.2e}), "
            "concave, endpoint values exact",
            ok,
        )


def test_criterion_05_series_oracle_residuals(capsys):
    rng = np.random.default_rng(1905)
    worst = 0.0
    for family in FamilyId:
        for beta in (0.0, 0.3, 0.7):
            order = Order(beta)
            for _ in range(100):
                draw = rng.uniform(-3, 3, 6)
                a = BiCoefficients(
                    complex(draw[0], draw[1]),
                    complex(draw[2], draw[3]),
                    complex(draw[4], draw[5]),
                )
                worst = max(
                    worst, verify_coefficient_system(family, order, a).max_residual
                )
    ok = worst <= 1e-11

    # inverse-series formula at randomized numeric coefficients
    for _ in range(50):
        a2, a3, a4 = (complex(*rng.uniform(-1, 1, 2)) for _ in range(3))
        g = invert_composition(
            TruncatedSeries.from_coeffs([0, 1, a2, a3, a4], order=4)
        )
        ok &= abs(g[2] - (-a2)) <= 1e-12
        ok &= abs(g[3] - (2 * a2**2 - a3)) <= 1e-12
        ok &= abs(g[4] - (-(5 * a2**3 - 5 * a2 * a3 + a4))) <= 1e-12

    koebe = invert_composition(TruncatedSeries.from_coeffs([0, 1, 2, 3, 4], 4))
    ok &= koebe.coeffs == (0, 1, -2, 5, -14)
    with capsys.disabled():
        report(5, f"series-oracle residuals <= 1e-11 (worst {worst:.2e}), "
                  "inverse coefficients -2, 5, -14", ok)


def test_criterion_06_coefficient_bound_checks(capsys):
    disk_routes, herglotz_route = [], []
    for c, x, _, z, _ in disk_param_blocks(10000, 1906, draw_y=False):
        check_disk_params(c, x, z)
        disk_routes.append(np.stack([c, *disk_coeffs(c, x, z)]))
    for block in herglotz_blocks(10000, 1907):
        herglotz_route.append(coeffs_from_herglotz(block, 3))
    routes = [*np.concatenate(disk_routes, axis=1), *np.concatenate(herglotz_route).T]
    ok = [cs.size for cs in routes] == [10000] * 6
    ok &= all(bool(np.all(np.abs(cs) <= 2 + 1e-12)) for cs in routes)
    with capsys.disabled():
        report(6, "coefficient bound |c_k| <= 2 on 10^4 samples per route", ok)


def test_criterion_07_proof_machinery(capsys):
    cs = np.linspace(0.0, 2.0, 202)[1:-1]  # 200 points inside (0, 2)
    betas = np.linspace(0.0, 0.98, 50)
    ok = True
    worst_fact = 0.0
    for beta in betas:
        beta = float(beta)
        w2 = (1 - beta) ** 2
        for family, terms in (
            (FamilyId.STARLIKE, starlike_surrogate_terms),
            (FamilyId.CONVEX, convex_surrogate_terms),
        ):
            t1, t2, t3, t4 = terms(cs, beta)
            ok &= bool(np.all(t1 >= 0) and np.all(t2 >= 0))
            ok &= bool(np.all(t3 <= 0) and np.all(t4 >= 0))
            ok &= bool(np.all(4 * t3 * (t3 + 2 * t4) < 0))
            if family is FamilyId.STARLIKE:
                factored = w2 * (4 - cs * cs) * (2 - cs) * (6 - cs) / 96
                dev = float(np.max(np.abs(t3 + 2 * t4 - factored)))
                worst_fact = max(worst_fact, dev)
                ok &= dev <= 1e-12
    with capsys.disabled():
        report(
            7,
            "sign pattern, Hessian negativity and factorization on 200x50 grid "
            f"(worst factorization dev {worst_fact:.2e})",
            ok,
        )


def test_criterion_08_bound_dominance(capsys):
    start = time.perf_counter()
    ok = True
    worst_gap = math.inf
    for family in FamilyId:
        for beta in (0.0, 0.25, 0.5, 0.75):
            bound = h22_bound(family, beta).bound
            result = empirical_max_h22(family, beta, 100000, seed=1908)
            ok &= result.max_value <= bound + 1e-12
            worst_gap = min(worst_gap, bound - result.max_value)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    with capsys.disabled():
        report(
            8,
            f"10^5-sample search never exceeds bound (min gap {worst_gap:.3e}), "
            f"{elapsed:.1f}s",
            ok,
        )


def test_criterion_09_fekete_szego_values(capsys):
    ok = True
    for beta in np.linspace(0.0, 0.98, 25):
        beta = float(beta)
        ok &= abs(fekete_szego_bound(FamilyId.STARLIKE, beta, 1.0) - (1 - beta)) <= 1e-12
        ok &= abs(fekete_szego_bound(FamilyId.CONVEX, beta, 1.0) - (1 - beta) / 3) <= 1e-12
        for family, joins in (
            (FamilyId.STARLIKE, (0.5, 1.5)),
            (FamilyId.CONVEX, (2 / 3, 4 / 3)),
        ):
            for mu in joins:
                inner = fekete_szego_bound(family, beta, mu)
                for side in (math.nextafter(mu, -10), math.nextafter(mu, 10)):
                    ok &= abs(fekete_szego_bound(family, beta, side) - inner) <= 1e-12
    with capsys.disabled():
        report(9, "Fekete-Szego values at mu=1 and continuity at all joins", ok)


def test_criterion_10_search_determinism(capsys):
    args = [
        "search", "--family", "starlike", "--beta", "0",
        "--samples", "10000", "--seed", "7",
    ]
    code_a = main(list(args))
    out_a = capsys.readouterr().out
    code_b = main(list(args))
    out_b = capsys.readouterr().out
    ok = code_a == code_b == 0 and out_a.encode() == out_b.encode()
    with capsys.disabled():
        report(10, "repeated search runs are byte-identical", ok)
