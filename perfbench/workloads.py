"""The benchmark's workloads: CLI invocations built from a seed, and the
property checks applied to their output.

Checks test properties rather than golden files, because a later change to
`search` (chunked sampling, say) may legitimately change which draws a seed
yields.  Each check returns `(problems, units)`: a list of failure messages
and the units of work the invocation completed.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

VERIFY_BETAS = ("0", "0.3", "0.7")
SEARCH_SAMPLES = 500_000
SEARCH_LEGS = (("starlike", "0"), ("convex", "0.3"))
TABLE_RANGE = ("0", "0.99")
TABLE_STEP = 4e-4
TABLE_HEADER = "beta,family,bound,branch,critical_c,grid_max,abs_err"

BOUND_SLACK = 1e-12
REEVAL_RTOL = 1e-9
SUM_TOL = 1e-12
TABLE_ABS_ERR = 1e-8


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Callable[[int, str], tuple[list[str], int]]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    invocations: tuple[Invocation, ...]
    trace_memory: bool = False


# --- verify-suite -----------------------------------------------------------

def _check_verify(code: int, out: str) -> tuple[list[str], int]:
    lines = out.splitlines()
    problems = []
    if code != 0:
        problems.append(f"verify exited {code}")
    if not lines or lines[-1] != "result: all checks passed":
        problems.append(f"verify final line {lines[-1] if lines else ''!r}")
    headers = sum(line.startswith("family=") for line in lines)
    if headers != 2 * len(VERIFY_BETAS):
        problems.append(f"verify reported {headers} (family, beta) blocks")
    checks = sum(line.startswith(("  PASS ", "  WARN ", "  FAIL ")) for line in lines)
    return problems, checks


def verify_suite(seed: int) -> Workload:
    argv = ["verify", "--family", "both"]
    for beta in VERIFY_BETAS:
        argv += ["--beta", beta]
    argv += ["--trials", "200", "--samples", "4000", "--seed", str(seed)]
    return Workload("verify-suite", "checks", (Invocation(tuple(argv), _check_verify),))


# --- search-bulk ------------------------------------------------------------

def _sum_target(family: str, beta: float, c: float) -> float:
    """x + y imposed by the c2 + d2 relation (see `search --constrain-sum`)."""
    gap = 4.0 - c * c
    if family == "starlike":
        return 2.0 * c * c * (1.0 - 2.0 * beta) / gap
    return -2.0 * beta * c * c / gap


def _check_search(family: str, beta: float, samples: int, constrained: bool):
    def check(code: int, out: str) -> tuple[list[str], int]:
        from bihankel.functionals import FamilyId, Order
        from bihankel.optimizer import h22_from_params

        problems = []
        if code != 0:
            problems.append(f"search exited {code}")
        rec = json.loads(out)
        value, bound = rec["max_abs_h22"], rec["bound"]
        if (rec["family"], rec["beta"], rec["samples"], rec["constrain_sum"]) != (
                family, beta, samples, constrained):
            problems.append("search echoed other parameters than requested")
        if not value <= bound + BOUND_SLACK:
            problems.append(f"max_abs_h22 {value!r} above bound {bound!r}")
        if not rec["gap"] >= 0.0:
            problems.append(f"negative gap {rec['gap']!r}")
        evaluations = rec["evaluations"]
        if not constrained and evaluations != samples:
            problems.append(f"{evaluations} evaluations for {samples} samples")
        if constrained and not 0 < evaluations <= samples:
            problems.append(f"{evaluations} evaluations for {samples} samples")
        arg = rec["argmax"]
        c = arg["c"]
        x, y, z, w = (complex(*arg[k]) for k in ("x", "y", "z", "w"))
        again = abs(h22_from_params(FamilyId(family), Order(beta), c, x, y, z, w))
        if not abs(again - value) <= REEVAL_RTOL * abs(value):
            problems.append(f"argmax re-evaluates to {again!r}, reported {value!r}")
        if constrained:
            if not abs(y) <= 1.0:
                problems.append(f"constrained argmax has |y| = {abs(y)!r} > 1")
            miss = abs(x + y - _sum_target(family, beta, c))
            if not miss <= SUM_TOL:
                problems.append(f"x + y misses the sum relation by {miss!r}")
        return problems, samples

    return check


def search_bulk(seed: int) -> Workload:
    invocations = []
    for family, beta in SEARCH_LEGS:
        for constrained in (False, True):
            argv = ["search", "--family", family, "--beta", beta,
                    "--samples", str(SEARCH_SAMPLES), "--seed", str(seed)]
            if constrained:
                argv.append("--constrain-sum")
            check = _check_search(family, float(beta), SEARCH_SAMPLES, constrained)
            invocations.append(Invocation(tuple(argv), check))
    return Workload("search-bulk", "samples", tuple(invocations), trace_memory=True)


# --- table-sweep ------------------------------------------------------------

def _check_table(lo: float, hi: float, step: float):
    per_family = int((hi - lo) / step + 1e-9) + 1

    def check(code: int, out: str) -> tuple[list[str], int]:
        problems = []
        if code != 0:
            problems.append(f"table exited {code}")
        lines = out.splitlines()
        if not lines or lines[0] != TABLE_HEADER:
            problems.append("table header differs from the fixed CSV schema")
            return problems, 0
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) != 2 * per_family:
            problems.append(f"{len(rows)} rows, expected {2 * per_family}")
        worst = max((float(r["abs_err"]) for r in rows), default=0.0)
        if not worst <= TABLE_ABS_ERR:
            problems.append(f"abs_err {worst!r} above {TABLE_ABS_ERR}")
        at_zero = {r["family"]: float(r["bound"]) for r in rows if float(r["beta"]) == 0.0}
        for family, expected in (("starlike", 20.0 / 3.0), ("convex", 1.0 / 3.0)):
            got = at_zero.get(family)
            if got is None or not abs(got - expected) <= 1e-12 * expected:
                problems.append(f"{family} bound at beta=0 is {got!r}, expected {expected!r}")
        return problems, len(rows)

    return check


def table_sweep(seed: int) -> Workload:
    # The seed perturbs the step by under 1e-4 of itself: the grid points
    # (and so the output) change with the seed, the row count does not.
    step = TABLE_STEP * (1.0 + 1e-4 * (0.5 + 0.5 * random.Random(seed).random()))
    lo, hi = TABLE_RANGE
    argv = ("table", "--family", "both", "--beta-range", lo, hi, "--step", repr(step))
    return Workload("table-sweep", "rows",
                    (Invocation(argv, _check_table(float(lo), float(hi), step)),))


WORKLOADS = {
    "verify-suite": verify_suite,
    "search-bulk": search_bulk,
    "table-sweep": table_sweep,
}
