"""Command-line interface: verification reports, bound tables, searches.

Exit-code contract: 0 means every requested check passed, 1 means a
mathematical check failed, 2 means a usage or domain error.  All numbers
are serialized with shortest round-trip precision (`repr`), so identical
flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import errno
import importlib.util
import json
import math
import os
import re
import stat
import sys
import types

# Two process settings, made only when the CLI is imported before numpy, so a
# library import or a process that has loaded numpy already is left as it is;
# the CLI loads numpy itself only once a command runs (see `_lazy`).  The
# package makes no BLAS call, and OpenBLAS starts one spinning worker per
# extra core at `import numpy`; a thread count the caller set still wins.
# `numpy.random` imports `secrets`, whose `hmac` maps OpenSSL's libcrypto
# (3.3 MB of RSS) through `_hashlib`, which no code here calls; a None entry
# makes `hashlib` and `hmac` fall back to CPython's built-in digests, as in a
# build without OpenSSL, and `secrets` still reads `os.urandom`.  A process
# that has loaded `_hashlib` already keeps it.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.modules.setdefault("_hashlib", None)

from .errors import BihankelError, DomainError


def _lazy(name: str) -> types.ModuleType:
    """The package's module `name`, run at its first attribute access.

    Until then it is registered in `sys.modules` and on the package but not
    executed, so the numeric modules, and numpy with them, load only when a
    command's handler first uses them; `--help` and usage errors never do.
    A module something has imported already is returned as it is.
    """
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[full]


bd = _lazy("bounds")
car = _lazy("caratheodory")
fn = _lazy("functionals")
opt = _lazy("optimizer")
ts = _lazy("series")
verification = _lazy("verification")

DERIVE_TOL = 1e-10
# per family; keeps a tiny --step from building an unbounded table
MAX_TABLE_ROWS = 10**6
# the table's columns: the CSV header and the JSON keys of each row
TABLE_COLUMNS = ("beta", "family", "bound", "branch", "critical_c", "grid_max", "abs_err")
# caps on requested work.  `search`, the sampled spot checks of `verify` and
# the series oracle of `verify` and `derive` all stream, so their memory
# stays flat and the caps bound run time (10^8 search samples take about
# 18 s on a 2-vCPU Xeon, and `verify` at the --samples cap about 2 s).
MAX_SEARCH_SAMPLES = 10**8
MAX_VERIFY_SAMPLES = 10**6
MAX_TRIALS = 10**5


def _fmt(x: float) -> str:
    return repr(float(x))


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _families(name: str) -> list[fn.FamilyId]:
    if name == "both":
        return list(fn.FamilyId)
    return [fn.FamilyId(name)]


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _check_cap(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise DomainError(f"{flag} must be <= {cap}, got {value}")


def _cannot_write(path: str, exc: OSError) -> BihankelError:
    return BihankelError(f"cannot write {path}: {exc.strerror or exc}")


def _check_output(path: str | None) -> None:
    """Reject, before any work, an --output that is empty or a directory, or
    whose parent is missing or not a directory; creates nothing.  Other write
    errors surface in `_emit`, with the same message."""
    if path is None:
        return
    try:
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def _emit(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout (flushed) for None."""
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        if path is None:
            # the text stays buffered: its flush at exit goes to devnull, not exit 120
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise _cannot_write("<stdout>" if path is None else path, exc) from None


class _Parser(argparse.ArgumentParser):
    """Reads any negative float after an option as its value, not as a flag.

    argparse takes `-2.0` for a value but `-2e0` or `-inf` for an unknown
    flag; widening its negative-number pattern fixes every float option of
    every subcommand (subparsers are built with the parser's class).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE)

    def _print_message(self, message, file=None):
        # argparse swallows write errors; help for stdout fails as any report does
        if file is sys.stdout:
            _emit(message, None)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bihankel",
        description=(
            "Closed-form second-Hankel-determinant bounds for bi-starlike "
            "and bi-convex functions of order beta, with independent "
            "numerical verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--family", choices=["starlike", "convex", "both"],
                          default="both")
    p_verify.add_argument("--beta", type=float, action="append",
                          help="order parameter, repeatable (default 0, 0.3 and 0.7)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=100,
                          help="random draws for the series-identity check")
    p_verify.add_argument("--samples", type=int, default=2000,
                          help="samples for the coefficient-bound spot checks")
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(handler=cmd_verify)

    p_table = sub.add_parser("table", help="tabulate the bounds over beta")
    p_table.add_argument("--family", choices=["starlike", "convex", "both"],
                         default="both")
    p_table.add_argument("--beta-range", type=float, nargs=2, default=[0.0, 0.9],
                         metavar=("LO", "HI"))
    p_table.add_argument("--step", type=float, default=0.1)
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.add_argument("--output", default=None)
    p_table.set_defaults(handler=cmd_table)

    p_search = sub.add_parser("search", help="empirical coefficient search")
    p_search.add_argument("--family", choices=["starlike", "convex"],
                          required=True)
    p_search.add_argument("--beta", type=float, default=0.0)
    p_search.add_argument("--samples", type=int, default=100000)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--boundary-fraction", type=float, default=0.25)
    p_search.add_argument("--constrain-sum", action="store_true",
                          help="experiment: impose the dropped c2+d2 relation")
    p_search.add_argument("--output", default=None)
    p_search.set_defaults(handler=cmd_search)

    p_derive = sub.add_parser("derive", help="series-oracle residual report")
    p_derive.add_argument("--trials", type=int, default=300,
                          help="random draws per family for the series oracle")
    p_derive.add_argument("--seed", type=int, default=0)
    p_derive.set_defaults(handler=cmd_derive)

    p_fs = sub.add_parser("fs-bound", help="Fekete-Szego bound for (family, beta, mu)")
    p_fs.add_argument("--family", choices=["starlike", "convex"], required=True)
    p_fs.add_argument("--beta", type=float, default=0.0)
    p_fs.add_argument("--mu", type=float, required=True)
    p_fs.set_defaults(handler=cmd_fs_bound)

    return parser


def cmd_verify(args) -> int:
    betas = [fn.check_beta(b) for b in args.beta or [0.0, 0.3, 0.7]]
    _check_cap("--samples", args.samples, MAX_VERIFY_SAMPLES)
    _check_cap("--trials", args.trials, MAX_TRIALS)
    verification.check_run_args(args.seed, args.trials, args.samples)
    _check_output(args.output)

    # the beta-independent spot checks are shared by every pair of this run
    verification.clear_spot_check_cache()
    lines = []
    ok = True
    for family in _families(args.family):
        for beta in betas:
            result = bd.h22_bound(family, beta)
            lines.append(
                f"family={family.value} beta={_fmt(beta)} "
                f"bound={_fmt(result.bound)} branch={result.branch.value} "
                f"critical_c={_fmt(result.critical_c)}"
            )
            checks = verification.run_checks(
                family, beta, seed=args.seed, trials=args.trials,
                spot_samples=args.samples,
            )
            for check in checks:
                status = "PASS" if check.passed else "FAIL"
                lines.append(
                    f"  {status} {check.name} value={_fmt(check.value)} "
                    f"tol={_fmt(check.tolerance)}"
                )
            ok = ok and verification.all_passed(checks)
    lines.append("result: " + ("all checks passed" if ok else "checks FAILED"))
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok else 1


def _beta_grid(lo: float, hi: float, step: float) -> list[float]:
    """The table's betas: lo, lo + step, ... up to hi (with 1e-9 slack) and below 1."""
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise DomainError(
            f"step and beta range must be finite, got step {step}, "
            f"range [{lo}, {hi}]"
        )
    if step <= 0.0:
        raise DomainError(f"step must be > 0, got {step}")
    if lo > hi:
        raise DomainError(f"empty beta range [{lo}, {hi}]")
    if not (0.0 <= lo and hi < 1.0):
        raise DomainError(f"beta range [{lo}, {hi}] not inside [0, 1)")
    span = (hi - lo) / step + 1e-9
    if span >= MAX_TABLE_ROWS:
        raise DomainError(
            f"step {step} gives more than {MAX_TABLE_ROWS} rows per family"
        )
    count = int(math.floor(span)) + 1
    # the slack may carry the last beta past hi, which is kept, or up to 1
    return [beta for beta in (lo + k * step for k in range(count)) if beta < 1.0]


def _table_columns(family: fn.FamilyId, betas: list[float]) -> tuple[list, ...]:
    """One family's rows of the table, as lists in `TABLE_COLUMNS` order."""
    grid_max = opt.quartic_grid_max(bd.quartic_profile(family, betas)).max_value.tolist()
    result = bd.h22_bound(family, betas)
    bound = result.bound.tolist()
    return (betas, [family.value] * len(betas), bound,
            [branch.value for branch in result.branch], result.critical_c.tolist(),
            grid_max, [abs(g - b) for g, b in zip(grid_max, bound)])


def cmd_table(args) -> int:
    betas = _beta_grid(*args.beta_range, args.step)
    _check_output(args.output)
    tables = [_table_columns(family, betas) for family in _families(args.family)]
    if args.format == "csv":
        # the string columns are written as they are, the float ones by repr
        tables = [[col if isinstance(col[0], str) else list(map(repr, col)) for col in table]
                  for table in tables]
    # rows of the same beta are adjacent, in family order
    rows = [row for same_beta in zip(*(zip(*table) for table in tables)) for row in same_beta]
    if args.format == "csv":
        text = "\n".join([",".join(TABLE_COLUMNS)] + [",".join(row) for row in rows])
    else:
        text = json.dumps([dict(zip(TABLE_COLUMNS, row)) for row in rows], indent=2)
    _emit(text + "\n", args.output)
    return 0


def cmd_search(args) -> int:
    family = fn.FamilyId(args.family)
    _check_cap("--samples", args.samples, MAX_SEARCH_SAMPLES)
    opt.check_search_args(args.samples, args.beta, args.boundary_fraction, args.seed)
    _check_output(args.output)
    result = opt.empirical_max_h22(
        family,
        args.beta,
        args.samples,
        args.seed,
        boundary_fraction=args.boundary_fraction,
        constrain_sum=args.constrain_sum,
    )
    bound = bd.h22_bound(family, args.beta).bound
    gap = bound - result.max_value
    record = {
        "family": family.value,
        "beta": args.beta,
        "samples": args.samples,
        "seed": args.seed,
        "boundary_fraction": args.boundary_fraction,
        "constrain_sum": args.constrain_sum,
        "evaluations": result.evaluations,
        "max_abs_h22": result.max_value,
        "argmax": (
            {
                "c": result.argmax[0],
                "x": _complex_pair(result.argmax[1]),
                "y": _complex_pair(result.argmax[2]),
                "z": _complex_pair(result.argmax[3]),
                "w": _complex_pair(result.argmax[4]),
            }
            if result.argmax
            else None
        ),
        "bound": bound,
        "gap": gap,
    }
    _emit(json.dumps(record, indent=2) + "\n", args.output)
    return 0 if result.max_value <= bound + verification.DOMINANCE_SLACK else 1


def cmd_derive(args) -> int:
    import numpy as np

    _check_cap("--trials", args.trials, MAX_TRIALS)

    koebe_like = ts.TruncatedSeries.from_coeffs([0, 1, 2, 3, 4], 4)
    inverse = ts.invert_composition(koebe_like)
    inv_coeffs = ", ".join(_fmt(inverse[k].real) for k in (2, 3, 4))
    lines = [
        "inverse of z+2z^2+3z^3+4z^4: coefficients of w^2, w^3, w^4 = "
        + inv_coeffs
    ]

    rng = np.random.default_rng(car.check_seed(args.seed))
    # np.max keeps a NaN residual, which then fails the tolerance
    worst = np.max([fn.series_residual(family, rng, args.trials) for family in fn.FamilyId])
    lines.append(f"trials={args.trials} per family, seed={args.seed}")
    lines.append(f"max residual: {_fmt(worst)}")
    passed = worst <= DERIVE_TOL
    lines.append(("PASS" if passed else "FAIL") + f" (tolerance {_fmt(DERIVE_TOL)})")
    _emit("\n".join(lines) + "\n", None)
    return 0 if passed else 1


def cmd_fs_bound(args) -> int:
    value = bd.fekete_szego_bound(fn.FamilyId(args.family), args.beta, args.mu)
    _emit(_fmt(value) + "\n", None)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except BihankelError as exc:
        return _usage_error(str(exc))
    try:
        return args.handler(args)
    except BihankelError as exc:
        return _usage_error(str(exc))


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
