"""A/B timing of fresh CLI commands: a base checkout against this one.

Each command runs as `python -m bihankel.cli ARGS` in a fresh interpreter,
once with the base checkout's `src` on PYTHONPATH and once with this
checkout's, in pairs whose first side alternates, one child at a time.  Per
side and command it prints the median wall time, CPU time (user + system)
and peak RSS, the last two read from `os.wait4`, the quartile spread of the
wall times, and how many pairs the change won on each metric (ties count
for neither side):

    python tools/ab_cli.py --base OLD_CHECKOUT --pairs 21
    python tools/ab_cli.py --base OLD_CHECKOUT "table --family both"

The default commands are one per benchmark workload.  PYTHONDONTWRITEBYTECODE
is dropped from the children's environment and a warm-up pass runs every
command on both sides first, so both import from bytecode.  stdout goes to
/dev/null and stderr is passed through; a command that exits non-zero stops
the run.  The script imports only the standard library: a child's
`ru_maxrss` can count pages it shared with this process at spawn, so this
process stays far below a CLI child's peak.
"""

from __future__ import annotations

import argparse
import os
import shlex
import statistics
import sys
import time
from pathlib import Path

THIS_ROOT = Path(__file__).resolve().parents[1]

# verify-suite, one of search-bulk's four searches, and table-sweep
COMMANDS = (
    "verify --family both --beta 0 --beta 0.3 --beta 0.7 --trials 200 --samples 4000 --seed 0",
    "search --family starlike --beta 0 --samples 500000 --seed 0",
    "table --family both --beta-range 0 0.99 --step 0.0004",
)
METRICS = ("wall_s", "cpu_s", "rss_mb")


def run_once(root: Path, argv: list[str], env: dict) -> tuple[float, float, float]:
    """(wall seconds, CPU seconds, peak RSS in MB) of one fresh CLI run from `root`."""
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "bihankel.cli", *argv],
                         dict(env, PYTHONPATH=str(root / "src")),
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"exit code {code} from {root}: {shlex.join(argv)}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0  # kB on Linux


def compare(base: Path, argv: list[str], pairs: int, env: dict) -> dict:
    """Runs of each side, {"base": [...], "change": [...]}, over alternating pairs."""
    sides = {"base": base, "change": THIS_ROOT}
    for root in sides.values():  # warm-up: bytecode written, file cache filled
        run_once(root, argv, env)
    runs = {side: [] for side in sides}
    for i in range(pairs):
        for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
            runs[side].append(run_once(sides[side], argv, env))
    return runs


def report(command: str, runs: dict) -> None:
    print(command)
    print(f"  {'side':<7}" + "".join(f"{m:>10}" for m in METRICS) + f"{'wall_iqr':>10}")
    for side, values in runs.items():
        medians = [statistics.median(v[k] for v in values) for k in range(len(METRICS))]
        q1, _, q3 = statistics.quantiles([v[0] for v in values], n=4)
        print(f"  {side:<7}" + "".join(f"{m:>10.4f}" for m in medians) + f"{q3 - q1:>10.4f}")
    pairs = list(zip(runs["base"], runs["change"]))
    wins = (f"{sum(c[k] < b[k] for b, c in pairs)}/{len(pairs)} {m}"
            for k, m in enumerate(METRICS))
    print(f"  change won {', '.join(wins)}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout whose src/ is the base side")
    parser.add_argument("--pairs", type=int, default=21, help="alternating pairs per command")
    parser.add_argument("commands", nargs="*", default=COMMANDS,
                        help="CLI arguments, one quoted string per command")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    for command in args.commands:
        report(command, compare(args.base.resolve(), shlex.split(command), args.pairs, env))
    return 0


if __name__ == "__main__":
    sys.exit(main())
