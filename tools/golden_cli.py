"""Fingerprint the CLI on a fixed set of golden commands.

For each command this prints one line: the exit code, the sha256 of stdout,
the sha256 of stderr and the command itself.  A refactor that must not change
behaviour is checked by running the script on the old and the new tree and
diffing the two outputs:

    python tools/golden_cli.py --root OLD_CHECKOUT > old.txt
    python tools/golden_cli.py > new.txt
    diff old.txt new.txt

The last commands ask for counts over the CLI caps and must exit 2; pass
`--skip-over-cap` to both runs when the old checkout predates the caps.

Each command runs as `python -m bihankel.cli` in a fresh interpreter with
`<root>/src` on PYTHONPATH; `--root` defaults to the checkout holding this
script.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

COMMANDS = (
    "verify --family both --beta 0 --beta 0.3 --beta 0.7 --trials 200 --samples 4000 --seed 0",
    "verify",
    "verify --family convex --beta 0.95 --beta 0.5 --seed 11 --trials 30 --samples 300",
    # block edges of the streamed spot checks: one sample past a block (of
    # 2^12 and of 2^14 samples), and a single sample
    "verify --family starlike --beta 0.3 --samples 4097 --trials 1 --seed 3",
    "verify --family starlike --beta 0.3 --samples 16385 --trials 1 --seed 3",
    "verify --family convex --beta 0 --samples 1 --trials 1",
    # exactly one Herglotz block (SAMPLE_CHUNK // MAX_ATOMS = 682 measures)
    # and one measure past it
    "verify --family convex --beta 0 --samples 682 --trials 1",
    "verify --family convex --beta 0 --samples 683 --trials 1",
    # the 1-d and 3-d scan values at the starlike thresholds (the quartic's
    # c^4 coefficient changes sign near 0.2229, the peak reaches c = 2 near
    # 0.5405) and near the end of the convex range
    "verify --family starlike --beta 0.2228 --beta 0.5404 --beta 0.5405 --trials 2 --samples 10",
    "verify --family convex --beta 0.99 --trials 2 --samples 10",
    # the 3-d scan's corner-line certificate: the flat c = 2 slice, the
    # starlike switch from the corner to an interior c, and betas at the
    # ends of the range
    "verify --family both --beta 0.2094 --beta 0.9999999 --trials 2 --samples 10",
    "verify --family starlike --beta 0 --beta 5e-324 --trials 2 --samples 10",
    "derive",
    "derive --trials 80 --seed 5",
    # the batched series oracle over a larger stream shared by six blocks
    "derive --trials 1000 --seed 2",
    "table",
    "table --family both --beta-range 0 0.99 --step 4e-4",
    "table --format json --step 0.05",
    # row-block edges of the table scan: one row, a row count that is not a
    # block multiple across both starlike thresholds, JSON floats
    "table --family convex --beta-range 0.5 0.5 --step 0.1",
    "table --family starlike --beta-range 0.2 0.6 --step 0.0037",
    "table --format json --beta-range 0 0.99 --step 0.01",
    # row counts one past a 16-row and a 256-row block
    "table --family both --beta-range 0 0.16 --step 0.01",
    "table --family convex --beta-range 0 0.256 --step 0.001",
    # dense betas around the starlike thresholds: the sign change of the
    # quartic's c^4 coefficient (~0.222876), a band just above it, and the
    # split where the peak reaches c = 2 (~0.540478)
    "table --family starlike --beta-range 0.2223 0.2235 --step 1e-6",
    "table --family starlike --beta-range 0.2350 0.2362 --step 1e-6",
    "table --family starlike --beta-range 0.5400 0.5410 --step 1e-6",
    # the grid's slack carries the last generated beta past the range end
    # to 1, which is dropped
    "table --family starlike --beta-range 0 0.99999999999 --step 0.33333333338555554",
    "search --family starlike --seed 7",
    "search --family starlike --beta 0 --samples 500000 --seed 3",
    "search --family convex --beta 0.3 --samples 500000 --seed 3 --constrain-sum",
    "search --family convex --beta 0.3 --samples 1000 --boundary-fraction 1.0",
    "search --family convex --beta 0.3 --samples 1000 --boundary-fraction 0",
    # chunk edges of the streaming search: one sample past a chunk (of 2^12
    # and of 2^14 samples), and a boundary prefix (21000 of 70000 samples)
    # that ends inside a chunk
    "search --family starlike --samples 4097 --seed 2",
    "search --family starlike --samples 16385 --seed 2",
    "search --family convex --beta 0.3 --samples 70000 --boundary-fraction 0.3 --seed 4",
    "fs-bound --family convex --beta 0 --mu 1",
    "fs-bound --family starlike --beta 0.2 --mu -2",
    # a negative float in exponent form is a value, not a flag
    "fs-bound --family convex --beta 0 --mu -2e0",
    # each join of the Fekete-Szego pieces, one ulp inside and one outside
    # it, and a mu beyond each join
    "fs-bound --family starlike --beta 0.3 --mu 0.1",
    "fs-bound --family starlike --beta 0.3 --mu 0.49999999999999994",
    "fs-bound --family starlike --beta 0.3 --mu 0.5",
    "fs-bound --family starlike --beta 0.3 --mu 0.5000000000000001",
    "fs-bound --family starlike --beta 0.3 --mu 1.4999999999999998",
    "fs-bound --family starlike --beta 0.3 --mu 1.5",
    "fs-bound --family starlike --beta 0.3 --mu 1.5000000000000002",
    "fs-bound --family starlike --beta 0.3 --mu 2.5",
    "fs-bound --family convex --beta 0.3 --mu 0.1",
    "fs-bound --family convex --beta 0.3 --mu 0.6666666666666665",
    "fs-bound --family convex --beta 0.3 --mu 0.6666666666666666",
    "fs-bound --family convex --beta 0.3 --mu 0.6666666666666667",
    "fs-bound --family convex --beta 0.3 --mu 1.333333333333333",
    "fs-bound --family convex --beta 0.3 --mu 1.3333333333333333",
    "fs-bound --family convex --beta 0.3 --mu 1.3333333333333335",
    "fs-bound --family convex --beta 0.3 --mu 2.5",
    # help text, which argparse prints outside the command handlers
    "--help",
    "verify --help",
    "search --help",
    # usage and domain errors (exit 2)
    "verify --beta 1.5",
    "verify --beta 0 --beta nan",
    "verify --beta -1e-3",
    "verify --beta 2 --trials 0",
    "verify --trials 0",
    "search --family starlike --beta 1 --samples 10",
    "search --family starlike --samples 0 --beta 3",
    "search --family starlike --boundary-fraction 1.5",
    "search --family starlike --boundary-fraction nan",
    "search --family starlike --seed -1 --samples 10",
    "verify --seed -2 --trials 2 --samples 5",
    "derive --trials -3",
    "derive --seed -1 --trials 2",
    "derive --trials 0",
    "fs-bound --family starlike --beta 1 --mu 1",
    "fs-bound --family starlike --beta 0 --mu nan",
    "fs-bound --family starlike --beta 0 --mu 1e308",
    "table --step nan",
    "table --beta-range 0 1",
    "table --output /nonexistent/dir/x.csv",
    "table --output .",
    "search --family starlike --samples 10 --output /nonexistent/dir/x.json",
    "verify --family convex --trials 2 --samples 5 --output /nonexistent/dir/x.txt",
    # a parent that exists but is not a directory
    "table --output /dev/null/x.csv",
    "verify --family convex --trials 2 --samples 5 --output /dev/null/x.txt",
    # an empty --output names no file (exit 2)
    'search --family starlike --samples 10 --output ""',
    'verify --family convex --trials 2 --samples 5 --output ""',
    'table --output ""',
)
# counts over their caps (exit 2 before any work).  A checkout without the
# caps would start runs of minutes to hours and of gigabytes on these, so
# compare such a tree with `--skip-over-cap`.
OVER_CAP_COMMANDS = (
    "search --family starlike --samples 1000000000",
    "verify --samples 2000000",
    "verify --trials 200000",
    "derive --trials 200000",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--skip-over-cap", action="store_true",
                        help="leave out the commands whose counts exceed the CLI caps")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(args.root.resolve() / "src"))
    for command in COMMANDS + (() if args.skip_over_cap else OVER_CAP_COMMANDS):
        proc = subprocess.run(
            [sys.executable, "-m", "bihankel.cli", *shlex.split(command)],
            capture_output=True, env=env, check=False,
        )
        print(f"{proc.returncode} {_sha(proc.stdout)} {_sha(proc.stderr)} {command}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
