"""README's numbers, regenerated and compared with the text.

The ratio table comes from the README's own `search` loop, run through
`cli.main`; the observed 3.99995 against 20/3 and the beta = 0 bounds 20/3
and 1/3 come from the same runs.  Each number is read out of README.md, so
a change that moves one of them fails here until the README is rerun.
"""

import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from bihankel.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# the README as one line, so a sentence matches across its line breaks
TEXT = " ".join(README.split())
FAMILIES = ("starlike", "convex")
BETAS = ("0", "0.3", "0.6", "0.9")
LOOP = ("for f in starlike convex; do for b in 0 0.3 0.6 0.9; do\n"
        "  bihankel search --family $f --beta $b --samples 100000 --seed 0 |")


@pytest.fixture(scope="module")
def records():
    """The loop's `search` record per (family, beta)."""
    out = {}
    for family in FAMILIES:
        for beta in BETAS:
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = main(["search", "--family", family, "--beta", beta,
                             "--samples", "100000", "--seed", "0"])
            assert code == 0
            out[family, beta] = json.loads(stdout.getvalue())
    return out


def test_the_readme_runs_this_loop():
    assert LOOP in README
    assert 'round(r["max_abs_h22"] / r["bound"], 3)' in README


def test_ratio_table(records):
    header = re.search(r"^\| family +\| beta = 0 +\|(.*)\|$", README, re.M)
    assert [cell.strip() for cell in header.group(1).split("|")] == list(BETAS[1:])
    for family in FAMILIES:
        row = re.search(rf"^\| {family} +\|((?: *[0-9.]+ *\|)+)$", README, re.M)
        printed = [cell.strip() for cell in row.group(1).split("|")[:-1]]
        ratios = [records[family, beta]["max_abs_h22"] / records[family, beta]["bound"]
                  for beta in BETAS]
        assert [f"{round(r, 3):.3f}" for r in ratios] == printed


def test_observed_maximum_against_the_bound(records):
    match = re.search(r"e\.g\. ([0-9.]+) observed against the bound (\d+)/(\d+) "
                      r"for starlike at `beta = 0`", TEXT)
    record = records["starlike", "0"]
    assert f"{record['max_abs_h22']:.6g}" == match.group(1)
    assert record["bound"] == pytest.approx(int(match.group(2)) / int(match.group(3)),
                                            rel=1e-15)


def test_bounds_at_beta_zero(records):
    match = re.search(r"At `beta = 0` these evaluate to `(\d+)/(\d+)` and `(\d+)/(\d+)`", TEXT)
    p1, q1, p2, q2 = (int(v) for v in match.groups())
    assert records["starlike", "0"]["bound"] == pytest.approx(p1 / q1, rel=1e-15)
    assert records["convex", "0"]["bound"] == pytest.approx(p2 / q2, rel=1e-15)
