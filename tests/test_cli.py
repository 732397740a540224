import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihankel import bounds as bd
from bihankel import caratheodory as car
from bihankel import cli
from bihankel import functionals
from bihankel import optimizer as opt
from bihankel import verification
from bihankel.cli import main
from bihankel.errors import DomainError
from bihankel.functionals import FamilyId, series_residual


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_starlike_beta0_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "starlike", "--beta", "0",
            "--trials", "25", "--samples", "500",
        )
        assert code == 0
        assert "bound=6.666666666666667" in out
        assert "grid_max_matches_bound" in out
        assert "FAIL" not in out

    def test_convex_beta0_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "convex", "--beta", "0",
            "--trials", "25", "--samples", "500",
        )
        assert code == 0
        assert "bound=0.3333333333333333" in out

    def test_out_of_domain_beta_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--beta", "1.0")
        assert code == 2
        assert "beta" in err

    def test_every_check_is_a_hard_check(self, capsys):
        # no check only warns, so there is no flag to escalate warnings
        code, out, _ = run_cli(
            capsys, "verify", "--family", "both", "--beta", "0.3",
            "--trials", "10", "--samples", "200",
        )
        assert code == 0
        statuses = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
        assert statuses == {"PASS"}
        assert out.count("PASS growth_inequality ") == out.count("PASS growth_factorization ") == 2
        assert main(["verify", "--strict"]) == 2

    def test_default_betas(self, capsys):
        # with no --beta each family is checked at beta = 0, 0.3 and 0.7
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        headers = [line.split()[:2] for line in out.splitlines() if line.startswith("family=")]
        assert headers == [[f"family={family}", f"beta={beta}"]
                           for family in ("starlike", "convex") for beta in ("0.0", "0.3", "0.7")]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, _ = run_cli(
            capsys, "verify", "--family", "convex", "--beta", "0",
            "--trials", "5", "--samples", "100", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        assert "all checks passed" in path.read_text()

    def test_multi_pair_run_matches_single_pair_runs(self, capsys):
        common = ("--trials", "20", "--samples", "200", "--seed", "3")
        code, out, _ = run_cli(
            capsys, "verify", "--family", "both", "--beta", "0", "--beta", "0.7",
            *common,
        )
        assert code == 0
        blocks = []
        for family in ("starlike", "convex"):
            for beta in ("0", "0.7"):
                code_1, out_1, _ = run_cli(
                    capsys, "verify", "--family", family, "--beta", beta, *common
                )
                assert code_1 == 0
                lines = out_1.splitlines()
                assert lines[-1] == "result: all checks passed"
                blocks.extend(lines[:-1])
        assert out.splitlines() == blocks + ["result: all checks passed"]


class TestTable:
    def test_csv_schema_and_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "starlike",
            "--beta-range", "0", "0.9", "--step", "0.1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "beta,family,bound,branch,critical_c,grid_max,abs_err"
        assert len(lines) == 11  # header + 10 rows
        first = lines[1].split(",")
        assert first[0] == "0.0"
        assert first[1] == "starlike"
        assert first[2] == "6.666666666666667"
        assert first[3] == "BOUNDARY_C2"

    def test_single_point_range_convex(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "convex",
            "--beta-range", "0", "0", "--step", "0.1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].split(",")[2] == "0.3333333333333333"

    def test_json_field_names(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "both",
            "--beta-range", "0", "0.2", "--step", "0.1", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 6
        assert list(rows[0].keys()) == [
            "beta", "family", "bound", "branch", "critical_c", "grid_max", "abs_err",
        ]

    @pytest.mark.parametrize("family", ["starlike", "both"])
    def test_csv_and_json_rows_share_the_column_schema(self, capsys, family):
        argv = ("table", "--family", family, "--beta-range", "0.2", "0.6", "--step", "0.05")
        _, csv_out, _ = run_cli(capsys, *argv)
        _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        header, *lines = csv_out.splitlines()
        rows = json.loads(json_out)
        assert header.split(",") == list(cli.TABLE_COLUMNS)
        assert len(lines) == len(rows) == 9 * (2 if family == "both" else 1)
        for line, row in zip(lines, rows):
            assert list(row) == list(cli.TABLE_COLUMNS)
            assert line.split(",") == [v if isinstance(v, str) else repr(v) for v in row.values()]

    def test_bad_step_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "table", "--step", "0")
        assert code == 2
        assert "step" in err

    def test_range_outside_domain(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--beta-range", "0.5", "1.0")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--step", "nan"),
            ("--step", "inf"),
            ("--beta-range", "nan", "0.5"),
            ("--beta-range", "0", "nan"),
            ("--beta-range", "0", "inf"),
        ],
    )
    def test_non_finite_input_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "table", *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "step,lo,hi", [("1e-12", "0", "0.9"), ("5e-324", "0", "0.9"), ("9e-7", "0", "0.9")]
    )
    def test_too_many_rows_is_usage_error(self, capsys, step, lo, hi):
        code, out, err = run_cli(capsys, "table", "--step", step, "--beta-range", lo, hi)
        assert code == 2
        assert out == ""
        assert "rows per family" in err

    def test_row_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TABLE_ROWS", 10)
        argv = ("table", "--family", "convex", "--step", "0.1", "--beta-range", "0")
        code, out, _ = run_cli(capsys, *argv, "0.9")
        assert code == 0
        assert len(out.splitlines()) == 1 + 10
        code, _, err = run_cli(capsys, *argv, "0.9", "--step", "0.09")
        assert code == 2
        assert "rows per family" in err

    def test_benchmark_sized_sweep_is_far_below_the_cap(self):
        assert len(cli._beta_grid(0.0, 0.99, 4e-4)) == 2476
        assert 100 * 2476 < cli.MAX_TABLE_ROWS


def table_rows(capsys, *argv):
    code, out, err = run_cli(capsys, "table", *argv)
    assert code == 0 and err == ""
    return [line.split(",") for line in out.strip().split("\n")[1:]]


def cli_stdout(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    return out


class TestTableRowBlocks:
    """`table` scans its rows in blocks; the output is the per-row scan's."""

    SWEEP = ("--family", "starlike", "--beta-range", "0.2", "0.6", "--step", "0.0037")

    def test_grid_max_equals_one_scan_per_row(self, capsys):
        rows = table_rows(capsys, *self.SWEEP)
        assert len(rows) == 109 and len(rows) % opt.QUARTIC_BLOCK_ROWS != 0
        for beta, family, *_, grid_max, _ in rows:
            profile = bd.quartic_profile(FamilyId(family), float(beta))
            assert grid_max == repr(opt.maximize_1d(profile.value, (0.0, 2.0)).max_value)

    @pytest.mark.parametrize("lo,hi,step,extra,rows", [
        ("0", "0.16", "0.01", ("--family", "both"), 17),
        ("0.2", "0.6", "0.0037", ("--family", "starlike"), 109),
        ("0", "0.99", "0.01", ("--format", "json"), 100),
    ])
    def test_stdout_byte_identical_across_block_sizes(self, capsys, monkeypatch, lo, hi, step,
                                                      extra, rows):
        # one row per call, blocks that do and do not divide the rows, one call
        assert len(cli._beta_grid(float(lo), float(hi), float(step))) == rows
        argv = ("table", "--beta-range", lo, hi, "--step", step, *extra)
        outputs = set()
        for block in (1, 7, 16, rows + 1):
            monkeypatch.setattr(opt, "QUARTIC_BLOCK_ROWS", block)
            outputs.add(cli_stdout(capsys, *argv))
        assert len(outputs) == 1

    @pytest.mark.parametrize("block", [1, 3, 32, 1000])
    def test_output_independent_of_block_size(self, capsys, monkeypatch, block):
        argv = ("--family", "both", "--beta-range", "0", "0.99", "--step", "0.013")
        default = table_rows(capsys, *argv)
        monkeypatch.setattr(opt, "QUARTIC_BLOCK_ROWS", block)
        assert table_rows(capsys, *argv) == default

    def test_single_row_table(self, capsys):
        rows = table_rows(capsys, "--family", "convex", "--beta-range", "0.5", "0.5",
                          "--step", "0.1")
        assert len(rows) == 1
        scan = opt.maximize_1d(bd.quartic_profile(FamilyId.CONVEX, 0.5).value, (0.0, 2.0))
        assert rows[0][:2] == ["0.5", "convex"] and rows[0][5] == repr(scan.max_value)

    def test_grid_maxima_are_python_floats(self):
        columns = cli._table_columns(FamilyId.STARLIKE, [0.0, 0.3, 0.6])
        maxima = columns[cli.TABLE_COLUMNS.index("grid_max")]
        assert [type(m) for m in maxima] == [float, float, float]

    def test_json_grid_max_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "json", "--beta-range", "0", "0.99",
                               "--step", "0.01")
        assert code == 0
        for row in json.loads(out):
            profile = bd.quartic_profile(FamilyId(row["family"]), row["beta"])
            assert row["grid_max"] == opt.maximize_1d(profile.value, (0.0, 2.0)).max_value


class TestBetaGrid:
    """`table` validates its grid in `_beta_grid`."""

    @pytest.mark.parametrize(
        "lo,hi,step,message",
        [
            (0.0, 0.9, math.nan, "step and beta range must be finite, got step nan, range [0.0, 0.9]"),
            (math.nan, 0.5, 0.1, "step and beta range must be finite, got step 0.1, range [nan, 0.5]"),
            (0.0, math.inf, 0.1, "step and beta range must be finite"),
            (0.0, 0.9, 0.0, "step must be > 0, got 0.0"),
            (0.0, 0.9, -0.1, "step must be > 0, got -0.1"),
            (0.6, 0.5, 0.1, "empty beta range [0.6, 0.5]"),
            (0.0, 1.0, 0.1, "beta range [0.0, 1.0] not inside [0, 1)"),
            (-0.1, 0.5, 0.1, "beta range [-0.1, 0.5] not inside [0, 1)"),
            (0.0, 0.9, 1e-12, "step 1e-12 gives more than 1000000 rows per family"),
        ],
    )
    def test_domain_errors(self, lo, hi, step, message):
        with pytest.raises(DomainError) as info:
            cli._beta_grid(lo, hi, step)
        assert str(info.value).startswith(message)

    def test_slack_may_pass_hi_but_not_reach_one(self):
        # the table-sweep grid ends one ulp past hi; the second grid's slack
        # carries a fourth beta past hi to 1.0000000001566667
        assert cli._beta_grid(0.0, 0.99, 4e-4)[-1] == 0.9900000000000001
        assert len(cli._beta_grid(0.0, 0.99999999999, 0.33333333338555554)) == 3

    def test_table_drops_a_generated_beta_at_one(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--family", "starlike",
            "--beta-range", "0", "0.99999999999", "--step", "0.33333333338555554",
        )
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[0] for row in rows] == ["0.0", "0.33333333338555554", "0.6666666667711111"]


class TestSearch:
    def test_gap_nonnegative_and_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--family", "starlike", "--beta", "0",
            "--samples", "5000", "--seed", "7",
        )
        assert code == 0
        record = json.loads(out)
        assert record["gap"] >= 0
        assert record["seed"] == 7
        assert record["evaluations"] == 5000

    def test_zero_samples_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "search", "--family", "starlike", "--samples", "0"
        )
        assert code == 2

    def test_byte_identical_reruns(self, capsys):
        args = (
            "search", "--family", "convex", "--beta", "0.25",
            "--samples", "2000", "--seed", "3",
        )
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    @pytest.mark.parametrize("block", [0, 1, 2])
    def test_a_nan_value_exits_one(self, capsys, monkeypatch, block):
        # three blocks of 4 draws; the NaN goes into row 1 of one of them
        true_batch, calls = opt.h22_batch, []

        def one_nan_block(*args):
            out = true_batch(*args)
            calls.append(None)
            if len(calls) - 1 == block:
                out[1] = math.nan
            return out

        monkeypatch.setattr(car, "SAMPLE_CHUNK", 4)
        monkeypatch.setattr(opt, "h22_batch", one_nan_block)
        code, out, _ = run_cli(capsys, "search", "--family", "starlike", "--samples", "12")
        assert code == 1 and len(calls) == 3
        record = json.loads(out)
        assert math.isnan(record["max_abs_h22"]) and record["evaluations"] == 12

    def test_constrained_experiment_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--family", "convex", "--beta", "0",
            "--samples", "2000", "--seed", "3", "--constrain-sum",
        )
        assert code == 0
        assert json.loads(out)["constrain_sum"] is True


class TestDerive:
    def test_default_run(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--trials", "10")
        assert code == 0
        assert "-2.0, 5.0, -14.0" in out
        assert "PASS" in out

    def test_single_trial_reproducible(self, capsys):
        code_a, out_a, _ = run_cli(
            capsys, "derive", "--trials", "1", "--seed", "5"
        )
        code_b, out_b, _ = run_cli(
            capsys, "derive", "--trials", "1", "--seed", "5"
        )
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_invalid_trials(self, capsys):
        code, _, _ = run_cli(capsys, "derive", "--trials", "0")
        assert code == 2

    def test_reports_the_worst_of_both_families_on_one_stream(self, capsys):
        rng = np.random.default_rng(7)
        worst = max(series_residual(family, rng, 25)
                    for family in (FamilyId.STARLIKE, FamilyId.CONVEX))
        code, out, _ = run_cli(capsys, "derive", "--trials", "25", "--seed", "7")
        assert code == 0
        assert "trials=25 per family, seed=7\n" in out
        assert f"max residual: {worst!r}\n" in out


    def test_a_nan_residual_of_one_family_fails(self, capsys, monkeypatch):
        true_residual = functionals.series_residual

        def nan_for_convex(family, rng, trials):
            worst = true_residual(family, rng, trials)
            return math.nan if family is FamilyId.CONVEX else worst

        monkeypatch.setattr(functionals, "series_residual", nan_for_convex)
        code, out, _ = run_cli(capsys, "derive", "--trials", "5")
        assert code == 1
        assert "max residual: nan\nFAIL" in out

    @pytest.mark.parametrize("block", [0, 2, 5])
    def test_a_nan_in_one_block_fails(self, capsys, monkeypatch, block):
        # three blocks of 4 draws per family, starlike first; the NaN goes
        # into one residual of one block
        true_residuals, calls = functionals._system_residuals, []

        def one_nan_block(family, a2, a3, a4):
            func_f, func_g, residuals = true_residuals(family, a2, a3, a4)
            calls.append(None)
            if len(calls) - 1 == block:
                residuals = (np.full_like(residuals[0], math.nan),) + residuals[1:]
            return func_f, func_g, residuals

        monkeypatch.setattr(car, "SAMPLE_CHUNK", 4)
        monkeypatch.setattr(functionals, "_system_residuals", one_nan_block)
        code, out, _ = run_cli(capsys, "derive", "--trials", "12")
        assert code == 1 and len(calls) == 6
        assert "max residual: nan\nFAIL" in out


class TestFsBound:
    @pytest.mark.parametrize(
        "family,beta,mu,expected",
        [
            ("starlike", "0", "1", "1.0"),
            ("convex", "0", "1", "0.3333333333333333"),
            ("starlike", "0", "3", "4.0"),
            ("starlike", "0", "2", "2.0"),
            ("convex", "0", "1e308", "1e+308"),
            ("convex", "0", "-2e0", "3.0"),
        ],
    )
    def test_values(self, capsys, family, beta, mu, expected):
        code, out, _ = run_cli(
            capsys, "fs-bound", "--family", family, "--beta", beta, "--mu", mu
        )
        assert code == 0
        assert out.strip() == expected

    def test_invalid_beta(self, capsys):
        code, _, _ = run_cli(
            capsys, "fs-bound", "--family", "convex", "--beta", "1.5", "--mu", "1"
        )
        assert code == 2

    @pytest.mark.parametrize("mu", ["nan", "inf", "-inf"])
    def test_non_finite_mu_is_usage_error(self, capsys, mu):
        code, out, err = run_cli(
            capsys, "fs-bound", "--family", "starlike", f"--mu={mu}"
        )
        assert code == 2
        assert out == ""
        assert "mu" in err

    @pytest.mark.parametrize("mu", ["1e308", "-1e308"])
    def test_overflowing_bound_is_usage_error(self, capsys, mu):
        code, out, err = run_cli(
            capsys, "fs-bound", "--family", "starlike", "--beta", "0", f"--mu={mu}"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: Fekete-Szego bound overflows at mu={float(mu)!r}\n"


# (argv before the option, option, number of values) for every float option
FLOAT_OPTIONS = [
    (("verify",), "--beta", 1),
    (("table",), "--beta-range", 2),
    (("table",), "--step", 1),
    (("search", "--family", "starlike"), "--beta", 1),
    (("search", "--family", "starlike"), "--boundary-fraction", 1),
    (("fs-bound", "--family", "convex", "--mu", "1"), "--beta", 1),
    (("fs-bound", "--family", "convex"), "--mu", 1),
]


class TestNegativeFloats:
    """A negative float is an option's value in every spelling, not a flag."""

    @settings(max_examples=100, deadline=None)
    @given(case=st.sampled_from(FLOAT_OPTIONS),
           value=st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
           spell=st.sampled_from([repr, "%e".__mod__, "%E".__mod__]))
    def test_value_is_parsed(self, case, value, spell):
        argv, flag, nargs = case
        text = spell(value)
        args = cli.build_parser().parse_args([*argv, flag, *[text] * nargs])
        parsed = getattr(args, flag[2:].replace("-", "_"))
        values = parsed if isinstance(parsed, list) else [parsed]
        assert values == [float(text)] * nargs

    @pytest.mark.parametrize("text", ["-inf", "-Infinity", "-nan"])
    def test_non_finite_spellings_reach_validation(self, capsys, text):
        code, out, err = run_cli(capsys, "fs-bound", "--family", "convex", "--mu", text)
        assert code == 2
        assert out == ""
        assert err.startswith("error: mu must be finite")


# (argv before the count, flag, cap attribute) for every capped count
CAPPED = [
    (("search", "--family", "starlike"), "--samples", "MAX_SEARCH_SAMPLES"),
    (("verify", "--family", "convex"), "--samples", "MAX_VERIFY_SAMPLES"),
    (("verify", "--family", "convex"), "--trials", "MAX_TRIALS"),
    (("derive",), "--trials", "MAX_TRIALS"),
]


class TestCountCaps:
    """Over-cap counts exit 2 before any work; only that path runs at full size."""

    @pytest.mark.parametrize("argv,flag,cap", CAPPED)
    def test_first_value_over_the_cap_is_usage_error(self, capsys, argv, flag, cap):
        limit = getattr(cli, cap)
        code, out, err = run_cli(capsys, *argv, flag, str(limit + 1))
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be <= {limit}, got {limit + 1}\n"

    @settings(max_examples=25, deadline=None)
    @given(case=st.sampled_from(CAPPED), excess=st.integers(1, 10**30))
    def test_any_value_over_the_cap_is_usage_error(self, case, excess):
        argv, flag, cap = case
        value = getattr(cli, cap) + excess
        with redirect_stderr(io.StringIO()) as err:
            assert main([*argv, flag, str(value)]) == 2
        assert err.getvalue().endswith(f"got {value}\n")

    @pytest.mark.parametrize("argv,flag,cap", CAPPED)
    def test_caps_are_inclusive(self, capsys, monkeypatch, argv, flag, cap):
        monkeypatch.setattr(cli, cap, 3)
        extra = ("--trials", "2", "--samples", "2") if argv[0] == "verify" else ()
        assert run_cli(capsys, *argv, *extra, flag, "3")[0] == 0
        assert run_cli(capsys, *argv, *extra, flag, "4")[0] == 2

    def test_caps_are_the_documented_values(self):
        assert cli.MAX_SEARCH_SAMPLES == 10**8
        assert cli.MAX_VERIFY_SAMPLES == 10**6
        assert cli.MAX_TRIALS == 10**5


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        assert main(["table", "--nonsense"]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_command_exits_2(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")])
    def test_help_goes_to_stdout_and_exits_0(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: bihankel ")


class TestDispatch:
    """Each subparser names its handler; `main` calls it and keeps no list."""

    @pytest.mark.parametrize("argv,handler", [
        (("verify",), cli.cmd_verify),
        (("table",), cli.cmd_table),
        (("search", "--family", "starlike"), cli.cmd_search),
        (("derive",), cli.cmd_derive),
        (("fs-bound", "--family", "convex", "--mu", "1"), cli.cmd_fs_bound),
    ])
    def test_each_subcommand_names_its_handler(self, argv, handler):
        args = cli.build_parser().parse_args(list(argv))
        assert (args.command, args.handler) == (argv[0], handler)


class TestSearchErrorOrder:
    """`check_search_args` checks the seed after the other arguments and
    before `--output` is looked at."""

    def test_fraction_is_reported_before_the_seed(self, capsys):
        code, out, err = run_cli(capsys, "search", "--family", "starlike",
                                 "--boundary-fraction", "1.5", "--seed", "-1")
        assert (code, out, err) == (2, "", "error: boundary fraction must lie in [0, 1]\n")

    def test_seed_is_reported_before_the_output(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "search", "--family", "starlike", "--seed", "-1",
                                 "--output", str(path))
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")
        assert list(tmp_path.iterdir()) == []


class TestUnwritableOutput:
    """An --output path that cannot be written is a usage error, not a failed check."""

    @pytest.mark.parametrize("argv", [
        ("table",),
        ("search", "--family", "starlike", "--samples", "10"),
        ("verify", "--family", "convex", "--trials", "2", "--samples", "5"),
    ])
    def test_missing_directory_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {path}: No such file or directory\n"
        assert not path.parent.exists()

    def test_directory_as_output_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "table", "--output", str(tmp_path))
        assert code == 2
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"

    # each command's work function; an unwritable --output must stop the run
    # before it is reached
    WORK = {
        "table": (opt, "quartic_grid_max"),
        "search": (opt, "empirical_max_h22"),
        "verify": (verification, "run_checks"),
    }
    COMMANDS = [
        ("table",),
        ("search", "--family", "starlike", "--samples", "10"),
        ("verify", "--family", "convex", "--trials", "2", "--samples", "5"),
    ]

    @pytest.mark.parametrize("target,reason", [
        ("missing/out.txt", "No such file or directory"),
        (".", "Is a directory"),
        ("", "No such file or directory"),
        ("/dev/null/out.txt", "Not a directory"),
    ])
    @pytest.mark.parametrize("argv", COMMANDS)
    def test_rejected_before_any_work(self, capsys, monkeypatch, tmp_path, argv, target, reason):
        def never(*args, **kwargs):
            raise AssertionError("work started before the --output check")

        monkeypatch.setattr(*self.WORK[argv[0]], never)
        path = str(tmp_path / target) if target else ""
        code, out, err = run_cli(capsys, *argv, "--output", path)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: {reason}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [
        ("fs-bound", "--family", "starlike", "--mu", "2"),
        ("derive", "--trials", "5"),
        *COMMANDS,
        ("--help",),
        ("verify", "--help"),
    ])
    def test_full_stdout_exits_2(self, argv, unbuffered):
        # a failed write to stdout is a write error like any other, whether
        # it surfaces in the write or in the flush
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "bihankel.cli", *argv], stdout=full,
                                  stderr=subprocess.PIPE, env=env, check=False)
        assert (proc.returncode, proc.stderr) == \
            (2, b"error: cannot write <stdout>: No space left on device\n")

    @pytest.mark.parametrize("argv", [
        ("table", "--step", "nan"),
        ("search", "--family", "starlike", "--samples", "0", "--beta", "3"),
        ("search", "--family", "starlike", "--seed", "-1", "--samples", "10"),
        ("verify", "--beta", "1.5"),
        ("verify", "--seed", "-1"),
        ("verify", "--trials", "0"),
        ("verify", "--samples", "0"),
    ])
    def test_usage_errors_come_first_and_touch_nothing(self, capsys, tmp_path, argv):
        existing = tmp_path / "kept.txt"
        existing.write_text("kept\n")
        usage = run_cli(capsys, *argv)
        assert usage[:2] == (2, "") and "cannot write" not in usage[2]
        for path in (existing, tmp_path / "missing" / "out.txt"):
            assert run_cli(capsys, *argv, "--output", str(path)) == usage
        assert existing.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt"]

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_file_as_parent_is_rejected_before_any_work(self, capsys, monkeypatch, tmp_path,
                                                        argv):
        def never(*args, **kwargs):
            raise AssertionError("work started before the --output check")

        monkeypatch.setattr(*self.WORK[argv[0]], never)
        parent = tmp_path / "file"
        parent.write_text("")
        path = parent / "out.csv"
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: Not a directory\n"
        assert parent.read_text() == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", COMMANDS)
    def test_other_errors_are_reported_at_write_time(self, capsys, monkeypatch, argv):
        # /dev/full passes the early check, so the work runs and the write of
        # its report fails, with the same message format
        module, name = self.WORK[argv[0]]
        work, calls = getattr(module, name), []

        def counted(*args, **kwargs):
            calls.append(1)
            return work(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        code, out, err = run_cli(capsys, *argv, "--output", "/dev/full")
        assert (code, out) == (2, "")
        assert err == "error: cannot write /dev/full: No space left on device\n"
        assert calls

    def test_writable_output_is_written(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table", "--beta-range", "0", "0.1", "--output", str(path))
        assert (code, out) == (0, "")
        assert path.read_text() == cli_stdout(capsys, "table", "--beta-range", "0", "0.1")


class TestValidationMessages:
    """Validation lives in the library; the CLI reports it as a usage error."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("verify", "--beta", "0", "--beta", "nan"), "beta must lie in [0, 1), got nan"),
            (("verify", "--beta", "2", "--trials", "0"), "beta must lie in [0, 1), got 2.0"),
            (("verify", "--trials", "0"), "trials and samples must be >= 1"),
            (("verify", "--samples", "0"), "trials and samples must be >= 1"),
            (("search", "--family", "starlike", "--boundary-fraction", "nan"),
             "boundary fraction must lie in [0, 1]"),
            (("search", "--family", "starlike", "--boundary-fraction", "1.5"),
             "boundary fraction must lie in [0, 1]"),
            (("search", "--family", "starlike", "--boundary-fraction=-0.5"),
             "boundary fraction must lie in [0, 1]"),
            (("search", "--family", "starlike", "--samples", "0", "--beta", "3"),
             "samples must be >= 1, got 0"),
            (("search", "--family", "starlike", "--beta", "1"), "beta must lie in [0, 1), got 1.0"),
            (("derive", "--trials", "0"), "trials must be >= 1, got 0"),
            (("search", "--family", "starlike", "--seed", "-1", "--samples", "10"),
             "seed must be >= 0, got -1"),
            (("verify", "--seed", "-2", "--trials", "2", "--samples", "5"),
             "seed must be >= 0, got -2"),
            (("verify", "--seed", "-1", "--trials", "2", "--samples", "5"),
             "seed must be >= 0, got -1"),
            (("derive", "--seed", "-1", "--trials", "2"), "seed must be >= 0, got -1"),
            (("fs-bound", "--family", "starlike", "--beta", "1", "--mu", "1"),
             "beta must lie in [0, 1), got 1.0"),
            (("table", "--step", "nan"),
             "step and beta range must be finite, got step nan, range [0.0, 0.9]"),
            (("table", "--beta-range", "0", "1"), "beta range [0.0, 1.0] not inside [0, 1)"),
            (("table", "--step", "-1"), "step must be > 0, got -1.0"),
            (("table", "--beta-range", "0.5", "0.4"), "empty beta range [0.5, 0.4]"),
            (("verify", "--beta", "-1e-3"), "beta must lie in [0, 1), got -0.001"),
            (("table", "--beta-range", "-1E-1", "0.5"), "beta range [-0.1, 0.5] not inside [0, 1)"),
            (("table", "--step", "-5e-2"), "step must be > 0, got -0.05"),
        ],
    )
    def test_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


def load_benchmark_workloads():
    """`perfbench/workloads.py`, loaded by path, read only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TestBenchmarkContract:
    """The benchmark's property checks accept real output of this package.

    They import from the package (the search check re-evaluates each argmax
    with `h22_from_params`), so a deletion that breaks them fails here.
    """

    workloads = load_benchmark_workloads()

    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("leg", workloads.SEARCH_LEGS)
    def test_search_legs(self, capsys, leg, constrained):
        family, beta = leg
        samples = 20_000
        argv = ["search", "--family", family, "--beta", beta,
                "--samples", str(samples), "--seed", "3"]
        if constrained:
            argv.append("--constrain-sum")
        code, out, _ = run_cli(capsys, *argv)
        check = self.workloads._check_search(family, float(beta), samples, constrained)
        assert check(code, out) == ([], samples)

    def test_verify_suite(self, capsys):
        invocation, = self.workloads.verify_suite(0).invocations
        code, out, _ = run_cli(capsys, *invocation.argv)
        problems, checks = invocation.check(code, out)
        assert problems == []
        assert checks == out.count("  PASS ") > 0
