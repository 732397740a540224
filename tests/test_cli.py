import json

import pytest

from bihankel import cli
from bihankel.cli import main


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

    def test_strict_flag_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "starlike", "--beta", "0.3",
            "--strict", "--trials", "10", "--samples", "200",
        )
        assert code == 0
        assert "WARN" not in out

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


class TestFsBound:
    @pytest.mark.parametrize(
        "family,beta,mu,expected",
        [
            ("starlike", "0", "1", "1.0"),
            ("convex", "0", "1", "0.3333333333333333"),
            ("starlike", "0", "3", "4.0"),
            ("starlike", "0", "2", "2.0"),
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


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        assert main(["table", "--nonsense"]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_command_exits_2(self, capsys):
        assert main([]) == 2


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
            (("derive", "--beta", "2", "--trials", "0"), "beta must lie in [0, 1), got 2.0"),
            (("derive", "--trials", "0"), "trials must be >= 1, got 0"),
            (("fs-bound", "--family", "starlike", "--beta", "1", "--mu", "1"),
             "beta must lie in [0, 1), got 1.0"),
        ],
    )
    def test_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
