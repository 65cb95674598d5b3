"""Command-line interface tests: flags, output format, exit codes."""

import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import agghb
from agghb.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from agghb.libsvm import load_libsvm, parse_libsvm, to_dataset

from conftest import DAMAGED_GZIP, synthetic_libsvm_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.splitlines():
        key, _, value = line.partition("=")
        pairs.setdefault(key, []).append(value)
    return pairs


class TestHelp:
    @pytest.mark.parametrize(
        "sub", ["run", "tune", "verify", "constants", "parse-check"]
    )
    def test_subcommand_help(self, capsys, sub):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_subcommand_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err

    # Usage errors exit 1, not argparse's 2, which would read as a failed
    # verification; "-inf" parses as a flag, so "--l2 -inf" lacks its value.
    @pytest.mark.parametrize("argv", [
        ["constants", "--betas", "0.5", "--bogus", "1"],
        ["run", "--problem", "quadratic", "--betas", "0.9", "--gammas", "0.1",
         "--jobs", "1"],
        ["run", "--problem", "quadratic", "--betas", "0.9"],
        ["tune", "--problem", "logreg-l2", "--data", "x", "--l2", "-inf",
         "--betas", "0.9"],
    ], ids=["constants-bogus", "run-jobs", "run-missing-gammas", "l2-minus-inf"])
    def test_unknown_flag_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: agghb") and "error:" in err


class TestRun:
    def test_quadratic_theory_cvx_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "run", "--problem", "quadratic", "--betas", "0.9",
            "--gammas", "theory-cvx", "--iters", "200", "--out", str(out_path),
        )
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["optimizer"] == ["hb"]
        assert kv["diverged"] == ["false"]
        assert out_path.exists()
        assert out_path.with_suffix(".meta.json").exists()

    def test_explicit_gamma_broadcast(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "run", "--problem", "quadratic", "--betas", "0.5,0.9",
            "--gammas", "0.01", "--iters", "50", "--out", str(tmp_path / "t.csv"),
        )
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["optimizer"] == ["agghb"]
        assert kv["gammas"] == ["0.01,0.01"]

    def test_tune_mode_reports_sweep(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "run", "--problem", "quadratic", "--betas", "0",
            "--gammas", "tune", "--iters", "30", "--out", str(tmp_path / "t.csv"),
        )
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert len(kv["sweep"]) == 15
        assert kv["stepsize_mode"] == ["tuned"]

    @pytest.mark.parametrize("out, exc", [
        (lambda tmp: tmp, "Is a directory"),
        (lambda tmp: tmp / "file" / "t.csv", "Not a directory"),
    ], ids=["out-is-directory", "out-under-file"])
    def test_unwritable_out_is_error_not_traceback(self, capsys, tmp_path, out, exc):
        (tmp_path / "file").write_text("")
        code, stdout, err = run_cli(
            capsys, "run", "--problem", "quadratic", "--betas", "0.9",
            "--gammas", "0.1", "--iters", "5", "--out", str(out(tmp_path)),
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err.startswith("error: ") and exc in err

    def test_tuned_run_with_unwritable_out_prints_nothing(self, capsys, tmp_path):
        # the sweep is computed before the write fails, and is not printed either
        code, stdout, err = run_cli(
            capsys, "run", "--problem", "quadratic", "--betas", "0.9",
            "--gammas", "tune", "--iters", "5", "--out", str(tmp_path),
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err.startswith("error: ") and "Is a directory" in err

    def test_missing_data_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--problem", "logreg-l2", "--betas", "0.9",
            "--gammas", "0.1", "--iters", "10",
        )
        assert code == EXIT_USAGE
        assert "--data" in err

    def test_nonexistent_data_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--problem", "logreg-l2", "--betas", "0.9",
            "--gammas", "0.1", "--iters", "10", "--data",
            str(tmp_path / "missing.libsvm"),
        )
        assert code == EXIT_USAGE
        assert "not found" in err

    def test_index_beyond_int64_is_a_format_error(self, capsys, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text("1 1:1.0 99999999999999999999:2\n")
        code, _, err = run_cli(
            capsys, "run", "--problem", "logreg-l2", "--betas", "0.9",
            "--gammas", "0.1", "--iters", "10", "--data", str(path),
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: line 1: ")

    def test_unallocatable_feature_count_is_an_error(self, capsys, tmp_path):
        # the index fits int64, but no dense iterate of that length exists
        path = tmp_path / "d.libsvm"
        path.write_text("1 1:1.0 9223372036854775807:2\n-1 2:1\n")
        code, out, err = run_cli(
            capsys, "run", "--problem", "logreg-l2", "--betas", "0.9",
            "--gammas", "0.1", "--data", str(path),
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: feature count 9223372036854775807 ")
        assert not (tmp_path / "t.csv").exists()

    def test_data_flag_contradicts_quadratic(self, capsys, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text("1 1:1.0\n")
        code, _, err = run_cli(
            capsys, "run", "--problem", "quadratic", "--betas", "0.9",
            "--gammas", "0.1", "--iters", "10", "--data", str(path),
        )
        assert code == EXIT_USAGE
        assert "makes no sense" in err

    @pytest.mark.parametrize("command", ["run", "tune"])
    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_quadratic_dimension_below_one_is_an_error(self, capsys, tmp_path, command, dim):
        argv = [command, "--problem", "quadratic", "--quad-dim", dim, "--betas", "0.9",
                "--iters", "10"]
        if command == "run":
            argv += ["--gammas", "0.1", "--out", str(tmp_path / "t.csv")]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: quadratic dimension must be >= 1, got {dim}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("problem, flag, name", [
        ("logreg-l2", "--l2", "l2"), ("logreg-ncvx", "--lambda", "lambda"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_regularization_is_an_error(
        self, capsys, tmp_path, problem, flag, name, value
    ):
        path = tmp_path / "d.libsvm"
        path.write_text(synthetic_libsvm_text(M=40, n=6, seed=11))
        code, out, err = run_cli(
            capsys, "tune", "--problem", problem, "--data", str(path), flag, value,
            "--betas", "0.9", "--iters", "10",
        )
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {name} must be finite and nonnegative, got {float(value)!r}\n"

    def test_gammas_neither_mode_nor_float_list_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "quadratic", "--betas", "0.9", "--gammas", "abc",
                  "--iters", "5", "--out", str(tmp_path / "t.csv")])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: agghb run")
        assert "argument --gammas: not a comma-separated float list: 'abc'" in captured.err

    @pytest.mark.parametrize("command", ["run", "tune"])
    @pytest.mark.parametrize("seed", ["-1", "2.5", "abc", ""])
    def test_seed_not_a_nonnegative_integer_is_a_usage_error(
        self, capsys, tmp_path, command, seed
    ):
        argv = [command, "--problem", "quadratic", "--betas", "0.9", "--iters", "5",
                "--seed", seed]
        if command == "run":
            argv += ["--gammas", "0.1", "--out", str(tmp_path / "t.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"usage: agghb {command}")
        assert f"argument --seed: must be an integer >= 0, got {seed!r}" in captured.err

    def test_unallocatable_quadratic_is_an_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "run", "--problem", "quadratic", "--quad-dim", "1000000000000",
            "--betas", "0.9", "--gammas", "0.1", "--iters", "5", "--out", str(tmp_path / "t.csv"),
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: Unable to allocate ")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("problem, flag, value, message", [
        ("quadratic", "--quad-dim", "2.5", "--quad-dim must be an integer, got '2.5'"),
        ("quadratic", "--quad-dim", "true", "--quad-dim must be an integer, got 'true'"),
        ("quadratic", "--quad-dim", "", "--quad-dim must be an integer, got ''"),
        ("logreg-l2", "--n-features", "8.0", "--n-features must be an integer, got '8.0'"),
        ("logreg-l2", "--l2", "abc", "--l2 must be a number or 'auto', got 'abc'"),
        ("logreg-l2", "--l2", "'l2'", "--l2 must be a number or 'auto', got \"'l2'\""),
        ("logreg-ncvx", "--lambda", "", "--lambda must be a number or 'auto', got ''"),
        ("logreg-ncvx", "--data", "", "--data must be a non-empty string, got ''"),
    ])
    def test_problem_flag_its_parser_refuses(
        self, capsys, tmp_path, problem, flag, value, message
    ):
        data = tmp_path / "d.libsvm"
        data.write_text(synthetic_libsvm_text(M=40, n=6, seed=11))
        given = ["--data", str(data)] if problem.startswith("logreg") else []
        code, out, err = run_cli(
            capsys, "run", "--problem", problem, *given, flag, value, "--betas", "0.9",
            "--gammas", "0.1", "--iters", "5", "--out", str(tmp_path / "t.csv"),
        )
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {message}\n"

    def test_unconverged_spectral_norm_is_an_error(self, capsys, tmp_path, monkeypatch):
        data = tmp_path / "d.libsvm"
        data.write_text(synthetic_libsvm_text(M=40, n=6, seed=11))
        flags = ("--problem", "logreg-l2", "--data", str(data), "--betas", "0.9")
        trace = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, "run", *flags, "--gammas", "theory-ncvx",
                             "--iters", "5", "--out", str(trace))
        assert code == EXIT_OK
        monkeypatch.setattr(agghb.problems, "_POWER_MAX_ITERS", 1)
        for argv in (["run", *flags, "--gammas", "0.1", "--iters", "5",
                      "--out", str(tmp_path / "u.csv")],
                     ["tune", *flags, "--iters", "5"],
                     ["verify", "--trace", str(trace)]):
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_USAGE and out == "", argv
            assert err.startswith("error: the spectral norm of the features did not "
                                  "converge within 1 power iterations"), argv
        assert not (tmp_path / "u.csv").exists()

    def test_data_without_a_nonzero_feature_is_an_error(self, capsys, tmp_path):
        # L = 0 there unless the regularizer is positive; tune divided by it
        data = tmp_path / "zeros.libsvm"
        data.write_text("1 1:0\n-1 2:0\n")
        flags = ("--data", str(data), "--betas", "0.9", "--iters", "5")
        trace = tmp_path / "t.csv"
        for argv, name in (
            (["tune", "--problem", "logreg-l2", *flags], "l2"),
            (["run", "--problem", "logreg-l2", *flags, "--gammas", "tune",
              "--out", str(trace)], "l2"),
            (["tune", "--problem", "logreg-ncvx", *flags, "--lambda", "auto"], "lambda"),
            (["run", "--problem", "logreg-l2", *flags, "--gammas", "theory-cvx",
              "--out", str(trace)], "l2"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_USAGE and out == "", argv
            assert err == (f"error: the data has no nonzero feature value, so with {name} = 0 "
                           f"the objective is constant and has no positive L; give {name} > 0\n")
        assert not trace.exists()
        code, _, _ = run_cli(capsys, "run", "--problem", "logreg-l2", *flags, "--l2", "0.1",
                             "--gammas", "theory-cvx", "--out", str(trace))
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_OK and parse_kv(out)["all_passed"] == ["true"]

    def test_quadratic_theory_cvx_thousand_iterations(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, _, _ = run_cli(
            capsys, "run", "--problem", "quadratic", "--betas", "0.9",
            "--gammas", "theory-cvx", "--iters", "1000", "--out", str(out),
        )
        assert code == EXIT_OK
        assert out.exists()


# The problem flags each problem takes.
TAKES = {
    "quadratic": {"--quad-dim"},
    "rosenbrock": set(),
    "logreg-l2": {"--data", "--n-features", "--l2"},
    "logreg-ncvx": {"--data", "--n-features", "--lambda"},
}
# Each problem flag: the build_problem parameter it sets, and a value for it.
FLAGS = {"--data": ("data", None), "--n-features": ("n_features", "8"),
         "--quad-dim": ("dim", "5"), "--l2": ("l2", "5"), "--lambda": ("lambda", "5")}


def _problem_argv(tmp_path, problem, flag):
    """``run`` argv for ``problem`` with ``flag`` set, plus --data where required."""
    data = tmp_path / "d.libsvm"
    data.write_text(synthetic_libsvm_text(M=40, n=6, seed=11))
    argv = ["run", "--problem", problem, "--betas", "0.9", "--gammas", "0.1",
            "--iters", "5", "--out", str(tmp_path / "t.csv")]
    if problem.startswith("logreg") or flag == "--data":
        argv += ["--data", str(data)]
    if flag != "--data":
        argv += [flag, FLAGS[flag][1]]
    return argv


class TestProblemFlags:
    """Every problem flag is refused by a problem that does not take it."""

    @pytest.mark.parametrize("problem, flag", [
        (problem, flag) for problem, takes in TAKES.items()
        for flag in FLAGS if flag not in takes
    ])
    def test_flag_the_problem_does_not_take_is_refused(self, capsys, tmp_path, problem, flag):
        code, out, err = run_cli(capsys, *_problem_argv(tmp_path, problem, flag))
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {flag} makes no sense with problem '{problem}'\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("problem, flag", [
        (problem, flag) for problem, takes in TAKES.items() for flag in sorted(takes)
    ])
    def test_flag_the_problem_takes_is_recorded(self, capsys, tmp_path, problem, flag):
        code, _, _ = run_cli(capsys, *_problem_argv(tmp_path, problem, flag))
        assert code == EXIT_OK
        params = json.loads((tmp_path / "t.meta.json").read_text())["config"]["problem_params"]
        given = {FLAGS[flag][0]} | ({"data"} if problem.startswith("logreg") else set())
        assert set(params) == given  # only the flags given are recorded

    def test_pairs_follow_the_problem_table(self):
        table = {name: {flag for flag, (param, _) in FLAGS.items() if param in takes}
                 for name, takes in agghb.harness.PROBLEM_PARAMS.items()}
        assert table == TAKES
        assert sum(len(FLAGS) - len(t) for t in TAKES.values()) == 13  # refused pairs

    @pytest.mark.parametrize("flag, problems", [
        ("--data", "logreg-l2 (required), logreg-ncvx (required)"),
        ("--quad-dim", "quadratic (default 10)"),
        ("--l2", "logreg-l2 (default 0.0)"),
        ("--lambda", "logreg-ncvx (default 0.0)"),
    ])
    def test_help_names_the_problems(self, capsys, flag, problems):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        entry = next(e for e in text.split(" --") if e.startswith(flag[2:] + " "))
        assert entry.endswith(f"Problems: {problems}")


class TestDocumentedConfigurations:
    """The flagship experiment invocations from the README, end to end."""

    def test_rosenbrock_four_momentum_tuned(self, capsys, tmp_path):
        out = tmp_path / "ros.csv"
        code, stdout, _ = run_cli(
            capsys, "run", "--problem", "rosenbrock",
            "--betas", "0.9,0.95,0.99,0.999", "--gammas", "tune",
            "--iters", "5000", "--out", str(out),
        )
        assert code == EXIT_OK
        kv = parse_kv(stdout)
        assert kv["optimizer"] == ["agghb"]
        assert kv["stepsize_mode"] == ["tuned"]
        assert kv["diverged"] == ["false"]
        assert float(kv["final_f"][0]) < 1.0  # tuned run makes real progress

    def test_logreg_three_momentum_tuned(self, capsys, tmp_path, australian_file):
        out = tmp_path / "lr.csv"
        code, stdout, _ = run_cli(
            capsys, "run", "--problem", "logreg-l2", "--data",
            str(australian_file), "--betas", "0.9,0.95,0.99",
            "--gammas", "tune", "--out", str(out),
        )
        assert code == EXIT_OK
        kv = parse_kv(stdout)
        assert kv["optimizer"] == ["agghb"]
        assert len(kv["sweep"]) == 15
        assert out.exists()


class TestConstants:
    def test_beta_hat_value(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--betas", "0.9,0.95,0.99")
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["beta_hat"][0].startswith("0.976923")
        assert kv["beta_tilde"][0].startswith("0.98313")

    def test_condition_report_with_gammas(self, capsys):
        code, out, _ = run_cli(
            capsys, "constants", "--betas", "0.5", "--gammas", "0.1", "--L", "1",
        )
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["F"] == ["0.2"]
        assert kv["f_check"] == ["PASS"]  # 0.2 <= 1/(4L) = 0.25

    def test_failing_condition_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "constants", "--betas", "0.9", "--gammas", "1.0", "--L", "1",
        )
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["f_check"] == ["FAIL"]
        assert float(kv["f_margin"][0]) < 0

    def test_beta_one_rejected(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--betas", "1.0")
        assert code == EXIT_USAGE
        assert "outside" in err

    def test_output_stable_across_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "constants", "--betas", "0.9,0.99",
                             "--gammas", "0.01", "--L", "2.5", "--mu", "0.1")
        _, out2, _ = run_cli(capsys, "constants", "--betas", "0.9,0.99",
                             "--gammas", "0.01", "--L", "2.5", "--mu", "0.1")
        assert out1 == out2

    @pytest.mark.parametrize("flags", [
        ("--L", "inf"), ("--L", "nan"), ("--L", "0"),
        ("--mu", "nan"), ("--mu", "inf"),
        ("--gammas", "0.01", "--horizon", "-1"),
        ("--horizon", "-1"),
        ("--gammas", "0.01", "--L", "nan"),
    ], ids=["L-inf", "L-nan", "L-zero", "mu-nan", "mu-inf", "horizon-minus-one",
            "horizon-minus-one-without-gammas", "L-nan-with-gammas"])
    def test_refused_input_prints_nothing(self, capsys, flags):
        code, out, err = run_cli(capsys, "constants", "--betas", "0.9", *flags)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")


class TestLabelSets:
    """Any two label values load, the larger as +1: a 1/2-labelled file runs
    exactly as its -1/+1 twin."""

    COMMON = ("--problem", "logreg-l2", "--l2", "auto", "--betas", "0.9,0.95")

    def test_one_two_labels_run_as_their_plus_minus_one_twin(self, capsys, tmp_path):
        text = synthetic_libsvm_text(M=40, n=6, seed=11)
        twin = re.sub(r"^(-?1)\b", lambda m: {"-1": "1", "1": "2"}[m[1]], text, flags=re.M)
        assert set(parse_libsvm(twin).labels) == {1.0, 2.0}
        traces, tuned = [], []
        for name, body in (("pm", text), ("one_two", twin)):
            data, out = tmp_path / f"{name}.libsvm", tmp_path / f"{name}.csv"
            data.write_text(body)
            code, _, _ = run_cli(capsys, "run", *self.COMMON, "--data", str(data),
                                 "--gammas", "theory-cvx", "--iters", "100", "--out", str(out))
            assert code == EXIT_OK
            traces.append(out.read_bytes())
            code, report, _ = run_cli(capsys, "verify", "--trace", str(out))
            assert code == EXIT_OK and parse_kv(report)["all_passed"] == ["true"]
            code, sweep, _ = run_cli(capsys, "tune", *self.COMMON, "--data", str(data),
                                     "--iters", "50")
            assert code == EXIT_OK
            tuned.append(sweep)
        assert traces[0] == traces[1]
        assert tuned[0] == tuned[1]

    def test_three_label_values_refused_listing_them(self, capsys, tmp_path):
        data = tmp_path / "d.libsvm"
        data.write_text("1 1:1.0\n2 1:2.0\n3 2:1.0\n")
        code, out, err = run_cli(capsys, "run", *self.COMMON, "--data", str(data),
                                 "--gammas", "0.1", "--iters", "5",
                                 "--out", str(tmp_path / "t.csv"))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: label set [1.0, 2.0, 3.0] has more than two values")
        assert not (tmp_path / "t.csv").exists()


class TestVerify:
    def _write_trace(self, capsys, tmp_path, gammas="theory-ncvx", betas="0.9"):
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "run", "--problem", "quadratic", "--betas", betas,
            "--gammas", gammas, "--iters", "100", "--out", str(out_path),
        )
        assert code == EXIT_OK
        return out_path

    @staticmethod
    def _edit_meta(trace, edit):
        meta_path = trace.with_suffix(".meta.json")
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))

    def test_passing_trace_exit_zero(self, capsys, tmp_path):
        trace = self._write_trace(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["all_passed"] == ["true"]
        assert len(kv["check"]) == 2  # K = 10, 100
        assert "reference_certificate" not in kv and "reference_certified" not in kv

    def test_convex_trace_reports_certified_reference(self, capsys, tmp_path):
        data = tmp_path / "d.libsvm"
        data.write_text(synthetic_libsvm_text(M=40, n=6, seed=11))
        out_path = tmp_path / "cvx.csv"
        code, _, _ = run_cli(
            capsys, "run", "--problem", "logreg-l2", "--data", str(data),
            "--l2", "auto", "--betas", "0.9,0.95", "--gammas", "theory-cvx",
            "--iters", "100", "--out", str(out_path),
        )
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, "verify", "--trace", str(out_path))
        assert code == EXIT_OK
        keys = [line.partition("=")[0] for line in out.splitlines()]
        assert keys[:3] == ["mode", "reference_certificate", "reference_certified"]
        kv = parse_kv(out)
        assert float(kv["reference_certificate"][0]) <= 1e-10
        assert kv["reference_certified"] == ["true"]
        assert kv["all_passed"] == ["true"]

    @pytest.mark.parametrize("problem, flagged", [("rosenbrock", True), ("quadratic", False)])
    def test_local_L_estimate_flagged_after_mode(self, capsys, tmp_path, problem, flagged):
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "run", "--problem", problem, "--betas", "0.9",
            "--gammas", "theory-ncvx", "--iters", "100", "--out", str(out_path),
        )
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, "verify", "--trace", str(out_path))
        assert code == EXIT_OK
        head = ["mode=theory-ncvx"] + ["L_is_local_estimate=true"] * flagged
        lines = out.splitlines()
        assert lines[:len(head)] == head
        assert lines[len(head)].startswith("check=K=10 ")
        assert ("L_is_local_estimate" in out) == flagged

    @pytest.mark.parametrize("mode", ["theory-ncvx", "theory-cvx"])
    def test_tenfold_stepsizes_refused(self, capsys, tmp_path, mode):
        # At the theory stepsizes both traces pass; ten times larger, neither
        # configuration is one the theorem covers.
        problem = ["--problem", "quadratic"]
        if mode == "theory-cvx":
            data = tmp_path / "d.libsvm"
            data.write_text(synthetic_libsvm_text(M=40, n=6, seed=11))
            problem = ["--problem", "logreg-l2", "--data", str(data), "--l2", "auto"]
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "run", *problem, "--betas", "0.9,0.95", "--gammas", mode,
            "--iters", "100", "--out", str(out_path),
        )
        assert code == EXIT_OK
        meta_path = out_path.with_suffix(".meta.json")
        meta = json.loads(meta_path.read_text())
        meta["gammas"] = [10.0 * g for g in meta["gammas"]]
        meta_path.write_text(json.dumps(meta))
        code, out, err = run_cli(capsys, "verify", "--trace", str(out_path))
        assert code == EXIT_VERIFY
        assert out == ""
        assert err.startswith("refused: ") and "margin=" in err

    def test_refusal_names_margins_as_constants_does(self, capsys, tmp_path):
        # On the quadratic (mu = 1), a hundred times the theory stepsizes break
        # the per-buffer margins, which `constants` prints as stepsize_margin_<i>.
        trace = self._write_trace(capsys, tmp_path, gammas="theory-cvx", betas="0.9,0.95")
        self._edit_meta(trace, lambda meta: meta.update(gammas=[100 * g for g in meta["gammas"]]))
        code, out, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_VERIFY and out == ""
        assert "stepsize_margin_1=" in err and "stepsize_margin_2=" in err
        assert "stepsize_margin[" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta.update(schema=99), "has unknown schema 99"),
        (lambda meta: meta["config"]["problem_params"].update(L2=1e-3),
         "'L2' makes no sense with problem 'quadratic'"),
        (lambda meta: meta["config"].update(problem_params=None),
         "'problem_params' must be a dict, got None"),
        (lambda meta: meta["config"].update(problem_params=[]),
         "'problem_params' must be a dict, got []"),
        (lambda meta: meta["config"]["problem_params"].update(dim=2.7),
         "'dim' must be an integer, got 2.7"),
        (lambda meta: meta["config"]["problem_params"].update(dim=True),
         "'dim' must be an integer, got True"),
        (lambda meta: meta["config"]["problem_params"].update(dim=None),
         "'dim' must be an integer, got None"),
        (lambda meta: meta["config"].update(iters=2.5),
         "is malformed: 'float' object cannot be interpreted as an integer"),
        (lambda meta: meta["config"].update(seed=2.5), "seed must be an integer >= 0, got 2.5"),
        (lambda meta: meta["config"].update(seed=-1), "seed must be an integer >= 0, got -1"),
        (lambda meta: meta["config"].update(betas=[1.5]),
         "is malformed: momentum parameter 1.5 outside [0, 1)"),
        (lambda meta: meta["config"].update(betas=[-0.1]),
         "is malformed: momentum parameter -0.1 outside [0, 1)"),
        (lambda meta: meta["config"].update(betas=[math.nan]),
         "is malformed: momentum parameter nan outside [0, 1)"),
        (lambda meta: meta["config"].update(betas=[]), "is malformed: need at least one beta"),
        (lambda meta: meta.update(gammas=[True]),
         "is malformed: 'gammas' must be one finite positive number per beta, got [True]"),
        (lambda meta: meta.update(gammas=[0.01, 0.01]),
         "is malformed: 'gammas' must be one finite positive number per beta, got [0.01, 0.01]"),
        (lambda meta: meta.update(gammas=[-0.01]),
         "is malformed: 'gammas' must be one finite positive number per beta, got [-0.01]"),
        (lambda meta: meta.update(diverged="abc"),
         "is malformed: 'diverged' must be true or false, got 'abc'"),
        (lambda meta: meta.update(diverged=0),
         "is malformed: 'diverged' must be true or false, got 0"),
        (lambda meta: meta.update(max_virtual_residual="x"),
         "is malformed: 'max_virtual_residual' must be a finite number >= 0, got 'x'"),
        (lambda meta: meta.update(max_virtual_residual=False),
         "is malformed: 'max_virtual_residual' must be a finite number >= 0, got False"),
        (lambda meta: meta.update(wall_time=-1.0),
         "is malformed: 'wall_time' must be a finite number >= 0, got -1.0"),
        (lambda meta: meta.update(x0=[1.0, "a"]),
         "is malformed: 'x0' must be a list of finite numbers, got [1.0, 'a']"),
        (lambda meta: meta.update(x0=None),
         "is malformed: 'x0' must be a list of finite numbers, got None"),
        (lambda meta: meta.update(constants=[]),
         "is malformed: 'constants' must be an object, got []"),
    ], ids=["schema", "stray-problem-param", "params-null", "params-list", "dim-fraction",
            "dim-bool", "dim-null", "iters-fraction", "seed-fraction", "seed-negative",
            "beta-above-one", "beta-negative", "beta-nan", "betas-none",
            "gammas-bool", "gammas-per-beta", "gammas-negative", "diverged-text",
            "diverged-int", "residual-text", "residual-bool", "wall-time-negative",
            "x0-text", "x0-null", "constants-list"])
    def test_sidecar_it_cannot_stand_behind_exit_one(self, capsys, tmp_path, edit, message):
        trace = self._write_trace(capsys, tmp_path)
        self._edit_meta(trace, edit)
        code, out, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.rstrip().endswith(message)

    @pytest.mark.parametrize("edit, diverged, message", [
        # 899 rows that continue k after the 101 a 100-iterate run writes
        (lambda rows: rows + [f"{k},{rows[-1].split(',', 1)[1]}" for k in range(101, 1000)],
         False, "has 1000 rows, but sidecar iters=100 asks for exactly 101"),
        (lambda rows: rows[:50], False, "has 50 rows, but sidecar iters=100 asks for exactly 101"),
        (lambda rows: rows + [f"101,{rows[-1].split(',', 1)[1]}"],
         True, "has 102 rows, but sidecar iters=100 asks for at most 101"),
    ], ids=["appended", "cut", "diverged-appended"])
    def test_rows_the_sidecar_does_not_ask_for_exit_one(self, capsys, tmp_path, edit,
                                                        diverged, message):
        trace = self._write_trace(capsys, tmp_path)
        header, *rows = trace.read_text().splitlines()
        trace.write_text("\n".join([header, *edit(rows)]) + "\n")
        self._edit_meta(trace, lambda meta: meta.update(diverged=diverged))
        code, out, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: trace file ") and err.rstrip().endswith(message)

    @pytest.mark.parametrize("edit, message", [
        (lambda params: params.update(l2=None), "'l2' must be a number or 'auto', got None"),
        (lambda params: params.update(l2=True), "'l2' must be a number or 'auto', got True"),
        (lambda params: params.update(n_features="x"), "'n_features' must be an integer, got 'x'"),
        (lambda params: params.update(n_features=6.5), "'n_features' must be an integer, got 6.5"),
    ], ids=["l2-null", "l2-bool", "n-features-text", "n-features-fraction"])
    def test_problem_param_its_parser_refuses_exit_one(self, capsys, tmp_path, edit, message):
        data = tmp_path / "d.libsvm"
        data.write_text(synthetic_libsvm_text(M=40, n=6, seed=11))
        trace = tmp_path / "cvx.csv"
        code, _, _ = run_cli(
            capsys, "run", "--problem", "logreg-l2", "--data", str(data), "--l2", "auto",
            "--betas", "0.9", "--gammas", "theory-cvx", "--iters", "20", "--out", str(trace),
        )
        assert code == EXIT_OK
        self._edit_meta(trace, lambda meta: edit(meta["config"]["problem_params"]))
        code, out, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {message}\n"

    def test_problem_of_another_dimension_refused(self, capsys, tmp_path):
        # a dim-10 trace checked against the dim-2 quadratic its sidecar now names
        trace = self._write_trace(capsys, tmp_path)
        self._edit_meta(trace, lambda meta: meta["config"]["problem_params"].update(dim=2))
        code, out, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_VERIFY and out == ""
        assert err == ("refused: the trace starts at a point of shape (10,), "
                       "but problem 'quadratic' has dimension 2\n")

    def test_data_file_with_more_features_since_the_run_refused(self, capsys, tmp_path):
        data = tmp_path / "d.libsvm"
        data.write_text(synthetic_libsvm_text(M=40, n=6, seed=11))
        trace = tmp_path / "ncvx.csv"
        code, _, _ = run_cli(
            capsys, "run", "--problem", "logreg-ncvx", "--data", str(data),
            "--lambda", "auto", "--betas", "0.9", "--gammas", "theory-ncvx",
            "--iters", "20", "--out", str(trace),
        )
        assert code == EXIT_OK
        code, _, _ = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_OK
        data.write_text(data.read_text() + "1 8:0.5\n")  # a new last column
        code, out, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_VERIFY and out == ""
        assert err == ("refused: the trace starts at a point of shape (6,), "
                       "but problem 'logreg-ncvx' has dimension 8\n")

    def test_data_file_cut_since_the_run_refused(self, capsys, tmp_path):
        # Same dimension, fewer rows: the rebuilt problem's L is not the one
        # every ceiling was computed for.
        data = tmp_path / "d.libsvm"
        data.write_text(synthetic_libsvm_text(M=40, n=6, seed=11))
        trace = tmp_path / "ncvx.csv"
        code, _, _ = run_cli(
            capsys, "run", "--problem", "logreg-ncvx", "--data", str(data),
            "--lambda", "auto", "--betas", "0.9", "--gammas", "theory-ncvx",
            "--iters", "200", "--out", str(trace),
        )
        assert code == EXIT_OK
        recorded = json.loads(trace.with_suffix(".meta.json").read_text())["constants"]["L"]
        data.write_text("".join(data.read_text().splitlines(keepends=True)[:20]))
        code, out, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_VERIFY and out == ""
        assert err.startswith(f"refused: the trace records L={recorded!r}, but problem "
                              "'logreg-ncvx' has L=")

    def test_regularizer_edited_in_the_sidecar_refused(self, capsys, tmp_path):
        data = tmp_path / "d.libsvm"
        data.write_text(synthetic_libsvm_text(M=40, n=6, seed=11))
        trace = tmp_path / "cvx.csv"
        code, _, _ = run_cli(
            capsys, "run", "--problem", "logreg-l2", "--data", str(data), "--l2", "auto",
            "--betas", "0.9", "--gammas", "theory-cvx", "--iters", "20", "--out", str(trace),
        )
        assert code == EXIT_OK
        self._edit_meta(trace, lambda meta: meta["config"]["problem_params"].update(l2=0.5))
        code, out, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_VERIFY and out == ""
        assert err.startswith("refused: the trace records L=")

    def test_recorded_mu_edited_refused(self, capsys, tmp_path):
        trace = self._write_trace(capsys, tmp_path, gammas="theory-cvx")
        self._edit_meta(trace, lambda meta: meta["constants"].update(mu=0.5))
        code, out, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_VERIFY and out == ""
        assert err == "refused: the trace records mu=0.5, but problem 'quadratic' has mu=1.0\n"

    @pytest.mark.parametrize("mode, column, row", [
        ("theory-cvx", "f_avg", 5),      # one cell of a filled column blanked
        ("theory-cvx", "dist_opt", 0),   # the first cell blanked
        ("theory-ncvx", "f_avg", 7),     # one cell of an empty column filled
    ])
    def test_partly_filled_column_exit_one(self, capsys, tmp_path, mode, column, row):
        trace = self._write_trace(capsys, tmp_path, gammas=mode)
        header, *rows = trace.read_text().splitlines()
        fields = rows[row].split(",")
        at = header.split(",").index(column)
        fields[at] = "" if fields[at] else "0.5"
        rows[row] = ",".join(fields)
        trace.write_text("\n".join([header, *rows]) + "\n")
        code, out, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_USAGE and out == ""
        # the first line whose cell differs from line 2's is named
        line = 3 if row == 0 else row + 2
        assert err == f"error: line {line}: {column} is empty on some rows and filled on others\n"

    @pytest.mark.parametrize("mode", ["theory-ncvx", "theory-cvx"])
    def test_header_only_trace_exit_one(self, capsys, tmp_path, mode):
        # run always records iterate 0, so a CSV with no rows is not a trace
        trace = self._write_trace(capsys, tmp_path, gammas=mode)
        trace.write_text(trace.read_text().splitlines()[0] + "\n")
        code, out, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: trace file {trace} has a header and no rows\n"

    @pytest.mark.parametrize("problem", [
        ("--problem", "rosenbrock"),
        ("--problem", "logreg-ncvx", "--lambda", "auto"),
    ], ids=["rosenbrock", "logreg-ncvx"])
    def test_convex_mode_on_nonconvex_problem_refused(self, capsys, tmp_path, problem):
        # The convex theorem does not cover these problems, whatever their
        # stepsizes; verify refuses before it looks for a reference optimum.
        if problem[1] == "logreg-ncvx":
            data = tmp_path / "d.libsvm"
            data.write_text(synthetic_libsvm_text(M=40, n=6, seed=11))
            problem += ("--data", str(data))
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "run", *problem, "--betas", "0.9,0.95,0.99,0.999",
            "--gammas", "theory-cvx", "--iters", "10", "--out", str(out_path),
        )
        assert code == EXIT_OK
        code, out, err = run_cli(capsys, "verify", "--trace", str(out_path))
        assert code == EXIT_VERIFY
        assert out == ""
        assert err.startswith("refused: ") and f"problem '{problem[1]}' is not convex" in err

    def test_tuned_trace_exit_two(self, capsys, tmp_path):
        trace = self._write_trace(capsys, tmp_path, gammas="tune")
        code, _, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_VERIFY
        assert "tuned" in err

    def test_corrupted_csv_exit_one(self, capsys, tmp_path):
        trace = self._write_trace(capsys, tmp_path)
        lines = trace.read_text().splitlines()
        lines[3] = "oops"
        trace.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_USAGE
        assert "line 4" in err

    @pytest.mark.parametrize("corrupt, bad_line", [
        (lambda rows: ["7" + r[r.index(","):] for r in rows], "line 2: expected k=0, got k=7"),
        (lambda rows: rows[::2], "line 3: expected k=1, got k=2"),
    ], ids=["every-k-seven", "every-other-row"])
    def test_k_column_out_of_sequence_exit_one(self, capsys, tmp_path, corrupt, bad_line):
        # Each row is checked as the iterate of its position, so a k column
        # that is not 0, 1, 2, ... must not verify against the wrong rows.
        trace = self._write_trace(capsys, tmp_path)
        code, _, _ = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_OK
        header, *rows = trace.read_text().splitlines()
        trace.write_text("\n".join([header, *corrupt(rows)]) + "\n")
        code, out, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {bad_line}\n"

    def test_missing_trace_exit_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "verify", "--trace", str(tmp_path / "nope.csv")
        )
        assert code == EXIT_USAGE

    def test_missing_sidecar_exit_one(self, capsys, tmp_path):
        trace = self._write_trace(capsys, tmp_path)
        trace.with_suffix(".meta.json").unlink()
        code, _, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_USAGE
        assert "sidecar" in err

    @pytest.mark.parametrize("drop, key", [
        (lambda meta: meta.pop("gammas"), "gammas"),
        (lambda meta: meta["config"].pop("problem"), "problem"),
    ], ids=["gammas", "config.problem"])
    def test_sidecar_missing_key_exit_one(self, capsys, tmp_path, drop, key):
        trace = self._write_trace(capsys, tmp_path)
        meta_path = trace.with_suffix(".meta.json")
        meta = json.loads(meta_path.read_text())
        drop(meta)
        meta_path.write_text(json.dumps(meta))
        code, _, err = run_cli(capsys, "verify", "--trace", str(trace))
        assert code == EXIT_USAGE
        # the path holds the test's id, so only the message's end names the key
        assert err.startswith("error: metadata sidecar") and err.rstrip().endswith(f"'{key}'")


class TestTuneCommand:
    def test_prints_best(self, capsys):
        code, out, _ = run_cli(
            capsys, "tune", "--problem", "quadratic", "--betas", "0",
            "--iters", "20",
        )
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert len(kv["sweep"]) == 15
        assert "best_gamma" in kv

    def test_run_tune_mode_prints_the_same_sweep(self, capsys, tmp_path):
        args = ("--problem", "quadratic", "--betas", "0.9,0.5", "--iters", "40")
        code_tune, out_tune, _ = run_cli(capsys, "tune", *args)
        code_run, out_run, _ = run_cli(
            capsys, "run", *args, "--gammas", "tune", "--out", str(tmp_path / "t.csv"),
        )
        assert code_tune == code_run == EXIT_OK
        sweep = parse_kv(out_tune)["sweep"]
        assert len(sweep) == 15 and all(" gamma=" in line for line in sweep)
        assert parse_kv(out_run)["sweep"] == sweep

    def test_sweep_lines_end_with_the_divergence_iterate(self, capsys):
        code, out, _ = run_cli(capsys, "tune", "--problem", "quadratic", "--betas", "0.9,0.5",
                               "--iters", "200")
        assert code == EXIT_OK
        h = agghb.harness
        _, sweep = h.tune(h.RunConfig(problem="quadratic", betas=(0.9, 0.5), stepsize_mode="tune",
                                      iters=200), h.build_problem("quadratic", {}))
        assert any(e.diverged for e in sweep) and not all(e.diverged for e in sweep)
        assert parse_kv(out)["sweep"] == [
            f"a={e.a!r} gamma={e.gamma!r} final_f={e.final_f!r} "
            f"diverged={str(e.diverged).lower()} "
            f"diverged_at={'none' if e.diverged_at is None else e.diverged_at} "
            f"above_start={str(e.above_start).lower()}"
            for e in sweep]


class TestModuleEntryPoint:
    @staticmethod
    def _python(*argv):
        """A fresh interpreter that finds this package, run on ``argv``."""
        src = str(Path(agghb.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              env=env, timeout=120)

    def test_python_dash_m_runs_the_cli(self):
        done = self._python("-m", "agghb", "constants", "--betas", "0.9")
        assert done.returncode == EXIT_OK, done.stderr
        kv = parse_kv(done.stdout)
        assert kv["m"] == ["1"] and kv["beta_hat"] == ["0.9"]

    def test_cli_import_leaves_out_scipy_special(self, tmp_path):
        # Every command starts with this import.  Nothing in the package needs
        # scipy.special, and only data wider than the dense cutoff (64
        # columns) needs scipy.sparse: one interpreter runs each command in
        # turn and reports the scipy modules loaded after it.
        data = {}
        for n in (14, 65):
            data[n] = tmp_path / f"n{n}.libsvm"
            data[n].write_text(synthetic_libsvm_text(M=60, n=n, seed=3))
        run = ["run", "--betas", "0.9,0.99", "--iters", "100"]
        logreg = ["--problem", "logreg-l2", "--l2", "auto", "--gammas", "theory-cvx"]
        commands = [
            ["constants", "--betas", "0.9,0.99"],
            [*run, "--problem", "quadratic", "--gammas", "theory-cvx",
             "--out", str(tmp_path / "quad.csv")],
            [*run, "--problem", "rosenbrock", "--gammas", "theory-ncvx",
             "--out", str(tmp_path / "rosenbrock.csv")],
            [*run, *logreg, "--data", str(data[14]), "--out", str(tmp_path / "t14.csv")],
            ["verify", "--trace", str(tmp_path / "t14.csv")],
            [*run, *logreg, "--data", str(data[65]), "--out", str(tmp_path / "t65.csv")],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "import agghb.cli\n"
            "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(json.dumps([0, scipy()]))\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = agghb.cli.main(argv)\n"
            "    print(json.dumps([code, scipy()]))\n"
        )
        done = self._python("-c", script, json.dumps(commands))
        assert done.returncode == 0, done.stderr
        after = [json.loads(line) for line in done.stdout.splitlines()]
        assert after[:-1] == [[EXIT_OK, []]] * len(commands)
        code, loaded = after[-1]
        assert code == EXIT_OK and "scipy.sparse" in loaded


class TestParseCheck:
    def test_reports_shape(self, capsys, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text(synthetic_libsvm_text(M=25, n=7, seed=5))
        code, out, _ = run_cli(capsys, "parse-check", "--data", str(path))
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["records"] == ["25"]
        assert kv["n_features"] == ["7"]

    def test_byte_order_mark_skipped(self, capsys, tmp_path):
        path = tmp_path / "bom.libsvm"
        path.write_bytes(b"\xef\xbb\xbf+1 1:0.5\n-1 1:1\n")
        code, out, _ = run_cli(capsys, "parse-check", "--data", str(path))
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["records"] == ["2"]
        assert kv["labels"] == ["-1:1 1:1"]

    def test_malformed_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("1 1:1.0\n1 2:zap\n")
        code, _, err = run_cli(capsys, "parse-check", "--data", str(path))
        assert code == EXIT_USAGE
        assert "line 2" in err

    @pytest.mark.parametrize("kind", DAMAGED_GZIP)
    def test_damaged_gzip_is_an_error(self, capsys, tmp_path, kind):
        path = tmp_path / "bad.libsvm.gz"
        path.write_bytes(DAMAGED_GZIP[kind])
        code, out, err = run_cli(capsys, "parse-check", "--data", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    def test_n_features_override(self, capsys, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text("1 1:1.0\n-1 2:2.0\n")
        code, out, _ = run_cli(
            capsys, "parse-check", "--data", str(path), "--n-features", "6"
        )
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["n_features"] == ["6"]
        assert kv["n_inferred"] == ["2"]

    def test_n_features_refusal_is_to_datasets(self, capsys, tmp_path):
        # parse-check, run and tune apply the one rule of agghb.libsvm, with its message
        path = tmp_path / "d.libsvm"
        path.write_text("1 5:1.0\n-1 2:1.0\n")
        with pytest.raises(ValueError) as refused:
            to_dataset(load_libsvm(path), n_features=3)
        run_argv = ["run", "--problem", "logreg-l2", "--betas", "0.9", "--gammas", "0.1",
                    "--out", str(tmp_path / "t.csv")]
        tune_argv = ["tune", "--problem", "logreg-l2", "--betas", "0.9", "--iters", "5"]
        for argv in (["parse-check"], run_argv, tune_argv):
            code, out, err = run_cli(capsys, *argv, "--data", str(path), "--n-features", "3")
            assert code == EXIT_USAGE and out == ""
            assert err == f"error: {refused.value}\n"

    @pytest.mark.parametrize("value", ["abc", "2.5"])
    @pytest.mark.parametrize("command", ["parse-check", "run", "tune"])
    def test_n_features_its_parser_refuses(self, capsys, tmp_path, command, value):
        # one reader of the flag's text, naming the flag, for every command
        path = tmp_path / "d.libsvm"
        path.write_text("1 5:1.0\n-1 2:1.0\n")
        argv = {
            "parse-check": ["parse-check"],
            "run": ["run", "--problem", "logreg-l2", "--betas", "0.9", "--gammas", "0.1",
                    "--out", str(tmp_path / "t.csv")],
            "tune": ["tune", "--problem", "logreg-l2", "--betas", "0.9", "--iters", "5"],
        }[command]
        code, out, err = run_cli(capsys, *argv, "--data", str(path), "--n-features", value)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: --n-features must be an integer, got {value!r}\n"

    def test_n_features_override_too_small(self, capsys, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text("1 5:1.0\n")
        code, _, err = run_cli(
            capsys, "parse-check", "--data", str(path), "--n-features", "3"
        )
        assert code == EXIT_USAGE
        assert "below" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "parse-check", "--data", str(tmp_path / "ghost")
        )
        assert code == EXIT_USAGE


class TestMetadataContents:
    def test_sidecar_json_carries_config_and_constants(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        run_cli(
            capsys, "run", "--problem", "quadratic", "--betas", "0.9,0.95",
            "--gammas", "theory-ncvx", "--iters", "50", "--out", str(out_path),
        )
        meta = json.loads(out_path.with_suffix(".meta.json").read_text())
        assert meta["config"]["betas"] == [0.9, 0.95]
        assert meta["config"]["stepsize_mode"] == "theory-ncvx"
        assert meta["config"]["problem_params"] == {}  # no problem flag was given
        assert "F" in meta["constants"]
        assert len(meta["x0"]) == 10


# The property tests below draw each flag's value from this alphabet or from
# the flag's usable values, so that runs get going too: at nominal odds, a
# problem flag's from the alphabet one time in three, any other's one in eight.
ALPHABET = ("nan", "inf", "-0", "", "auto", "abc", "2.5", "true", "-1", "0",
            str(10 ** 12), str(10 ** 30))
_PROBLEM_FLAG_VALUES = {
    "--problem": [*TAKES], "--data": ["<data>", "<zeros>"], "--n-features": ["6", "8"],
    "--quad-dim": [],  # from the alphabet only
    "--l2": ["auto", "1e-3"], "--lambda": ["auto", "1e-3"],
    "--betas": ["0.9", "0.5,0.9"], "--iters": ["1", "5"], "--seed": ["0"],
}
USABLE = {
    "run": {**_PROBLEM_FLAG_VALUES, "--gammas": ["theory-ncvx", "theory-cvx", "tune", "0.01"]},
    "tune": _PROBLEM_FLAG_VALUES,
    "verify": {"--trace": ["<trace>"]},
    "constants": {"--betas": ["0.9", "0.5,0.9"], "--gammas": ["0.01"], "--L": ["1", "4"],
                  "--mu": ["0", "0.1"], "--horizon": ["10"]},
    "parse-check": {"--data": ["<data>", "<zeros>"], "--n-features": ["6", "8"]},
}
_ALPHABET_FOR = {"--iters": ALPHABET[:-2]}  # at most 5 iterations


@st.composite
def cli_argv(draw):
    """A subcommand and its flags, each given seven times in eight at nominal
    odds, except that a problem flag the drawn problem does not take is given
    once in eight.  ``<data>``, ``<zeros>``, ``<trace>`` and ``<out>`` stand for the
    files of the ``fuzz_files`` fixture; ``run`` always writes to ``<out>``."""
    command = draw(st.sampled_from(sorted(USABLE)))
    argv = [command] + (["--out", "<out>"] if command == "run" else [])
    takes = None
    for flag, usable in USABLE[command].items():
        stray = takes is not None and flag in FLAGS and flag not in takes
        if (draw(st.integers(0, 7)) == 7) == stray:
            odds = 3 if flag in FLAGS else 8
            own = usable and draw(st.integers(1, odds)) < odds
            alphabet = _ALPHABET_FOR.get(flag, ALPHABET)
            argv += [flag, draw(st.sampled_from(usable if own else alphabet))]
            if flag == "--problem":
                takes = TAKES.get(argv[-1], set())
    return argv


# (section, key) of a sidecar field, and the JSON values it may be set to.
SIDECAR_FIELDS = (
    *(("config", key) for key in ("problem", "optimizer", "betas", "stepsize_mode",
                                  "gammas", "iters", "seed", "problem_params")),
    *(("problem_params", key) for key in ("data", "n_features", "l2", "lambda", "dim")),
)
SIDECAR_VALUES = (None, [1], True, False, "abc", "", "auto", "1e-3", 2.5, 8.0, 0, -1, 8, {})


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A tiny LIBSVM file, one real logreg-l2 theory-cvx trace of it, and a
    file with no nonzero feature value."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "d.libsvm"
    data.write_text(synthetic_libsvm_text(M=20, n=6, seed=3))
    zeros = root / "zeros.libsvm"
    zeros.write_text("1 1:0\n-1 2:0\n")
    trace = root / "real.csv"
    code, _, _ = _outcome(["run", "--problem", "logreg-l2", "--data", str(data),
                           "--n-features", "6", "--l2", "auto", "--betas", "0.9,0.95",
                           "--gammas", "theory-cvx", "--iters", "5", "--out", str(trace)])
    assert code == EXIT_OK
    return {"<data>": str(data), "<zeros>": str(zeros), "<trace>": str(trace),
            "<out>": str(root / "out.csv"),
            "meta": json.loads(trace.with_suffix(".meta.json").read_text())}


def _outcome(argv):
    """``main``'s exit code, stdout and stderr; any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, out, err):
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY), (code, err)
    assert "Traceback" not in err
    if code == EXIT_USAGE:
        assert out == "" and err.startswith(("error: ", "usage: agghb")), (out, err)
    if code == EXIT_VERIFY:
        assert err.startswith("refused: ") or out.endswith("all_passed=false\n"), (out, err)


class TestNoInputEndsInATraceback:
    """Whatever the flags or the sidecar hold, the CLI exits 0, 1 or 2 with a
    message, never with an uncaught exception."""

    @given(argv=cli_argv())
    @example(argv=["run", "--problem", "quadratic", "--betas", "0.9", "--gammas", "abc",
                   "--out", "<out>"])
    @example(argv=["run", "--problem", "quadratic", "--quad-dim", str(10 ** 12),
                   "--betas", "0.9", "--gammas", "0.01", "--iters", "5", "--out", "<out>"])
    @example(argv=["tune", "--problem", "logreg-l2", "--data", "<zeros>", "--betas", "0.9",
                   "--iters", "5"])
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_any_flags(self, fuzz_files, argv):
        _assert_clean_exit(*_outcome([fuzz_files.get(arg, arg) for arg in argv]))

    @given(edits=st.lists(st.tuples(st.sampled_from(SIDECAR_FIELDS),
                                    st.sampled_from(SIDECAR_VALUES)), min_size=1, max_size=3))
    @example(edits=[(("problem_params", "l2"), None)])
    @example(edits=[(("config", "iters"), 2.5)])
    @settings(derandomize=True, deadline=None, max_examples=100)
    def test_any_sidecar_values(self, fuzz_files, edits):
        meta = json.loads(json.dumps(fuzz_files["meta"]))
        config = meta["config"]
        for (section, key), value in edits:
            if section == "config":
                config[key] = value
            elif isinstance(config.get("problem_params"), dict):
                config["problem_params"][key] = value
        trace = Path(fuzz_files["<trace>"])
        edited = trace.with_name("edited.csv")
        edited.write_text(trace.read_text())
        edited.with_suffix(".meta.json").write_text(json.dumps(meta))
        _assert_clean_exit(*_outcome(["verify", "--trace", str(edited)]))
