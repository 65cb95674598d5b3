"""Command-line interface tests: flags, output format, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import agghb
from agghb.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main

from conftest import synthetic_libsvm_text


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

    def test_quadratic_theory_cvx_thousand_iterations(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, _, _ = run_cli(
            capsys, "run", "--problem", "quadratic", "--betas", "0.9",
            "--gammas", "theory-cvx", "--iters", "1000", "--out", str(out),
        )
        assert code == EXIT_OK
        assert out.exists()


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


class TestVerify:
    def _write_trace(self, capsys, tmp_path, gammas="theory-ncvx"):
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "run", "--problem", "quadratic", "--betas", "0.9",
            "--gammas", gammas, "--iters", "100", "--out", str(out_path),
        )
        assert code == EXIT_OK
        return out_path

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


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(agghb.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "agghb", "constants", "--betas", "0.9"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == EXIT_OK, done.stderr
        kv = parse_kv(done.stdout)
        assert kv["m"] == ["1"] and kv["beta_hat"] == ["0.9"]


class TestParseCheck:
    def test_reports_shape(self, capsys, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text(synthetic_libsvm_text(M=25, n=7, seed=5))
        code, out, _ = run_cli(capsys, "parse-check", "--data", str(path))
        assert code == EXIT_OK
        kv = parse_kv(out)
        assert kv["records"] == ["25"]
        assert kv["n_features"] == ["7"]

    def test_malformed_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("1 1:1.0\n1 2:zap\n")
        code, _, err = run_cli(capsys, "parse-check", "--data", str(path))
        assert code == EXIT_USAGE
        assert "line 2" in err

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
        assert "F" in meta["constants"]
        assert len(meta["x0"]) == 10
