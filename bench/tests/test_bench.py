"""Checks of the benchmark's own parts: generators, output checks, tracer.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import datagen  # noqa: E402
import tracer as tracing  # noqa: E402
from agghb import cli, harness  # noqa: E402


def _suite_conftest():
    spec = importlib.util.spec_from_file_location(
        "agghb_suite_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_australian_generator_matches_acceptance_data():
    assert datagen.australian_text(7) == _suite_conftest().synthetic_libsvm_text()


def test_australian_shuffle_is_seeded_row_permutation():
    base = datagen.australian_text(7).splitlines()
    a, b = datagen.australian_shuffled(3), datagen.australian_shuffled(4)
    assert a == datagen.australian_shuffled(3)
    assert a != b
    assert sorted(a.splitlines()) == sorted(base)


def test_a9a_generator_shape_and_seed():
    text = datagen.a9a_text(5)
    assert text == datagen.a9a_text(5)
    assert text != datagen.a9a_text(6)
    facts = datagen.text_facts(text)
    assert (facts["M"], facts["n"]) == (datagen.A9A_M, 123)
    assert 0.10 < facts["nnz"] / (facts["M"] * facts["n"]) < 0.12
    assert abs(facts["labels"]["1"] / facts["M"] - 0.24) < 0.005


def test_tune_check_takes_smallest_a_among_equal_minima():
    out = "\n".join([
        "sweep=a=0.5 gamma=0.25 final_f=1.0 diverged=false",
        "sweep=a=1.0 gamma=0.5 final_f=1.0 diverged=false",
        "sweep=a=2.0 gamma=1.0 final_f=0.5 diverged=true",
    ])
    pairs = checks.key_values(out + "\nbest_gamma=0.25\n")
    assert checks.check_tune(pairs) is None
    pairs = checks.key_values(out + "\nbest_gamma=0.5\n")
    assert "sweep minimum" in checks.check_tune(pairs)


def test_traced_run_counts_calls(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        main = tracer.wrap_op(cli.main)
        assert main(["run", "--problem", "quadratic", "--betas", "0.9,0.95",
                     "--gammas", "theory-ncvx", "--iters", "50",
                     "--out", str(tmp_path / "q.csv")]) == 0
    finally:
        tracer.uninstall()
    assert harness.step is not None and not hasattr(harness.step, "__wrapped__")
    metrics = tracing.layer_metrics(tracer)
    assert metrics["problems.value.calls_per_iter"]["value"] == 1.0
    assert metrics["problems.gradient.calls_per_iter"]["value"] == 1.0
    assert metrics["optim.step.us"]["value"] > 0
    assert metrics["harness.trace.bytes"]["value"] > 0


def test_missing_target_reports_absent_metric(monkeypatch):
    monkeypatch.delattr(harness, "step")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    for name in ("optim.step.us", "optim.busy_frac"):
        assert metrics[name]["value"] is None
        assert "agghb.harness.step" in metrics[name]["absent"]
    assert metrics["optim.virtual_iterate.us"]["value"] == 0.0
    assert set(metrics) == set(tracing.PER_LAYER)


def test_heavy_ball_oracle_agrees(tmp_path):
    data = tmp_path / "aus.libsvm"
    data.write_text(datagen.australian_text(7))
    assert checks.heavy_ball_oracle("logreg-l2", {"data": str(data), "l2": "auto"}, 40) is None
