"""The benchmark's own output checks accept what the package prints.

``bench/run.py`` judges every CLI op with ``bench/checks.py`` and runs its
heavy-ball oracle once; a check that crashes or fails there fails the
benchmark.  Both scripts are loaded with ``runpy.run_path``, which compiles
them in memory, so nothing is written under ``bench/``.
"""

import runpy
from pathlib import Path

from agghb.cli import main

from conftest import synthetic_libsvm_text

BENCH = Path(__file__).resolve().parent.parent / "bench"
CHECKS = runpy.run_path(str(BENCH / "checks.py"), run_name="bench_checks")
TEXT_FACTS = runpy.run_path(str(BENCH / "datagen.py"), run_name="bench_datagen")["text_facts"]


def _data(tmp_path):
    text = synthetic_libsvm_text(M=60, n=6, seed=3)
    path = tmp_path / "small.libsvm"
    path.write_text(text)
    return str(path), TEXT_FACTS(text)


def test_heavy_ball_oracle_holds(tmp_path):
    data, _ = _data(tmp_path)
    assert CHECKS["heavy_ball_oracle"]("logreg-l2", {"data": data, "l2": "auto"}) is None


def test_check_op_accepts_each_command(capsys, tmp_path):
    data, facts = _data(tmp_path)
    trace = tmp_path / "cvx.csv"
    problem = ("--problem", "logreg-l2", "--data", data, "--l2", "auto", "--betas", "0.9,0.95,0.99")
    ops = [
        ("parse-check", ("parse-check", "--data", data)),
        ("run", ("run", *problem, "--gammas", "theory-cvx", "--iters", "200",
                 "--out", str(trace))),
        ("verify", ("verify", "--trace", str(trace))),
        ("tune", ("tune", *problem, "--iters", "100")),
    ]
    for command, argv in ops:
        code = main(list(argv))
        out = capsys.readouterr().out
        assert CHECKS["check_op"](command, code, out, facts) is None, command
