"""agghb benchmark: one workload as a closed loop of CLI ops.

    python3 bench/run.py --workload narrow-dense --seed 1 --seconds 20 --trace 0

A single in-process client calls ``agghb.cli.main`` with one op's arguments,
waits for it, checks its output and issues the next.  Inputs are generated
from ``--seed`` into ``.bench_work/`` under the repository root; the program
only sees the written files.  Whole passes over the workload's ops repeat
until ``--seconds`` have elapsed (at least one pass), and each end-to-end
figure is the median over passes.  ``--trace 1`` instead makes one untraced
and one traced pass and reports the per-layer figures of the traced one.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine and input facts the figures were taken at.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
COMMANDS = ("run", "tune", "verify", "parse-check")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("narrow-dense", "wide-sparse", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def invoke(main, argv) -> tuple[int, str, str, float]:
    """One op: (exit code, stdout, stderr, wall seconds).  A crash inside the
    program is a failed op, not a failed benchmark."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


def _key(command: str) -> str:
    return command.replace("-", "_") + "_s"


def run_pass(ops, main, check, failures, cal) -> tuple[dict, dict]:
    """Issue every op back to back, then check each.  Returns the pass's
    per-command sums and total, once in calibrated seconds and once in raw
    wall seconds."""
    sums = {_key(c): 0.0 for c in COMMANDS}
    raw = dict(sums)
    results = []
    for op in ops:
        with cal.sampling() as samples:
            results.append(invoke(main, op.argv))
        wall = results[-1][3]
        sums[_key(op.command)] += cal.calibrated(wall, samples)
        raw[_key(op.command)] += wall
    for op, (code, stdout, stderr, _) in zip(ops, results):
        reason = check(op, code, stdout)
        if reason is not None:
            last = stderr.strip().splitlines()[-1:] or [""]
            failures.append(f"{' '.join(op.argv[:3])}: {reason} {last[0]}".strip())
    sums["total_s"] = sum(sums[_key(c)] for c in COMMANDS)
    raw["total_s"] = sum(raw[_key(c)] for c in COMMANDS)
    return sums, raw


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(np, scipy, agghb) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),  # the CLI's default --jobs for tune
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "agghb": getattr(agghb, "__version__", "unknown"),
        "commit": _git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not (SRC / "agghb" / "__init__.py").is_file():
        print(f"error: no agghb sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import agghb
    import agghb.cli
    import calibrate
    import checks
    import datagen
    import tracer as tracing
    import workloads
    if Path(agghb.__file__).resolve().parent != (SRC / "agghb").resolve():
        print(f"error: imported agghb from {agghb.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cal = calibrate.Calibrator()
    # What every CLI invocation pays first: importing the package in a fresh
    # interpreter.
    import_probe = [sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); import agghb.cli"]

    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}"
    data = str(work / "data.libsvm")

    # Set-up: import, seeded generation, file write and one warm-up op, repeated.
    setups = []
    for _ in range(SETUP_REPS):
        with cal.sampling() as samples:
            t0 = time.perf_counter()
            subprocess.run(import_probe, check=True, timeout=120)
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            text = workload.data(args.seed)
            Path(data).write_text(text)
            code, _, stderr, _ = invoke(agghb.cli.main, workloads.warmup_op(data, work).argv)
            wall = time.perf_counter() - t0
        setups.append(cal.calibrated(wall, samples))
        if code != 0:
            print(f"error: warm-up op exited {code}: {stderr.strip()}", file=sys.stderr)
            return 1
    setup_s = statistics.median(setups)

    facts = datagen.text_facts(text)
    ops = workload.ops(data, work, args.seed)
    failures: list[str] = []

    def check(op, code, stdout):
        return checks.check_op(op.command, code, stdout, facts)

    passes, raw = [], []
    if args.trace == 0:
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < args.seconds:
            sums, walls = run_pass(ops, agghb.cli.main, check, failures, cal)
            passes.append(sums)
            raw.append(walls)
    else:
        sums, walls = run_pass(ops, agghb.cli.main, check, failures, cal)
        passes.append(sums)
        raw.append(walls)
        tracer = tracing.Tracer()
        tracer.register_data(data, facts["M"], facts["n"], facts["nnz"])
        tracer.install()
        try:
            traced, walls = run_pass(ops, tracer.wrap_op(agghb.cli.main), check, failures, cal)
        finally:
            tracer.uninstall()
        raw.append(walls)
    attempted = len(ops) * (len(passes) + args.trace)

    oracle = checks.heavy_ball_oracle("logreg-l2", {"data": data, "l2": "auto"})

    if args.trace == 0:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for key in ("total_s", "run_s", "tune_s", "verify_s", "parse_check_s"):
            metrics[key] = {"value": statistics.median(p[key] for p in passes), "unit": "s"}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    else:
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_frac"] = {
            "value": traced["total_s"] / passes[0]["total_s"] - 1.0, "unit": "frac"}
        metrics["ops.failed_frac"] = {"value": len(failures) / attempted, "unit": "frac"}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "machine": machine_facts(np, scipy, agghb),
        "input": {k: facts[k] for k in ("M", "n", "nnz", "bytes")},
        "ops": [{"command": op.command, "K": op.K, "m": op.m} for op in ops],
        "passes": len(passes) + args.trace,
        "setup_runs_s": setups,
        "raw_wall_s": raw,
        "failures": failures,
        "oracle": oracle or "ok",
    }
    for line in failures + ([f"oracle: {oracle}"] if oracle else []):
        print(f"failed: {line}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()  # only when no other run's inputs are left in it
    print(json.dumps({"facts": record}))
    print(json.dumps({
        "correct": not failures and oracle is None,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
