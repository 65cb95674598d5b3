"""Correctness checks on each CLI op's output, and the heavy-ball oracle.

Every function returns ``None`` when the output holds up and a one-line
reason when it does not.  The package functions used here are bound at
import, before the tracer replaces any module attribute, so a check never
records a span.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from agghb.harness import RunConfig, build_problem, export_trace, read_trace, run

RESIDUAL_TOL = 1e-10      # virtual-iterate recursion defect a run may report
CERTIFICATE_TOL = 1e-10   # reference gradient norm verify may rely on
ORACLE_TOL = 1e-12        # |f| gap between harness.run and the plain loop


def key_values(stdout: str) -> list[tuple[str, str]]:
    """The CLI's ``key=value`` lines, in order."""
    out = []
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out.append((key, value))
    return out


def check_parse(out: dict, facts: dict) -> str | None:
    want = {
        "records": str(facts["M"]),
        "n_inferred": str(facts["n"]),
        "labels": " ".join(f"{k}:{v}" for k, v in facts["labels"].items()),
    }
    for key, value in want.items():
        if out.get(key) != value:
            return f"parse-check {key}={out.get(key)!r}, expected {value!r}"
    return None


def check_run(out: dict) -> str | None:
    if out.get("diverged") != "false":
        return f"theory run diverged={out.get('diverged')!r}"
    meta_path = Path(out["metadata"])
    residual = json.loads(meta_path.read_text())["max_virtual_residual"]
    if not residual <= RESIDUAL_TOL:
        return f"max_virtual_residual={residual!r} > {RESIDUAL_TOL}"
    csv_path = Path(out["trace"])
    with tempfile.TemporaryDirectory(dir=csv_path.parent) as tmp:
        again_csv, again_meta = export_trace(read_trace(csv_path), Path(tmp) / csv_path.name)
        if again_csv.read_bytes() != csv_path.read_bytes():
            return "trace CSV changed across read_trace/export_trace"
        if again_meta.read_bytes() != meta_path.read_bytes():
            return "trace metadata changed across read_trace/export_trace"
    return None


def check_verify(out: dict) -> str | None:
    if out.get("all_passed") != "true":
        return f"verify all_passed={out.get('all_passed')!r}"
    if out.get("mode") == "theory-cvx":
        cert = float(out.get("reference_certificate", "inf"))
        if not cert <= CERTIFICATE_TOL:
            return f"reference_certificate={cert!r} > {CERTIFICATE_TOL}"
    return None


def check_tune(pairs: list[tuple[str, str]]) -> str | None:
    sweep = []
    for key, value in pairs:
        if key == "sweep":
            fields = dict(tok.split("=", 1) for tok in value.split())
            sweep.append((float(fields["a"]), float(fields["gamma"]),
                          float(fields["final_f"]), fields["diverged"] == "true"))
    finite = [s for s in sweep if not s[3]]
    if not finite:
        return "every grid point diverged"
    best = min(finite, key=lambda s: (s[2], s[0]))  # smallest a among equal minima
    printed = float(dict(pairs)["best_gamma"])
    if printed != best[1]:
        return f"best_gamma={printed!r}, sweep minimum is at gamma={best[1]!r}"
    return None


def check_op(command: str, code: int, stdout: str, facts: dict) -> str | None:
    """Decide one op; ``facts`` describes the data file the op read."""
    if code != 0:
        return f"exit code {code}"
    pairs = key_values(stdout)
    out = dict(pairs)
    try:
        if command == "parse-check":
            return check_parse(out, facts)
        if command == "run":
            return check_run(out)
        if command == "verify":
            return check_verify(out)
        if command == "tune":
            return check_tune(pairs)
    except (KeyError, ValueError, OSError) as exc:
        return f"unreadable {command} output: {exc!r}"
    return f"no check for command {command!r}"


def heavy_ball_oracle(problem_name: str, params: dict, iters: int = 100) -> str | None:
    """m = 1 ``harness.run`` against a heavy-ball loop written out here."""
    beta = 0.9
    problem = build_problem(problem_name, params)
    gamma = 0.5 / problem.L
    trace = run(RunConfig(problem=problem_name, optimizer="hb", betas=(beta,),
                          stepsize_mode="explicit", gammas=(gamma,), iters=iters,
                          problem_params=params), problem)
    x = np.array(trace.x0, dtype=float)
    v = np.zeros_like(x)
    fs = []
    for k in range(iters + 1):
        fs.append(problem.value(x))
        if k == iters:
            break
        v = beta * v + problem.gradient(x)
        x = x - gamma * v
    if len(trace.f) != len(fs):
        return f"m=1 run recorded {len(trace.f)} iterates, heavy ball {len(fs)}"
    gap = float(np.max(np.abs(np.asarray(trace.f) - np.asarray(fs))))
    if not gap <= ORACLE_TOL:
        return f"m=1 run departs from heavy ball: max |f| gap {gap!r}"
    return None
