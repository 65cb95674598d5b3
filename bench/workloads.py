"""The three workloads: which data each generates and which CLI ops a pass
issues, back to back, through ``agghb.cli.main``.

Every pass starts with ``parse-check`` of its data file and issues at least
one ``run``, ``tune`` and ``verify``, so each per-command end-to-end metric
is measured on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import datagen

B3 = "0.9,0.95,0.99"            # m = 3, the acceptance suite's aggregated set
B4 = "0.9,0.95,0.99,0.999"      # m = 4, its Rosenbrock set


@dataclass(frozen=True)
class Op:
    command: str                 # CLI subcommand
    argv: tuple[str, ...]        # everything passed to agghb.cli.main
    K: int | None = None
    m: int | None = None


@dataclass(frozen=True)
class Workload:
    """A workload; why each was chosen is in BENCHMARK.json and README.md."""

    name: str
    data: Callable[[int], str]                # seed -> LIBSVM text
    ops: Callable[[str, Path, int], list[Op]]  # (data path, work dir, seed) -> pass


def parse_op(data: str) -> Op:
    return Op("parse-check", ("parse-check", "--data", data))


def run_op(out: Path, problem: str, mode: str, betas: str, iters: int, *extra: str) -> Op:
    argv = ("run", "--problem", problem, *extra, "--betas", betas,
            "--gammas", mode, "--iters", str(iters), "--out", str(out))
    return Op("run", argv, K=iters, m=len(betas.split(",")))


def tune_op(problem: str, betas: str, iters: int, *extra: str) -> Op:
    argv = ("tune", "--problem", problem, *extra, "--betas", betas, "--iters", str(iters))
    return Op("tune", argv, K=iters, m=len(betas.split(",")))


def verify_op(trace: Path) -> Op:
    return Op("verify", ("verify", "--trace", str(trace)))


def warmup_op(data: str, work: Path) -> Op:
    """The set-up's one op: a short convex run that parses the data."""
    return run_op(work / "warmup.csv", "logreg-l2", "theory-cvx", B3, 20,
                  "--data", data, "--l2", "auto")


def narrow_dense_ops(data: str, work: Path, seed: int) -> list[Op]:
    quad, ncvx, cvx = work / "quad.csv", work / "ncvx.csv", work / "cvx.csv"
    return [
        parse_op(data),
        run_op(quad, "quadratic", "theory-ncvx", B3, 10_000, "--seed", str(seed)),
        run_op(ncvx, "logreg-ncvx", "theory-ncvx", B3, 10_000, "--data", data, "--lambda", "auto"),
        run_op(cvx, "logreg-l2", "theory-cvx", B3, 10_000, "--data", data, "--l2", "auto"),
        verify_op(quad),
        verify_op(ncvx),
        tune_op("rosenbrock", B4, 5000),
        tune_op("logreg-l2", B3, 6000, "--data", data, "--l2", "auto"),
    ]


WIDE_RUN_K = 300
WIDE_TUNE_K = 100


def wide_sparse_ops(data: str, work: Path, seed: int) -> list[Op]:
    cvx, ncvx = work / "cvx.csv", work / "ncvx.csv"
    return [
        parse_op(data),
        run_op(cvx, "logreg-l2", "theory-cvx", B3, WIDE_RUN_K, "--data", data, "--l2", "auto"),
        run_op(ncvx, "logreg-ncvx", "theory-ncvx", B3, WIDE_RUN_K, "--data", data,
               "--lambda", "auto"),
        verify_op(ncvx),
        tune_op("logreg-l2", B3, WIDE_TUNE_K, "--data", data, "--l2", "auto"),
    ]


CERTIFY_TUNE_K = 1000


def certify_ops(data: str, work: Path, seed: int) -> list[Op]:
    plain, ridge = work / "l2-zero.csv", work / "l2-auto.csv"
    return [
        parse_op(data),
        run_op(plain, "logreg-l2", "theory-cvx", B3, 10_000, "--data", data, "--l2", "0"),
        run_op(ridge, "logreg-l2", "theory-cvx", B3, 10_000, "--data", data, "--l2", "auto"),
        verify_op(plain),
        verify_op(ridge),
        tune_op("logreg-l2", B3, CERTIFY_TUNE_K, "--data", data, "--l2", "0"),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("narrow-dense", datagen.australian_shuffled, narrow_dense_ops),
        Workload("wide-sparse", datagen.a9a_text, wide_sparse_ops),
        Workload("certify", datagen.australian_shuffled, certify_ops),
    )
}
