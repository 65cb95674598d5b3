"""Command-line front door: run experiments, tune stepsizes, verify bounds.

Output is line-oriented ``key=value`` text, stable across runs so results
can be diffed.  Exit codes: 0 success, 1 usage or I/O error, 2 bound
verification failure or refusal.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict

import numpy as np

from . import harness, theory
from .libsvm import feature_count, load_libsvm
from .optim import AggConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
# The --gammas words that request stepsizes rather than give them.
_GAMMA_REQUESTS = (*harness.THEORY_MODES, "tune")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit ``EXIT_USAGE``, not argparse's 2 (``EXIT_VERIFY``)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _parse_gammas(text: str) -> str | tuple[float, ...]:
    """A stepsize mode, or stepsizes as :func:`_parse_float_list` reads them."""
    return text if text in _GAMMA_REQUESTS else _parse_float_list(text)


def _parse_seed(text: str) -> int:
    """A seed for ``RunConfig``: an integer >= 0."""
    with suppress(ValueError):
        if (seed := int(text)) >= 0:
            return seed
    raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")


def _per_buffer(gammas: tuple[float, ...], betas: tuple[float, ...]) -> tuple[float, ...]:
    """One stepsize per momentum buffer: a single value is spread over all of them."""
    return gammas * len(betas) if len(gammas) == 1 else gammas


def _emit(key: str, value) -> None:
    if isinstance(value, float):
        print(f"{key}={value!r}")
    elif isinstance(value, bool):
        print(f"{key}={'true' if value else 'false'}")
    else:
        print(f"{key}={value}")


# Each ``build_problem`` parameter (also the dest) with its flag and help.  The
# flags pass their text through: ``build_problem`` parses every value.
_PROBLEM_FLAGS = {
    "data": ("--data", "LIBSVM file (bare names resolve via $AGGHB_DATA_DIR)"),
    "n_features": ("--n-features", "override the inferred feature count "
                                   "(files may omit trailing all-zero columns)"),
    "dim": ("--quad-dim", "dimension of the diagonal test quadratic"),
    "l2": ("--l2", "l2 regularization, a float or 'auto' (= base L / 1e5)"),
    "lambda": ("--lambda", "non-convex regularization, a float or 'auto' (= base L / 1e3)"),
}


@contextmanager
def _flag_named():
    """Turn a ``ProblemParamError`` into a ``ValueError`` naming the flag, not
    the parameter; every message names the parameter before the value it echoes."""
    try:
        yield
    except harness.ProblemParamError as exc:
        flag = _PROBLEM_FLAGS[exc.param][0]
        raise ValueError(str(exc).replace(repr(exc.param), flag, 1)) from None


def _setup(args, stepsize_mode: str, gammas=None) -> tuple[harness.RunConfig, harness.Problem]:
    """The run and problem the flags describe, from only the problem flags given."""
    params = {key: getattr(args, key) for key in _PROBLEM_FLAGS
              if getattr(args, key) is not None}
    with _flag_named():
        problem = harness.build_problem(args.problem, params)
    return harness.RunConfig(
        problem=args.problem, betas=args.betas, stepsize_mode=stepsize_mode,
        gammas=gammas, iters=args.iters, seed=args.seed, problem_params=params,
    ), problem


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True, choices=harness.PROBLEM_PARAMS)
    for key, (flag, text) in _PROBLEM_FLAGS.items():
        uses = [f"{name} ({'required' if d is harness.REQUIRED else f'default {d}'})"
                for name, takes in harness.PROBLEM_PARAMS.items() if key in takes
                for d in [takes[key]]]
        p.add_argument(flag, dest=key, help=f"{text}. Problems: " + ", ".join(uses))
    p.add_argument("--betas", type=_parse_float_list, required=True,
                   help="comma-separated momentum parameters, e.g. 0.9,0.95,0.99")
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seed", type=_parse_seed, default=0,
                   help="seed of the quadratic's random start, an integer >= 0")


def _emit_sweep(sweep) -> None:
    for entry in sweep:
        _emit("sweep", f"a={entry.a!r} gamma={entry.gamma!r} final_f={entry.final_f!r} "
                       f"diverged={'true' if entry.diverged else 'false'} "
                       f"diverged_at={'none' if entry.diverged_at is None else entry.diverged_at} "
                       f"above_start={'true' if entry.above_start else 'false'}")


def cmd_run(args) -> int:
    if isinstance(args.gammas, str):  # a mode
        mode, gammas = args.gammas, None
    else:
        mode, gammas = "explicit", _per_buffer(args.gammas, args.betas)
    config, problem = _setup(args, mode, gammas)

    # Tune, run and export before the first line is printed, so a failure
    # leaves stdout empty.
    if mode == "tune":
        config, sweep = harness.tune(config, problem)
    trace = harness.run(config, problem)
    csv_path, meta_path = harness.export_trace(trace, args.out)
    if mode == "tune":
        _emit_sweep(sweep)
        _emit("tuned_gamma", config.gammas[0])
    _emit("problem", args.problem)
    _emit("optimizer", config.optimizer)
    _emit("stepsize_mode", config.stepsize_mode)
    _emit("gammas", ",".join(repr(g) for g in trace.gammas))
    _emit("iters", len(trace.f) - 1)
    _emit("final_f", float(trace.f[-1]))
    _emit("final_grad_norm", float(trace.grad_norm[-1]))
    _emit("diverged", trace.diverged)
    _emit("trace", str(csv_path))
    _emit("metadata", str(meta_path))
    return EXIT_OK


def cmd_tune(args) -> int:
    best, sweep = harness.tune(*_setup(args, "tune"))
    _emit_sweep(sweep)
    _emit("best_gamma", best.gammas[0])
    return EXIT_OK


def cmd_verify(args) -> int:
    trace = harness.read_trace(args.trace)
    problem = harness.build_problem(trace.config.problem, trace.config.problem_params)
    report = harness.verify_bounds(trace, problem)
    _emit("mode", report.mode)
    if problem.L_is_local_estimate:
        _emit("L_is_local_estimate", True)
    if report.certificate is not None:
        _emit("reference_certificate", report.certificate)
        _emit("reference_certified", report.certified)
    for row in report.rows:
        _emit(
            "check",
            f"K={row.K} observed={row.observed!r} bound={row.bound!r} "
            f"slack={row.slack!r} pass={'true' if row.passed else 'false'}",
        )
    _emit("all_passed", report.passed)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_constants(args) -> int:
    # Every value is computed before the first line is printed, so a refused
    # input leaves stdout empty.
    betas = args.betas
    if args.horizon is not None and args.horizon < 0:  # refused with or without --gammas
        raise ValueError(f"--horizon must be nonnegative, got {args.horizon}")
    lines = [
        ("m", len(betas)),
        *asdict(theory.effective_betas(betas)).items(),
        ("L", args.L),
        ("mu", args.mu),
        ("stepsize_nonconvex", theory.stepsize_nonconvex(betas, args.L)),
        ("stepsize_convex", theory.stepsize_convex(betas, args.L, args.mu)),
    ]

    if args.gammas is not None:
        config = AggConfig(betas=betas, gammas=_per_buffer(args.gammas, betas))
        consts = theory.constants(config, horizon=args.horizon)
        ncvx = theory.check_nonconvex_condition(consts, args.L, config.m)
        cvx = theory.check_convex_conditions(config, consts, args.L, args.mu)
        lines += [
            *asdict(consts).items(),
            ("nonconvex_margin", ncvx.margin),
            ("nonconvex_check",
             "VACUOUS" if ncvx.vacuous else "PASS" if ncvx.admissible else "FAIL"),
            ("f_margin", cvx.f_margin),
            ("f_check", "PASS" if cvx.f_margin >= 0 else "FAIL"),
            ("bf_margin", cvx.bf_margin),
            ("bf_check", "PASS" if cvx.bf_margin >= 0 else "FAIL"),
            *((f"stepsize_margin_{i}", sm)
              for i, sm in enumerate(cvx.stepsize_margins, start=1)),
            ("convex_check", "PASS" if cvx.ok else "FAIL"),
        ]
    for key, value in lines:
        _emit(key, value)
    return EXIT_OK


def cmd_parse_check(args) -> int:
    with _flag_named():
        n_features = harness.PARAM_PARSERS["n_features"]("n_features", args.n_features)
    result = load_libsvm(harness.resolve_data_path(args.data))
    n = feature_count(result, n_features)
    _emit("records", result.labels.size)
    _emit("n_features", n)
    _emit("n_inferred", result.n_features)
    _emit("reordered_lines", result.reordered)
    labels, counts = np.unique(result.labels, return_counts=True)
    _emit("labels", " ".join(
        f"{lab:g}:{count}" for lab, count in zip(labels.tolist(), counts.tolist())
    ))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="agghb",
        description="Heavy-ball and aggregated heavy-ball experiments with "
                    "bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one optimizer run and export its trace")
    _add_problem_flags(p_run)
    p_run.add_argument("--gammas", type=_parse_gammas, required=True,
                       help="comma-separated stepsizes, or one of: " + ", ".join(_GAMMA_REQUESTS))
    p_run.add_argument("--out", default="trace.csv", help="trace CSV path")
    p_run.set_defaults(func=cmd_run)

    p_tune = sub.add_parser("tune", help="grid-search the stepsize scale a in gamma=a/L")
    _add_problem_flags(p_tune)
    p_tune.set_defaults(func=cmd_tune)

    p_verify = sub.add_parser("verify", help="check an exported trace against its bound")
    p_verify.add_argument("--trace", required=True, help="trace CSV written by run")
    p_verify.set_defaults(func=cmd_verify)

    p_const = sub.add_parser("constants", help="print stepsize calculus for a beta set")
    p_const.add_argument("--betas", type=_parse_float_list, required=True)
    p_const.add_argument("--gammas", type=_parse_float_list)
    p_const.add_argument("--L", type=float, default=1.0)
    p_const.add_argument("--mu", type=float, default=0.0)
    p_const.add_argument("--horizon", type=int, default=None,
                         help="iteration count for the buffer constant B "
                              "(default: open-ended cap)")
    p_const.set_defaults(func=cmd_constants)

    p_parse = sub.add_parser("parse-check", help="parse a LIBSVM file and report shape")
    p_parse.add_argument("--data", required=True)
    flag, text = _PROBLEM_FLAGS["n_features"]
    p_parse.add_argument(flag, dest="n_features", help=text)
    p_parse.set_defaults(func=cmd_parse_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except harness.VerificationRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, OSError, MemoryError, harness.TuningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
