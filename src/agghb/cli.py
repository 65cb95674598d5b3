"""Command-line front door: run experiments, tune stepsizes, verify bounds.

Output is line-oriented ``key=value`` text, stable across runs so results
can be diffed.  Exit codes: 0 success, 1 usage or I/O error, 2 bound
verification failure or refusal.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness, theory
from .libsvm import load_libsvm
from .optim import AggConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

PROBLEMS = ("quadratic", "rosenbrock", "logreg-l2", "logreg-ncvx")


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


def _emit(key: str, value) -> None:
    if isinstance(value, float):
        print(f"{key}={value!r}")
    elif isinstance(value, bool):
        print(f"{key}={'true' if value else 'false'}")
    else:
        print(f"{key}={value}")


def _infer_optimizer(betas: tuple[float, ...]) -> str:
    if all(b == 0.0 for b in betas):
        return "gd"
    if len(betas) == 1:
        return "hb"
    return "agghb"


def _problem_params(args) -> dict:
    params: dict = {}
    if args.problem in ("logreg-l2", "logreg-ncvx"):
        if args.data is None:
            raise ValueError(f"--problem {args.problem} requires --data")
        params["data"] = args.data
        if args.n_features is not None:
            params["n_features"] = args.n_features
        if args.problem == "logreg-l2":
            params["l2"] = args.l2
        else:
            params["lambda"] = args.lam
    else:
        if args.data is not None:
            raise ValueError(f"--data makes no sense with --problem {args.problem}")
        if args.problem == "quadratic":
            params["dim"] = args.quad_dim
    return params


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True, choices=PROBLEMS)
    p.add_argument("--data", help="LIBSVM file (bare names resolve via $AGGHB_DATA_DIR)")
    p.add_argument("--n-features", type=int, default=None,
                   help="override the inferred feature count (files may omit "
                        "trailing all-zero columns)")
    p.add_argument("--quad-dim", type=int, default=10,
                   help="dimension of the diagonal test quadratic (default 10)")
    p.add_argument("--l2", default=0.0,
                   help="l2 regularization strength, a float or 'auto' (= base L / 1e5)")
    p.add_argument("--lambda", dest="lam", default=0.0,
                   help="non-convex regularization strength, a float or 'auto' (= base L / 1e3)")
    p.add_argument("--betas", type=_parse_float_list, required=True,
                   help="comma-separated momentum parameters, e.g. 0.9,0.95,0.99")
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)


def _config(args, problem_params: dict, stepsize_mode: str,
            gammas=None) -> harness.RunConfig:
    return harness.RunConfig(
        problem=args.problem,
        optimizer=_infer_optimizer(args.betas),
        betas=args.betas,
        stepsize_mode=stepsize_mode,
        gammas=gammas,
        iters=args.iters,
        seed=args.seed,
        problem_params=problem_params,
    )


def _emit_sweep(sweep) -> None:
    for entry in sweep:
        _emit("sweep", f"a={entry.a!r} gamma={entry.gamma!r} final_f={entry.final_f!r} "
                       f"diverged={'true' if entry.diverged else 'false'}")


def cmd_run(args) -> int:
    params = _problem_params(args)
    problem = harness.build_problem(args.problem, params)
    betas = args.betas

    gammas_arg = args.gammas
    if gammas_arg in ("theory-ncvx", "theory-cvx", "tune"):
        mode, gammas = gammas_arg, None
    else:
        gammas = _parse_float_list(gammas_arg)
        if len(gammas) == 1 and len(betas) > 1:
            gammas = gammas * len(betas)
        mode = "explicit"
    config = _config(args, params, mode, gammas)

    if mode == "tune":
        config, sweep = harness.tune(config, problem)
        _emit_sweep(sweep)
        _emit("tuned_gamma", config.gammas[0])

    trace = harness.run(config, problem)
    csv_path, meta_path = harness.export_trace(trace, args.out)
    _emit("problem", args.problem)
    _emit("optimizer", config.optimizer)
    _emit("stepsize_mode", config.stepsize_mode)
    _emit("gammas", ",".join(repr(g) for g in trace.gammas))
    _emit("iters", int(trace.ks[-1]))
    _emit("final_f", float(trace.f[-1]))
    _emit("final_grad_norm", float(trace.grad_norm[-1]))
    _emit("diverged", trace.diverged)
    _emit("trace", str(csv_path))
    _emit("metadata", str(meta_path))
    return EXIT_OK


def cmd_tune(args) -> int:
    params = _problem_params(args)
    problem = harness.build_problem(args.problem, params)
    best, sweep = harness.tune(_config(args, params, "tune"), problem)
    _emit_sweep(sweep)
    _emit("best_gamma", best.gammas[0])
    return EXIT_OK


def cmd_verify(args) -> int:
    trace = harness.read_trace(args.trace)
    problem = harness.build_problem(trace.config.problem, trace.config.problem_params)
    report = harness.verify_bounds(trace, problem)
    _emit("mode", report.mode)
    if problem.params.get("L_is_local_estimate"):
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
    betas = args.betas
    eb = theory.effective_betas(betas)
    _emit("m", len(betas))
    _emit("beta_tilde", eb.beta_tilde)
    _emit("beta_hat", eb.beta_hat)
    _emit("beta_max", eb.beta_max)
    _emit("L", args.L)
    _emit("mu", args.mu)
    _emit("stepsize_nonconvex", theory.stepsize_nonconvex(betas, args.L))
    _emit("stepsize_convex", theory.stepsize_convex(betas, args.L, args.mu))

    if args.gammas is not None:
        gammas = args.gammas
        if len(gammas) == 1 and len(betas) > 1:
            gammas = gammas * len(betas)
        config = AggConfig(betas=betas, gammas=gammas)
        consts = theory.constants(config, horizon=args.horizon)
        for key in ("A", "C", "D", "E", "F", "B"):
            _emit(key, getattr(consts, key))
        ncvx = theory.check_nonconvex_condition(consts, args.L, config.m)
        _emit("nonconvex_margin", ncvx.margin)
        if ncvx.vacuous:
            _emit("nonconvex_check", "VACUOUS")
        else:
            _emit("nonconvex_check", "PASS" if ncvx.admissible else "FAIL")
        cvx = theory.check_convex_conditions(config, args.L, args.mu, horizon=args.horizon)
        _emit("f_margin", cvx.f_margin)
        _emit("f_check", "PASS" if cvx.f_margin >= 0 else "FAIL")
        _emit("bf_margin", cvx.bf_margin)
        _emit("bf_check", "PASS" if cvx.bf_margin >= 0 else "FAIL")
        for i, sm in enumerate(cvx.stepsize_margins, start=1):
            _emit(f"stepsize_margin_{i}", sm)
        _emit("convex_check", "PASS" if cvx.ok else "FAIL")
    return EXIT_OK


def cmd_parse_check(args) -> int:
    result = load_libsvm(harness.resolve_data_path(args.data))
    n = result.n_features
    if args.n_features is not None:
        if args.n_features < result.n_features:
            raise ValueError(
                f"--n-features {args.n_features} is below the largest "
                f"seen index {result.n_features}"
            )
        n = args.n_features
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
    p_run.add_argument("--gammas", required=True,
                       help="comma-separated stepsizes, or one of: "
                            "theory-ncvx, theory-cvx, tune")
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
    p_parse.add_argument("--n-features", type=int, default=None,
                         help="override the inferred feature count")
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
    except (ValueError, FileNotFoundError, harness.TuningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
