"""Independent reference implementations the tests check the package against.

Nothing here calls the package's step arithmetic: the heavy-ball recurrence,
the momentum expansion, the index-order :func:`weighted_sum` and
:func:`plain_run` each spell the updates out directly, so a fault in the
in-place kernel cannot hide in its own oracle.
:func:`finite_diff_gradient` checks analytic gradients against the objective
values alone, and :func:`gradient_descent_reference` reaches the optimum the
slow way, with no Hessian, as an oracle for the Newton reference.
:class:`LibsvmRecord`, :func:`as_records` and :func:`serialize_libsvm` turn
a parse into per-sample records and back into LIBSVM text, for round-trip
checks of the parser.  :func:`as_dense` reads a feature matrix as a dense
array, whether a ``Dataset`` holds it dense or CSR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from agghb.harness import (
    Reference,
    RunConfig,
    Trace,
    _constants_snapshot,
    resolve_gammas,
    start_point,
)
from agghb.libsvm import ParseResult
from agghb.optim import AggConfig
from agghb.problems import Problem


class DivergenceError(RuntimeError):
    """A heavy-ball oracle update met or produced non-finite values."""


@dataclass(frozen=True)
class HeavyBallState:
    """State of the classical single-buffer recurrence V <- beta*V + g, x <- x - gamma*V."""

    x: np.ndarray
    v: np.ndarray
    k: int
    beta: float
    gamma: float


def hb_init(x0: np.ndarray, beta: float, gamma: float) -> HeavyBallState:
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x0)):
        raise ValueError("starting point contains non-finite values")
    if not (0.0 <= beta < 1.0):
        raise ValueError(f"momentum parameter {beta} outside [0, 1)")
    if not (gamma > 0.0):
        raise ValueError(f"stepsize {gamma} must be positive")
    return HeavyBallState(x=x0.copy(), v=np.zeros_like(x0), k=0, beta=beta, gamma=gamma)


def hb_step(state: HeavyBallState, grad: np.ndarray) -> HeavyBallState:
    """One heavy-ball update; the direct recurrence, independent of the aggregated machine."""
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise DivergenceError(f"non-finite gradient at iteration {state.k}")
    v = state.beta * state.v + grad
    x = state.x - state.gamma * v
    if not np.all(np.isfinite(x)):
        raise DivergenceError(f"iterate diverged at iteration {state.k}")
    return HeavyBallState(x=x, v=v, k=state.k + 1, beta=state.beta, gamma=state.gamma)


def momentum_expansion(grad_history: list[np.ndarray], beta: float) -> np.ndarray:
    """Geometric-weight sum ``sum_l beta^l * grad[-1 - l]`` over a gradient history.

    A momentum buffer with decay ``beta``, fed the gradients in
    ``grad_history`` in order, must equal this value exactly; it serves as an
    independent check of buffer contents.
    """
    if len(grad_history) == 0:
        raise ValueError("empty gradient history")
    acc = np.zeros_like(np.asarray(grad_history[0], dtype=float))
    for g in grad_history:
        acc = beta * acc + np.asarray(g, dtype=float)
    return acc


def weighted_sum(coefs, V: np.ndarray) -> np.ndarray:
    """``sum_i coefs[i] * V[i]`` over the leading axis of ``V``, accumulated in
    index order, one buffer at a time: the order the step kernel's fused sum
    must reproduce bit for bit."""
    acc = coefs[0] * V[0]
    for i in range(1, len(V)):
        acc += coefs[i] * V[i]
    return acc


def finite_diff_gradient(problem: Problem, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient (f(x + h e_j) - f(x - h e_j)) / (2h)."""
    if not (h > 0):
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = h
        grad[j] = (problem.value(x + e) - problem.value(x - e)) / (2.0 * h)
    return grad


def gradient_descent_reference(
    problem: Problem, grad_tol: float = 1e-10, max_iters: int = 10 ** 6
) -> Reference:
    """Plain gradient descent with step 1/L from x = 0, capped at
    ``max_iters`` steps; certified when the gradient norm reaches
    ``grad_tol``."""
    x = np.zeros(problem.dim)
    gamma = 1.0 / problem.L
    g = problem.gradient(x)
    for _ in range(max_iters):
        if np.linalg.norm(g) <= grad_tol:
            break
        x = x - gamma * g
        g = problem.gradient(x)
    gnorm = float(np.linalg.norm(g))
    return Reference(
        x=x, f=problem.value(x), grad_norm=gnorm, certified=gnorm <= grad_tol
    )


def logistic_oracle(z: np.ndarray, grad: bool = True) -> np.ndarray:
    """The logistic kernel written with fresh temporaries: the sum over axis
    0 of log(1 + exp(-z)) = max(-z, 0) + log1p(exp(-|z|)), taken as the
    product with a vector of ones, and, when ``grad``, z overwritten with
    the sigmoid s(-z) = 1 / (1 + exp(z)).  The package's scratch-buffer
    kernel, followed by its ``_sigmoid`` for the gradient, must match it bit
    for bit."""
    e = np.exp(-np.abs(z))
    loss = np.ones(z.shape[0]) @ (np.maximum(-z, 0.0) + np.log1p(e))
    if grad:
        z[...] = 1.0 / (1.0 + np.exp(z))
    return loss


def _tuple_step(cfg: AggConfig, x, buffers, grad):
    """The aggregated step on a tuple of buffers, each a new array."""
    new_buffers = tuple(b * v + grad for b, v in zip(cfg.betas, buffers))
    update = np.zeros_like(x)
    for g, v in zip(cfg.gammas, new_buffers):
        update += g * v
    return x - update / cfg.m, new_buffers


def _tuple_virtual_iterate(cfg: AggConfig, x, buffers):
    offset = np.zeros_like(x)
    for b, g, v in zip(cfg.betas, cfg.gammas, buffers):
        offset += (b * g / (1.0 - b)) * v
    return x - offset / cfg.m


def plain_run(config: RunConfig, problem: Problem, residuals: list | None = None) -> Trace:
    """The run loop written plainly: tuple buffers rebuilt every step,
    separate ``value`` and ``gradient`` calls, elementwise finiteness checks
    and a freshly allocated weighted average.  Same recurrence, metrics,
    truncation rule and virtual-iterate check as ``harness.run``; each
    step's relative defect is appended to ``residuals`` when it is given."""
    gammas = resolve_gammas(config, problem)
    acfg = AggConfig(betas=config.betas, gammas=gammas)
    x0 = start_point(config, problem)
    snapshot = _constants_snapshot(acfg, problem, horizon=config.iters)
    track_avg = config.stepsize_mode == "theory-cvx"
    x_star = problem.reference_opt[0] if problem.reference_opt is not None else None

    x = x0.copy()
    buffers = tuple(np.zeros_like(x0) for _ in range(acfg.m))
    if track_avg:
        rho = 1.0 / (1.0 - problem.mu * snapshot["F"] / 2.0)
        xbar, weight_sum = np.zeros(problem.dim), 0.0
    vstep = sum(g / (1.0 - b) for b, g in zip(acfg.betas, acfg.gammas)) / acfg.m
    x_tilde = _tuple_virtual_iterate(acfg, x, buffers)
    max_residual = 0.0

    fs, gnorms = [], []
    dists = [] if x_star is not None else None
    favgs = [] if track_avg else None
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.iters + 1):
            f_k = problem.value(x)
            g_k = np.asarray(problem.gradient(x), dtype=float)
            fs.append(f_k)
            gnorms.append(float(np.linalg.norm(g_k)))
            if dists is not None:
                dists.append(float(np.linalg.norm(x - x_star)))
            if track_avg:
                weight_sum = weight_sum / rho + 1.0
                xbar = (xbar * (weight_sum - 1.0) + x) / weight_sum
                favgs.append(problem.value(xbar))
            if not np.isfinite(f_k) or not np.all(np.isfinite(g_k)):
                diverged = True
                break
            if k == config.iters:
                break
            x, buffers = _tuple_step(acfg, x, buffers, g_k)
            if not np.all(np.isfinite(x)) or not all(np.all(np.isfinite(v)) for v in buffers):
                diverged = True
                break
            prev_norm = float(np.linalg.norm(x_tilde))
            predicted = x_tilde - vstep * g_k
            x_tilde = _tuple_virtual_iterate(acfg, x, buffers)
            residual = float(np.linalg.norm(x_tilde - predicted)) / (1.0 + prev_norm)
            max_residual = max(max_residual, residual)
            if residuals is not None:
                residuals.append(residual)

    return Trace(
        f=np.asarray(fs, dtype=float),
        grad_norm=np.asarray(gnorms, dtype=float),
        dist_opt=None if dists is None else np.asarray(dists, dtype=float),
        f_avg=None if favgs is None else np.asarray(favgs, dtype=float),
        config=config,
        gammas=gammas,
        constants=snapshot,
        x0=x0.copy(),
        wall_time=0.0,
        diverged=diverged,
        max_virtual_residual=max_residual,
    )


@dataclass(frozen=True)
class LibsvmRecord:
    """One parsed sample: raw label and (1-based index, value) pairs."""

    label: float
    entries: tuple[tuple[int, float], ...]


def as_records(parsed: ParseResult) -> tuple[LibsvmRecord, ...]:
    """The samples of a parse as records with 1-based indices."""
    cols = (parsed.indices + 1).tolist()
    vals = parsed.values.tolist()
    bounds = parsed.indptr.tolist()
    return tuple(
        LibsvmRecord(label=label, entries=tuple(zip(cols[a:b], vals[a:b])))
        for label, a, b in zip(parsed.labels.tolist(), bounds, bounds[1:])
    )


def serialize_libsvm(records: Iterable[LibsvmRecord]) -> str:
    """Render records back to LIBSVM text with canonical index order.

    Values are written with full round-trip precision, so
    ``as_records(parse(serialize(records)))`` reproduces the records exactly.
    """
    lines = []
    for rec in records:
        parts = [repr(float(rec.label))]
        parts.extend(
            f"{int(idx)}:{float(val)!r}"
            for idx, val in sorted(rec.entries, key=lambda e: e[0])
        )
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def as_dense(features) -> np.ndarray:
    """A feature matrix as a dense array: a copy of a sparse one, a dense one as is."""
    return features.toarray() if sp.issparse(features) else np.asarray(features)
