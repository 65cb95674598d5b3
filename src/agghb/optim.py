"""Momentum state machines: heavy-ball and its aggregated multi-buffer variant.

The aggregated method keeps ``m`` momentum buffers with individual decay
factors ``beta_i`` and stepsizes ``gamma_i``.  Every step folds the current
gradient into each buffer and moves the iterate by the average of the scaled
buffers:

    V_i <- beta_i * V_i + g
    x   <- x - (1/m) * sum_i gamma_i * V_i

With ``m = 1`` this is exactly the classical heavy-ball recurrence, and with
all ``beta_i = 0`` it collapses to gradient descent with step
``(1/m) * sum_i gamma_i``.

The buffers are one (m, d) array.  :func:`step_inplace` is the step
arithmetic on such arrays, updated in place; it also advances a batch of
iterates, with X (d, P) and buffers V (m, d, P).  :func:`step` applies it to
copies, so an :class:`OptimizerState` is never modified and can be replayed
freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DivergenceError(RuntimeError):
    """An update produced non-finite values.

    Carries the last finite state so callers can record a truncated run
    instead of crashing.
    """

    def __init__(self, message: str, state: "OptimizerState | None" = None):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class AggConfig:
    """Knobs of the aggregated method: momentum decays and stepsizes.

    ``betas`` and ``gammas`` must have equal length ``m >= 1``, with every
    ``beta_i`` in ``[0, 1)`` and every ``gamma_i > 0``.  (The theory breaks
    down at ``beta = 1``, so the library excludes it outright.)
    """

    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        gammas = tuple(float(g) for g in self.gammas)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "gammas", gammas)
        if len(betas) < 1:
            raise ValueError("need at least one (beta, gamma) pair")
        if len(betas) != len(gammas):
            raise ValueError(
                f"betas and gammas must have equal length, got {len(betas)} != {len(gammas)}"
            )
        for b in betas:
            if not (0.0 <= b < 1.0) or not np.isfinite(b):
                raise ValueError(f"momentum parameter {b} outside [0, 1)")
        for g in gammas:
            if not (g > 0.0) or not np.isfinite(g):
                raise ValueError(f"stepsize {g} must be positive and finite")

    @property
    def m(self) -> int:
        return len(self.betas)


@dataclass(frozen=True)
class OptimizerState:
    """Iterate, momentum buffers, and step counter of one run.

    ``buffers`` is one (m, d) array, row ``i`` holding ``V_i``.  After
    ``init`` the buffers are zero; the buffers stored at counter ``k`` are
    the ones that produced ``x`` (i.e. the values as of step ``k - 1``),
    which is what the virtual-iterate formula reads.
    """

    x: np.ndarray
    buffers: np.ndarray
    k: int
    config: AggConfig


def init(config: AggConfig, x0: np.ndarray) -> OptimizerState:
    """Fresh state at ``x0`` with zero momentum buffers.

    The zero-buffer convention makes the first step a plain gradient step of
    size ``(1/m) * sum_i gamma_i``, since every buffer becomes the bare
    gradient.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x0)):
        raise ValueError("starting point contains non-finite values")
    buffers = np.zeros((config.m, x0.shape[0]))
    return OptimizerState(x=x0.copy(), buffers=buffers, k=0, config=config)


def weighted_sum(coefs, V: np.ndarray) -> np.ndarray:
    """``sum_i coefs[i] * V[i]`` over the leading axis of ``V``, accumulated in
    index order."""
    acc = coefs[0] * V[0]
    for i in range(1, len(V)):
        acc += coefs[i] * V[i]
    return acc


def step_inplace(
    x: np.ndarray, V: np.ndarray, grad: np.ndarray, betas: np.ndarray, gammas
) -> None:
    """One aggregated step on ``x`` and its buffers ``V``, both updated in place.

    ``V`` holds the m buffers along its leading axis: (m, d) for one iterate
    ``x`` (d,), or (m, d, P) for P iterates as the columns of ``x`` (d, P).
    ``betas`` has shape (m, 1) or (m, 1, 1) to broadcast against ``V``, and
    ``gammas[i]`` is a float or a (P,) row of per-column stepsizes.  ``grad``
    is read before ``x`` is written, so it may be a view of ``x``.
    """
    V *= betas
    V += grad
    x -= weighted_sum(gammas, V) / len(V)


def step(state: OptimizerState, grad: np.ndarray) -> OptimizerState:
    """Advance one iteration given the gradient at ``state.x``."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.x.shape:
        raise ValueError(f"gradient shape {grad.shape} != iterate shape {state.x.shape}")
    if not np.all(np.isfinite(grad)):
        raise DivergenceError(f"non-finite gradient at iteration {state.k}", state=state)

    cfg = state.config
    x, V = state.x.copy(), state.buffers.copy()
    step_inplace(x, V, grad, np.array(cfg.betas)[:, None], cfg.gammas)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(V))):
        raise DivergenceError(f"iterate diverged at iteration {state.k}", state=state)
    return OptimizerState(x=x, buffers=V, k=state.k + 1, config=cfg)


def virtual_coefficients(config: AggConfig) -> tuple[float, ...]:
    """Buffer weights ``beta_i gamma_i / (1 - beta_i)`` of the virtual iterate."""
    return tuple(b * g / (1.0 - b) for b, g in zip(config.betas, config.gammas))


def virtual_iterate(state: OptimizerState) -> np.ndarray:
    """Momentum-corrected iterate x - (1/m) sum_i (beta_i gamma_i / (1 - beta_i)) V_i.

    This auxiliary sequence follows a pure gradient recursion with step
    ``(1/m) sum_i gamma_i / (1 - beta_i)`` and is used by tests and the run
    harness as an internal consistency check.  The buffers stored in the
    state are exactly the ones the formula needs, so this reads them
    directly; on a fresh state it returns ``x0``.
    """
    cfg = state.config
    return state.x - weighted_sum(virtual_coefficients(cfg), state.buffers) / cfg.m


def virtual_step_size(config: AggConfig) -> float:
    """Effective stepsize (1/m) sum_i gamma_i / (1 - beta_i) of the virtual recursion."""
    return sum(g / (1.0 - b) for b, g in zip(config.betas, config.gammas)) / config.m


@dataclass(frozen=True)
class AveragingState:
    """Online weighted average of iterates with geometrically growing weights.

    Point ``x_k`` gets weight proportional to ``rho**k`` with
    ``rho = (1 - mu*F/2)**-1 >= 1``.  The running sums are kept normalized so
    that the most recent weight is 1; nothing ever grows like ``rho**K``.
    """

    xbar: np.ndarray
    weight_sum: float
    rho: float

    @classmethod
    def fresh(cls, rho: float, dim: int) -> "AveragingState":
        if not (rho >= 1.0) or not np.isfinite(rho):
            raise ValueError(f"weight ratio rho must be >= 1, got {rho}")
        return cls(xbar=np.zeros(dim), weight_sum=0.0, rho=float(rho))


def average_inplace(xbar: np.ndarray, weight_sum: float, rho: float, x_k: np.ndarray) -> float:
    """Fold ``x_k`` into the average ``xbar`` in place; returns the new weight sum.

    Normalized recurrence: previous weights shrink by 1/rho, the new point
    gets weight 1.
    """
    w = weight_sum / rho + 1.0
    xbar *= w - 1.0
    xbar += x_k
    xbar /= w
    return w


def averaging_update(avg: AveragingState, x_k: np.ndarray) -> AveragingState:
    """Fold the next iterate into the running weighted average."""
    if avg.rho < 1.0:
        raise ValueError(f"weight ratio rho must be >= 1, got {avg.rho}")
    xbar = avg.xbar.copy()
    w = average_inplace(xbar, avg.weight_sum, avg.rho, np.asarray(x_k, dtype=float))
    return AveragingState(xbar=xbar, weight_sum=w, rho=avg.rho)
