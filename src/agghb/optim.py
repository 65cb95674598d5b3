"""Aggregated heavy-ball: the step, the virtual iterate and iterate averaging.

The aggregated method keeps ``m`` momentum buffers with individual decay
factors ``beta_i`` and stepsizes ``gamma_i``.  Every step folds the current
gradient into each buffer and moves the iterate by the average of the scaled
buffers:

    V_i <- beta_i * V_i + g
    x   <- x - (1/m) * sum_i gamma_i * V_i

With ``m = 1`` this is exactly the classical heavy-ball recurrence, and with
all ``beta_i = 0`` it collapses to gradient descent with step
``(1/m) * sum_i gamma_i``.

The state is two arrays from :func:`init`, the iterate x (d,) and buffers
V (m, d), or X (d, P) and V (m, d, P) for P iterates, which :func:`step`
updates in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def init(m: int, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A copy of ``x0`` and ``m`` zero buffers V of shape ``(m,) + x0.shape``.

    With zero buffers the first step is a plain gradient step of size
    ``(1/m) * sum_i gamma_i``, since every buffer becomes the bare gradient.
    """
    return x0.copy(), np.zeros((m,) + x0.shape)


def weighted_sum(coefs, V: np.ndarray) -> np.ndarray:
    """``sum_i coefs[i] * V[i]`` over the leading axis of ``V``, accumulated in
    index order."""
    acc = coefs[0] * V[0]
    for i in range(1, len(V)):
        acc += coefs[i] * V[i]
    return acc


def step(x: np.ndarray, V: np.ndarray, grad: np.ndarray, betas: np.ndarray, gammas) -> None:
    """One aggregated step on ``x`` and its buffers ``V``, both updated in place.

    ``V`` holds the m buffers along its leading axis: (m, d) for one iterate
    ``x`` (d,), or (m, d, P) for P iterates as the columns of ``x`` (d, P).
    ``betas`` has shape (m, 1) or (m, 1, 1) to broadcast against ``V``, and
    ``gammas[i]`` is a float or a (P,) row of per-column stepsizes.  ``grad``
    is read before ``x`` is written, so it may be a view of ``x``.  Nothing
    is checked: a non-finite ``grad`` or an overflow leaves non-finite
    entries, which the caller tests for.
    """
    V *= betas
    V += grad
    x -= weighted_sum(gammas, V) / len(V)


def virtual_coefficients(config: AggConfig) -> tuple[float, ...]:
    """Buffer weights ``beta_i gamma_i / (1 - beta_i)`` of the virtual iterate."""
    return tuple(b * g / (1.0 - b) for b, g in zip(config.betas, config.gammas))


def virtual_iterate(x: np.ndarray, V: np.ndarray, coefs) -> np.ndarray:
    """Momentum-corrected iterate x - (1/m) sum_i coefs[i] V_i, a new array.

    With ``coefs`` from :func:`virtual_coefficients` this sequence follows a
    pure gradient recursion with step :func:`virtual_step_size`, which the
    run harness checks after every step.  On zero buffers it equals ``x``.
    """
    return x - weighted_sum(coefs, V) / len(V)


def virtual_step_size(config: AggConfig) -> float:
    """Effective stepsize (1/m) sum_i gamma_i / (1 - beta_i) of the virtual recursion."""
    return sum(g / (1.0 - b) for b, g in zip(config.betas, config.gammas)) / config.m


def averaging_update(xbar: np.ndarray, weight_sum: float, rho: float, x_k: np.ndarray) -> float:
    """Fold ``x_k`` into the average ``xbar`` in place; returns the new weight sum.

    Point ``x_k`` gets weight proportional to ``rho**k``, with ``rho >= 1``
    ensured by the caller.  The weights are normalized so that the newest is
    1 and nothing grows like ``rho**K``: previous weights shrink by 1/rho.
    Start from a zero ``xbar`` and ``weight_sum = 0``.
    """
    w = weight_sum / rho + 1.0
    xbar *= w - 1.0
    xbar += x_k
    xbar /= w
    return w
