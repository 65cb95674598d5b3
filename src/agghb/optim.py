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
updates in place; it makes all its buffer sums, the stepsizes' and the
virtual iterate's, from one product of weights and buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def check_betas(betas) -> tuple[float, ...]:
    """``betas`` as floats: at least one, each in ``[0, 1)``.  The one check of
    a set of momentum decays, whether it comes from flags, a sidecar or code."""
    betas = tuple(float(b) for b in betas)
    if not betas:
        raise ValueError("need at least one beta")
    for b in betas:
        if not 0.0 <= b < 1.0:  # false for nan too
            raise ValueError(f"momentum parameter {b} outside [0, 1)")
    return betas


def check_gammas(gammas) -> tuple[float, ...]:
    """``gammas`` as floats, each positive and finite.  The one check of a set
    of stepsizes, whether an :class:`AggConfig`'s or a tuning grid's."""
    gammas = tuple(float(g) for g in gammas)
    for g in gammas:
        if not (g > 0.0) or not np.isfinite(g):
            raise ValueError(f"stepsize {g} must be positive and finite")
    return gammas


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
        betas = check_betas(self.betas)
        gammas = tuple(float(g) for g in self.gammas)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "gammas", gammas)
        if len(betas) != len(gammas):
            raise ValueError(
                f"betas and gammas must have equal length, got {len(betas)} != {len(gammas)}"
            )
        check_gammas(gammas)

    @property
    def m(self) -> int:
        return len(self.betas)


def init(m: int, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A copy of ``x0`` and ``m`` zero buffers V of shape ``(m,) + x0.shape``.

    With zero buffers the first step is a plain gradient step of size
    ``(1/m) * sum_i gamma_i``, since every buffer becomes the bare gradient.
    """
    return x0.copy(), np.zeros((m,) + x0.shape)


def step(x: np.ndarray, V: np.ndarray, grad: np.ndarray, betas: np.ndarray, weights) -> np.ndarray:
    """One aggregated step on ``x`` and its buffers ``V``, both updated in place.

    ``V`` holds the m buffers along its leading axis: (m, d) for one iterate
    ``x`` (d,), or (m, d, P) for P iterates as the columns of ``x`` (d, P).
    ``betas`` has shape (m, 1) or (m, 1, 1), and ``weights`` (k, m, 1) or
    (k, m, 1, P): row 0 holds the stepsizes, further rows other buffer
    weights.  ``x`` moves by row 0's mean (1/m) sum_i weights[r, i] V_i,
    summed in index order, and the means of rows 1.. are returned.  ``grad``
    may be a view of ``x``: it is read first.  Nothing is checked: a
    non-finite ``grad`` or an overflow leaves non-finite entries.
    """
    V *= betas
    V += grad
    # In C order the buffer axis lies outside the rest, so reduce adds the
    # buffers in index order, unless the rest is one value: then accumulate.
    terms = np.multiply(weights, V, order="C")
    if V.size == len(V):
        sums = np.add.accumulate(terms, axis=1)[:, -1]
    else:
        sums = np.add.reduce(terms, axis=1)
    sums /= len(V)
    x -= sums[0]
    return sums[1:]


def virtual_coefficients(config: AggConfig) -> tuple[float, ...]:
    """Buffer weights ``beta_i gamma_i / (1 - beta_i)`` of the virtual iterate."""
    return tuple(b * g / (1.0 - b) for b, g in zip(config.betas, config.gammas))


def virtual_iterate(x: np.ndarray, offset: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Momentum-corrected iterate x - offset, written into ``out``, for the
    ``offset`` that :func:`step` returns on a row of :func:`virtual_coefficients`;
    it follows a gradient recursion whose step is the constant F of
    :func:`theory.constants`, (1/m) sum_i gamma_i / (1 - beta_i)."""
    return np.subtract(x, offset, out=out)


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
