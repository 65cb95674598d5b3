"""Objective functions with analytic gradients and smoothness constants.

Each constructor returns an immutable :class:`Problem` bundling the value
and gradient callables with the constants the stepsize calculus needs: the
gradient Lipschitz constant ``L``, the strong-convexity constant ``mu``
(0 when none is claimed), and, when available, a known optimum and a lower
bound on the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

# Below this column count a dense copy of the feature matrix is kept; numpy
# dense matvecs beat sparse ones on such narrow matrices.
_DENSE_FALLBACK_COLS = 64

# The batched logistic objectives take their products over all P columns of
# X at once and run the elementwise logistic over row chunks of the M x P
# margins whose temporaries stay near this size: the margins are then the
# only M x P array, and each chunk stays in cache.
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class Dataset:
    """Binary-classification data: sparse M x n feature matrix and +-1 labels."""

    features: sp.csr_matrix
    labels: np.ndarray

    def __post_init__(self):
        feats = sp.csr_matrix(self.features)
        labels = np.asarray(self.labels, dtype=float).reshape(-1)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.shape[0] != labels.shape[0]:
            raise ValueError(
                f"feature rows {feats.shape[0]} != label count {labels.shape[0]}"
            )
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must all be -1 or +1")
        if feats.nnz and not np.all(np.isfinite(feats.data)):
            raise ValueError("feature matrix contains non-finite values")
        try:
            np.empty(feats.shape[1])  # the dense iterate; untouched pages cost nothing
        except (MemoryError, ValueError):
            raise ValueError(
                f"feature count {feats.shape[1]} is too large: a dense iterate "
                "of that many values cannot be allocated"
            ) from None

    @property
    def M(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]

    @cached_property
    def logistic_L(self) -> float:
        """Gradient Lipschitz constant of the mean logistic loss on this data,
        lambda_max(A'A)/(4M), with the spectral norm estimate inflated by 1%
        so it stays a true upper bound.  Computed once per dataset."""
        sn, _ = spectral_norm(self.features)
        return 1.01 * sn / (4.0 * self.M)


@dataclass(frozen=True)
class Problem:
    """Smooth objective with analytic gradient and known constants.

    ``value_and_grad`` returns ``(value(x), gradient(x))`` from one pass over
    the data; ``harness.run`` makes one such call per iterate.
    ``batch_objective`` evaluates many points at once: the columns of
    X (dim, P) map to their values f (P,) and gradients G (dim, P), as
    ``value`` and ``gradient`` would up to rounding; the stepsize sweep
    advances all its grid points through it.  ``reference_opt`` is an
    exactly-known minimizer ``(x_*, f(x_*))`` when one exists; ``f_lower`` is
    any valid lower bound on the objective (used for suboptimality gaps).
    ``convex`` marks objectives for which a reference solution may be
    computed by descent.  ``hessian``, when set, returns the dense Hessian
    matrix at a point; the reference solver then uses Newton's method.
    """

    name: str
    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]
    batch_objective: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    L: float
    mu: float = 0.0
    convex: bool = False
    reference_opt: tuple[np.ndarray, float] | None = None
    f_lower: float | None = None
    params: dict = field(default_factory=dict)
    hessian: Callable[[np.ndarray], np.ndarray] | None = None


def quadratic(Q: np.ndarray, b: np.ndarray) -> Problem:
    """f(x) = (1/2) x'Qx - b'x for symmetric positive semidefinite Q.

    L and mu are the extreme eigenvalues of Q; when Q is nonsingular the
    optimum Q^-1 b is attached as the reference.
    """
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be square, got shape {Q.shape}")
    if Q.shape[0] != b.shape[0]:
        raise ValueError("Q and b dimensions disagree")
    if not np.allclose(Q, Q.T, rtol=1e-10, atol=1e-12):
        raise ValueError("Q must be symmetric")
    eigs = np.linalg.eigvalsh(Q)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_max <= 0:
        raise ValueError("Q must be nonzero positive semidefinite")
    if lam_min < -1e-10 * lam_max:
        raise ValueError(f"Q is not positive semidefinite (lambda_min = {lam_min:.3g})")
    mu = max(lam_min, 0.0)

    def value(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ (Q @ x) - b @ x)

    def value_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        Qx = Q @ x
        return float(0.5 * x @ Qx - b @ x), Qx - b

    def batch_objective(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        QX = Q @ X
        return 0.5 * np.einsum("ij,ij->j", X, QX) - b @ X, QX - b[:, None]

    reference = None
    f_lower = None
    if lam_min > 1e-12 * lam_max:
        x_star = np.linalg.solve(Q, b)
        f_star = float(0.5 * x_star @ (Q @ x_star) - b @ x_star)
        reference = (x_star, f_star)
        f_lower = f_star

    return Problem(
        name="quadratic",
        dim=Q.shape[0],
        value=value,
        gradient=lambda x: value_and_grad(x)[1],
        L=lam_max,
        mu=mu,
        convex=True,
        reference_opt=reference,
        f_lower=f_lower,
        params={"dim": Q.shape[0]},
        batch_objective=batch_objective,
        value_and_grad=value_and_grad,
    )


def rosenbrock() -> Problem:
    """The 2-D banana valley f(x, y) = (1 - x)^2 + 100 (y - x^2)^2.

    Non-convex with global minimum (1, 1).  There is no global gradient
    Lipschitz constant, so ``L`` is a local estimate: the largest Hessian
    spectral norm over a grid covering the box [-2, 2]^2, which is where the
    standard trajectories live.
    """

    def value_and_grad(p: np.ndarray) -> tuple[float, np.ndarray]:
        x, y = np.float64(p[0]), np.float64(p[1])  # np scalars: overflow -> inf, not OverflowError
        r = y - x * x
        f = float((1.0 - x) ** 2 + 100.0 * r ** 2)
        return f, np.array([-2.0 * (1.0 - x) - 400.0 * x * r, 200.0 * r])

    def batch_objective(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, y = X[0], X[1]
        r = y - x * x
        f = (1.0 - x) ** 2 + 100.0 * r ** 2
        return f, np.stack((-2.0 * (1.0 - x) - 400.0 * x * r, 200.0 * r))

    # Hessian entries: hxx = 2 - 400 y + 1200 x^2, hxy = -400 x, hyy = 200.
    xs = np.linspace(-2.0, 2.0, 81)
    ys = np.linspace(-2.0, 2.0, 81)
    X, Y = np.meshgrid(xs, ys)
    hxx = 2.0 - 400.0 * Y + 1200.0 * X * X
    hxy = -400.0 * X
    hyy = np.full_like(hxx, 200.0)
    mean = (hxx + hyy) / 2.0
    radius = np.sqrt(((hxx - hyy) / 2.0) ** 2 + hxy ** 2)
    L_local = float(np.max(np.maximum(np.abs(mean + radius), np.abs(mean - radius))))

    return Problem(
        name="rosenbrock",
        dim=2,
        value=lambda p: value_and_grad(p)[0],
        gradient=lambda p: value_and_grad(p)[1],
        L=L_local,
        mu=0.0,
        convex=False,
        reference_opt=(np.array([1.0, 1.0]), 0.0),
        f_lower=0.0,
        params={"L_is_local_estimate": True},
        batch_objective=batch_objective,
        value_and_grad=value_and_grad,
    )


def _feature_operator(data: Dataset):
    """Products with the label-signed features B = diag(y) A:
    (B @ x, B.T @ r, B.T diag(w) B = A.T diag(w) A as a dense n x n matrix),
    with a dense fast path for narrow matrices.  The labels are +-1, so
    B @ x equals y * (A @ x) exactly.

    On the sparse path a CSR copy of B.T serves single vectors, where it is
    the faster kernel; a block R (M, P) goes through the CSC view ``B.T``,
    whose one pass over B beats both that copy and P separate products."""
    if data.n <= _DENSE_FALLBACK_COLS:
        B = data.labels[:, None] * data.features.toarray()
        return (lambda x: B @ x), (lambda r: B.T @ r), (lambda w: (B.T * w) @ B)
    B = data.features.copy()
    B.data *= np.repeat(data.labels, np.diff(B.indptr))  # row i times y_i, O(nnz)
    BT = B.T.tocsr()
    return (
        (lambda x: B @ x),
        (lambda r: (BT if r.ndim == 1 else B.T) @ r),
        (lambda w: (BT @ sp.diags(w) @ B).toarray()),
    )


def _logistic(z: np.ndarray, grad: bool = True) -> np.ndarray:
    """Sum over axis 0 of log(1 + exp(-z)); when ``grad``, z is overwritten
    with expit(-z).

    Both come from one exp(-|z|) per entry:
    log(1 + exp(-z)) = max(-z, 0) + log1p(exp(-|z|)), and
    expit(-z) = exp(-|z|) / (1 + exp(-|z|)) for z >= 0, 1 / (1 + exp(-|z|))
    otherwise; both forms stay finite for any finite z.
    """
    e = np.exp(-np.abs(z))
    loss = (np.maximum(-z, 0.0) + np.log1p(e)).sum(axis=0)
    if grad:
        np.divide(np.where(z >= 0.0, e, 1.0), 1.0 + e, out=z)
    return loss


def _logistic_objectives(data: Dataset, matvec, rmatvec, penalty):
    """``value``, ``value_and_grad`` and ``batch_objective`` of the mean
    logistic loss plus ``penalty``, which maps x (n,) or X (n, P) to its
    value (one per column) and its gradient.

    Each call forms the margins z = y * Ax once, one exp(-|z|) per entry
    (see :func:`_logistic`) and one product with B.T.  ``batch_objective``
    takes both products over the whole block X and runs the logistic over
    row chunks of ``_BLOCK_BYTES // (8 P)`` rows, writing expit(-z) back into
    the margins, so the margins are its only M x P array.
    """
    M = data.M

    def value(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(_logistic(matvec(x), grad=False) / M + penalty(x)[0])

    def value_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        z = matvec(x)
        loss = _logistic(z)
        reg, reg_grad = penalty(x)
        return float(loss / M + reg), reg_grad - rmatvec(z) / M

    def batch_objective(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f, G = penalty(X)
        Z = matvec(X)
        rows = max(1, _BLOCK_BYTES // (8 * X.shape[1]))
        loss = np.zeros(X.shape[1])
        for lo in range(0, M, rows):
            loss += _logistic(Z[lo:lo + rows])
        f += loss / M
        G -= rmatvec(Z) / M
        return f, G

    return value, value_and_grad, batch_objective


def logreg_l2(data: Dataset, l2: float) -> Problem:
    """Mean logistic loss plus (l2/2) ||x||^2.

    L = lambda_max(A'A)/(4M) + l2 (see :attr:`Dataset.logistic_L`) and
    mu = l2.  The Hessian is A' diag(s(1 - s)) A / M + l2 I with
    s = expit(y * Ax).
    """
    if l2 < 0:
        raise ValueError("l2 must be nonnegative")
    matvec, rmatvec, weighted_gram = _feature_operator(data)
    value, value_and_grad, batch_objective = _logistic_objectives(
        data, matvec, rmatvec,
        lambda X: (0.5 * l2 * (X * X).sum(axis=0), l2 * X),
    )

    def hessian(x: np.ndarray) -> np.ndarray:
        s = expit(matvec(np.asarray(x, dtype=float)))
        H = weighted_gram(s * (1.0 - s)) / data.M
        H[np.diag_indices_from(H)] += l2
        return H

    return Problem(
        name="logreg-l2",
        dim=data.n,
        value=value,
        gradient=lambda x: value_and_grad(x)[1],
        L=data.logistic_L + l2,
        mu=l2,
        convex=True,
        f_lower=0.0,
        params={"l2": l2, "M": data.M},
        hessian=hessian,
        batch_objective=batch_objective,
        value_and_grad=value_and_grad,
    )


def logreg_nonconvex(data: Dataset, lam: float) -> Problem:
    """Mean logistic loss plus the bounded ratio penalty lam * sum x_j^2/(1 + x_j^2).

    The penalty's curvature is at most 2 per coordinate, so
    L = lambda_max(A'A)/(4M) + 2*lam; the objective is non-convex for lam > 0.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")

    def penalty(X: np.ndarray):
        xsq = X * X
        return lam * (xsq / (1.0 + xsq)).sum(axis=0), 2.0 * lam * X / (1.0 + xsq) ** 2

    matvec, rmatvec, _ = _feature_operator(data)
    value, value_and_grad, batch_objective = _logistic_objectives(
        data, matvec, rmatvec, penalty
    )
    return Problem(
        name="logreg-ncvx",
        dim=data.n,
        value=value,
        gradient=lambda x: value_and_grad(x)[1],
        L=data.logistic_L + 2.0 * lam,
        mu=0.0,
        convex=False,
        f_lower=0.0,
        params={"lambda": lam, "M": data.M},
        batch_objective=batch_objective,
        value_and_grad=value_and_grad,
    )


def spectral_norm(
    A, rel_tol: float = 1e-6, max_iters: int = 10_000, seed: int = 0
) -> tuple[float, bool]:
    """Largest eigenvalue of A'A by power iteration on repeated matvecs.

    Returns (estimate, converged).  The zero matrix yields (0.0, True).
    """
    if sp.issparse(A):
        A = sp.csr_matrix(A)
        nnz = A.nnz
    else:
        A = np.asarray(A, dtype=float)
        nnz = int(np.count_nonzero(A))
    if nnz == 0:
        return 0.0, True

    n = A.shape[1]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        w = A.T @ (A @ v)
        lam_new = float(v @ w)  # Rayleigh quotient, ||v|| = 1
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            # v landed in the nullspace of A; restart from a new direction.
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            continue
        v = w / norm_w
        if abs(lam_new - lam) <= rel_tol * abs(lam_new):
            return lam_new, True
        lam = lam_new
    return lam, False


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
