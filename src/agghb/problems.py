"""Objective functions with analytic gradients and smoothness constants.

Each constructor returns an immutable :class:`Problem` bundling the value
and gradient callables with the constants the stepsize calculus needs: the
gradient Lipschitz constant ``L``, the strong-convexity constant ``mu``
(0 when none is claimed), and, when available, a known optimum and a lower
bound on the objective.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import theory

if TYPE_CHECKING:
    import scipy.sparse as sp

# Up to this column count a Dataset holds its features dense: numpy dense
# matvecs beat sparse ones on such narrow matrices, and only wider data pays
# for importing scipy.sparse.
_DENSE_FALLBACK_COLS = 64

# The logistic ``value_and_grad`` takes its products over all P columns of
# X (n, P) at once and sums the logistic loss over row chunks of the
# M x P margins whose temporaries stay near this size: the margins are then
# the only M x P array, and each chunk stays in cache.  A single x (n,) is
# not chunked: its temporaries are M values, and splitting them would only
# add interpreter overhead to every iterate of ``harness.run``.
_BLOCK_BYTES = 256 * 1024
# The logistic ``value`` takes a block X (n, P) in groups of columns whose
# M x P' margins stay within this size: that of ``harness.tune``'s own
# 15-column block on 32561 samples, so a block ``value`` holds no larger
# array than the tuning sweep does.
_GROUP_BYTES = 16 * _BLOCK_BYTES

# The logistic ``finite_and_grad`` certifies a block's values finite without
# computing them while M (r_B max|X| + 1), which bounds the loss sum, and the
# penalty stay within this size, 1e8 below overflow (see
# :func:`_logistic_problem`).
_FINITE_CAP = 1e300

# Power iteration in :func:`spectral_norm`: relative change of the Rayleigh
# quotient that ends it, the cap on its products, and its start's seed.
_POWER_REL_TOL = 1e-6
_POWER_MAX_ITERS = 10_000
_POWER_SEED = 0


@dataclass(frozen=True)
class Dataset:
    """Binary-classification data: an M x n feature matrix and +-1 labels.

    ``features`` is held as a dense C-ordered float64 array when
    n <= ``_DENSE_FALLBACK_COLS`` (M * n * 8 bytes, the size of the signed
    copy the logistic objectives keep of it) and as a ``scipy.sparse`` CSR
    matrix otherwise, whichever kind it is given as.  Only wide data imports
    ``scipy.sparse``.  This is the one place that picks the layout: the
    objectives and :func:`spectral_norm` take their products from the type
    of ``features``.
    """

    features: np.ndarray | sp.csr_matrix
    labels: np.ndarray

    def __post_init__(self):
        feats = self.features
        sp = _sparse_module(feats)
        if sp is None:
            feats = _dense(feats)
        if feats.shape[1] > _DENSE_FALLBACK_COLS:
            import scipy.sparse as sp
            feats = sp.csr_matrix(feats)
        elif sp is not None:
            feats = _dense(feats.toarray())
        labels = np.asarray(self.labels, dtype=float).reshape(-1)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.shape[0] != labels.shape[0]:
            raise ValueError(
                f"feature rows {feats.shape[0]} != label count {labels.shape[0]}"
            )
        if labels.shape[0] == 0:
            raise ValueError("cannot build a dataset from zero records")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must all be -1 or +1")
        if not np.all(np.isfinite(_stored_values(feats))):
            raise ValueError("feature matrix contains non-finite values")
        try:
            np.empty(feats.shape[1])  # the dense iterate; untouched pages cost nothing
        except (MemoryError, ValueError):
            raise ValueError(
                f"feature count {feats.shape[1]} is too large: a dense iterate "
                "of that many values cannot be allocated"
            ) from None

    @classmethod
    def from_rows(cls, values, indices, indptr, n: int, labels) -> Dataset:
        """The Dataset of n columns whose row i has its entries at positions
        ``indptr[i]:indptr[i + 1]`` of ``indices`` (0-based columns, none
        twice in a row) and ``values``; narrow features are filled straight
        into their dense array."""
        M = len(indptr) - 1
        if n > _DENSE_FALLBACK_COLS:
            import scipy.sparse as sp
            return cls(sp.csr_matrix((values, indices, indptr), shape=(M, n)), labels)
        features = np.zeros((M, n))
        # adding onto +0.0, as scipy's toarray does, turns a stored -0.0 into +0.0
        features[np.repeat(np.arange(M), np.diff(indptr)), indices] = np.add(values, 0.0)
        return cls(features, labels)

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
        so it stays a true upper bound.  Computed once per dataset.  An estimate
        that did not converge is refused: power iteration approaches
        lambda_max from below, so it could give too small an L."""
        sn, converged = spectral_norm(self.features)
        if not converged:
            raise ValueError("the spectral norm of the features did not converge "
                             f"within {_POWER_MAX_ITERS} power iterations")
        return 1.01 * sn / (4.0 * self.M)


@dataclass(frozen=True)
class Problem:
    """Smooth objective with analytic gradient and known constants.

    ``value_and_grad`` is the objective: it maps x (dim,) to
    ``(value(x), gradient(x))`` from one pass over the data, and the columns
    of X (dim, P) to their values f (P,) and gradients G (dim, P), as it
    maps each column alone up to rounding.  ``harness.run`` makes one call
    per iterate on x, and ``harness.tune`` one on the block of its live grid
    points at its last iterate.  ``finite_and_grad`` is the value-free pass
    ``harness.tune`` makes at every other iterate: it maps X (dim, P) to
    ``(finite (P,), G (dim, P))``, where ``finite`` must equal
    ``np.isfinite`` of the values ``value_and_grad`` gives and G must be
    its gradients bit for bit.  ``value`` maps x (dim,) to a float and
    X (dim, P) to f (P,); ``harness.run`` in theory-cvx mode reads it on
    (dim, B) groups of averaged iterates, back to back once per book of
    iterates, and ``harness.tune`` once on x0, for the f(x0) above which a grid
    point is ``above_start`` and never picked as best.  ``gradient`` maps
    x (dim,) to its gradient and is kept for tests and the benchmark's
    tracer.  All three default to those of
    ``value_and_grad``, derived anew when ``dataclasses.replace`` gives
    another one; give one only where skipping part of it saves work.
    ``reference_opt`` is an exactly-known minimizer ``(x_*, f(x_*))`` when
    one exists; ``f_lower`` is any valid lower bound on the objective (used
    for suboptimality gaps).  ``L_is_local_estimate`` marks an ``L`` that
    holds only on a region, not globally.  ``convex`` marks objectives with
    a reference solution: ``reference_opt`` or Newton's method on
    ``hessian``, the dense Hessian at a point.  ``L`` and ``mu`` are
    checked as every entry point of :mod:`agghb.theory` checks them.
    The logistic objectives reuse one scratch buffer across calls, a single
    x its (M,) views and a block its row chunks (see
    :func:`_logistic_problem`), so a logistic ``Problem`` serves one call
    at a time; nothing in the package calls one concurrently.
    """

    name: str
    dim: int
    value_and_grad: Callable[[np.ndarray], tuple[float | np.ndarray, np.ndarray]]
    L: float
    mu: float = 0.0
    convex: bool = False
    reference_opt: tuple[np.ndarray, float] | None = None
    f_lower: float | None = None
    L_is_local_estimate: bool = False
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    value: Callable[[np.ndarray], float | np.ndarray] | None = None
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    finite_and_grad: Callable[[np.ndarray], tuple[bool | np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        theory._check_L_mu(self.L, self.mu)
        value_and_grad = self.value_and_grad

        def finite_and_grad(X):
            f, G = value_and_grad(X)
            return np.isfinite(f), G

        # A field derived from another value_and_grad, as dataclasses.replace
        # hands over, is derived anew, so that it never reads the old one.
        for name, derived in (("value", lambda X: value_and_grad(X)[0]),
                              ("gradient", lambda x: value_and_grad(x)[1]),
                              ("finite_and_grad", finite_and_grad)):
            source = getattr(getattr(self, name), "derived_from", value_and_grad)
            if getattr(self, name) is None or source is not value_and_grad:
                derived.derived_from = value_and_grad
                object.__setattr__(self, name, derived)


def quadratic(Q: np.ndarray, b: np.ndarray) -> Problem:
    """f(x) = (1/2) x'Qx - b'x for symmetric positive semidefinite Q.

    L and mu are the extreme eigenvalues of Q; when Q is nonsingular the
    optimum Q^-1 b is attached as the reference.
    """
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be square, got shape {Q.shape}")
    if Q.shape[0] < 1:
        raise ValueError(f"Q must have dimension >= 1, got dimension {Q.shape[0]}")
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

    def value_and_grad(X: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
        # A block's columns go through one matrix-vector product and one dot
        # each, as a single x does: a matrix-matrix product rounds Qx
        # differently, and f crosses zero on the way to a nonzero optimum.
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            Qx = Q @ X
            return 0.5 * np.add.reduce(X * Qx) - b @ X, Qx - b
        xs = np.ascontiguousarray(X.T)  # (P, d)
        Qx = (Q @ xs[:, :, None])[:, :, 0]
        f = 0.5 * np.add.reduce(xs * Qx, axis=1) - (xs[:, None, :] @ b)[:, 0]
        return f, (Qx - b).T

    reference = None
    if lam_min > 1e-12 * lam_max:
        x_star = np.linalg.solve(Q, b)
        reference = (x_star, float(value_and_grad(x_star)[0]))

    return Problem(
        name="quadratic", dim=Q.shape[0], value_and_grad=value_and_grad, L=lam_max,
        mu=max(lam_min, 0.0), convex=True, reference_opt=reference,
        f_lower=None if reference is None else reference[1],
    )


def rosenbrock() -> Problem:
    """The 2-D banana valley f(x, y) = (1 - x)^2 + 100 (y - x^2)^2.

    Non-convex with global minimum (1, 1).  There is no global gradient
    Lipschitz constant, so ``L`` is a local estimate: the largest Hessian
    spectral norm over the box [-2, 2]^2, which is where the standard
    trajectories live.
    """

    def value_and_grad(X: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
        # Entries of a float array are numpy scalars, so even a point given as
        # a list overflows to inf rather than raising OverflowError.
        X = np.asarray(X, dtype=float)
        x, y = X[0], X[1]
        r = y - x * x
        f = (1.0 - x) ** 2 + 100.0 * r ** 2
        return f, np.array([-2.0 * (1.0 - x) - 400.0 * x * r, 200.0 * r])

    # Hessian entries: hxx = 2 - 400 y + 1200 x^2, hxy = -400 x, hyy = 200.
    # Its eigenvalues are mean +- radius below.  Over the box the smaller one,
    # and the larger one where hxx < hyy, stay within 1000 of zero; elsewhere
    # the larger one grows with hxx and |hxy|, so the spectral norm peaks at
    # the corners (+-2, -2).
    hxx, hxy, hyy = 5602.0, 800.0, 200.0
    L_local = (hxx + hyy) / 2.0 + math.sqrt(((hxx - hyy) / 2.0) ** 2 + hxy ** 2)

    return Problem(
        name="rosenbrock", dim=2, value_and_grad=value_and_grad, L=L_local, convex=False,
        L_is_local_estimate=True, reference_opt=(np.array([1.0, 1.0]), 0.0), f_lower=0.0,
    )


def _logistic(z: np.ndarray, work: tuple) -> float | np.ndarray:
    """Sum over axis 0 of log(1 + exp(-z)); z is left as it is.

    The loss is log(1 + exp(-z)) = max(-z, 0) + log1p(exp(-|z|)), with
    exp(-|z|) = exp(min(z, -z)) in [0, 1], so it stays finite for any
    finite z: six elementwise passes (negate, min, exp, max, log1p, add)
    and one BLAS product with a vector of ones for the sum: on a (690, 15)
    chunk it takes 3.5 us where ``sum(axis=0)``, which adds row by row,
    takes 25 us, and on a single point 1.0 us against 1.4 us for ``sum()``.

    ``work`` is two scratch arrays of z's shape, owned by the caller and
    overwritten here, and a vector of ones of z's length: every step
    writes into the scratch, so the only array allocated is the returned
    sum, and one scratch serves one call at a time.
    """
    a, e, ones = work
    np.negative(z, out=a)
    np.exp(np.minimum(z, a, out=e), out=e)
    np.maximum(a, 0.0, out=a)
    return ones @ np.add(a, np.log1p(e, out=e), out=a)


def _sigmoid(z: np.ndarray) -> None:
    """Overwrite z with the sigmoid s(-z) = 1 / (1 + exp(z)) in three
    elementwise passes: exp, add 1, then 1 divided by the result.

    For z above log(DBL_MAX) ~ 709.78 the exp overflows to inf and the
    result is 0, within the smallest normal double of the true value
    exp(-z) / (1 + exp(-z)) < 5.6e-309; the overflow raises numpy's
    floating-point flag, which the package's callers ignore under
    ``np.errstate``.  -inf gives 1, +inf 0 and NaN stays NaN.  Where s(-z)
    is a normal double its relative error is a few ulp: exp's, the add's
    and the divide's.  It needs no scratch.
    """
    np.exp(z, out=z)
    np.add(z, 1.0, out=z)
    np.divide(1.0, z, out=z)


def _logistic_problem(data: Dataset, name: str, penalty, L_penalty: float,
                      l2: float | None = None) -> Problem:
    """The ``Problem`` ``name`` of the mean logistic loss on ``data`` plus
    ``penalty``, which maps x (n,) or X (n, P) to its value (one per column)
    and its gradient, and whose curvature is at most ``L_penalty``.  Given
    ``l2``, the penalty is (l2/2) ||x||^2: the problem is convex with
    mu = l2 and a ``hessian``.

    The products are those of the label-signed features B = diag(y) A,
    dense or CSR as the Dataset holds its features.  The labels are +-1,
    so B @ x equals y * (A @ x) exactly.  Blocks X (n, P) go through B and
    ``B.T``, single vectors x (n,) through ``B1`` and ``B1T``, so that
    ``value``, ``value_and_grad`` and ``finite_and_grad`` of one x take the
    same products and agree bit for bit:

    - Dense: blocks, the Hessian and r_B use B in C order, and single
      vectors an F-ordered copy, whose matrix-vector kernels are the faster
      ones in both directions (690 x 14 on a 2-CPU Xeon, OpenBLAS 0.3.31:
      ``B1 @ x`` 2.4 us against 3.4 us in C order, ``B1.T @ s`` 2.1 us
      against 3.2 us).  Blocks stay in C order: there ``B.T @ R`` rounds
      differently in F order at some widths P (2-4 and 9-12 among
      P <= 16), which would move ``harness.tune``'s picks, and the
      (690 x 14) @ (14 x 64) product of theory-cvx's f_avg groups takes
      25 us in C order against 34 us in F order.  The copy adds M n 8
      bytes, at most M * 512 bytes, since dense data has n <= 64.
    - Sparse: ``B1`` is B itself and ``B1T`` a CSR copy of B.T, the faster
      kernel for single vectors; a block R (M, P) goes through the CSC
      view ``B.T``, whose one pass over B beats both that copy and P
      separate products.

    ``value_and_grad`` forms the margins Z = B @ X once, over all columns
    of X at once, and sums their loss (see :func:`_logistic`: six passes and
    a BLAS sum) over row chunks of ``_BLOCK_BYTES // (8 P)`` rows, so the
    margins are its only M x P array; a single x goes to :func:`_logistic`
    in one call.  Its gradient step then overwrites the margins with their
    sigmoid (see :func:`_sigmoid`: three passes over all of them at once; it
    needs no scratch, so no chunks), takes one product with B.T, and
    subtracts it, over M, from the penalty's gradient in place.  ``value``
    skips the gradient step; it takes a block in groups of
    ``_GROUP_BYTES // (8 M)`` columns, each group's margins formed and summed
    in row chunks as above.

    ``finite_and_grad`` runs ``value_and_grad`` without the loss: the same
    gradient step on the same margins, so its gradients are bitwise those.
    It decides finiteness with a certificate read off X alone, before the
    margins are formed, so no M x P array is reduced.
    Each margin obeys |z_ij| <= sum_k |B_ik| |X_kj| <= r_B m, with
    r_B = max_i sum_k |B_ik| and m = max|X|.  r_B is computed once per
    problem, at the first call: on wide data it takes a copy of B and
    about 2 ms that only ``harness.tune`` uses.

    Rounding: a sum of n products computed in any order is within
    gamma_n = n u / (1 - n u), u = 2^-53, of the sum of their absolute
    values.  So the computed row sums understate r_B by at most a factor
    1 - gamma_n, and the certificate's product, add and multiply by M each
    round by at most 1 + u.  Where M (r_B m + 1) <= ``_FINITE_CAP`` = 1e300
    holds as computed, every computed margin, and every partial sum that
    forms it, is then below (1 + 3 gamma_n) 1e300 / M.  Each loss term
    log(1 + exp(-z)) = max(-z, 0) + log1p(exp(-|z|)) lies in
    [0, |z| + log 2] and is computed within (|z| + 1)(1 + 2u), and the
    computed sum of the M terms, in any order, within 1 + gamma_M of their
    sum.  These factors stay below 2 for any n and M a machine can hold,
    far inside the 1e8 headroom the cap leaves below overflow (1.8e308):
    the loss over M is finite and below 5e300.  Adding it to a penalty
    p (P,) gives a finite value where |p| <= 1e300 and a non-finite one
    where p is inf or NaN, so the penalty then decides alone.  A NaN or
    infinite entry of X (NaN fails the comparison, and r_B times inf is
    inf, or NaN when r_B = 0), a bound past the cap, or a finite penalty
    above it fall back to ``value_and_grad``, whose values are then tested.

    All three reuse one flat scratch buffer for :func:`_logistic`, handed
    out as two views of each chunk shape with a vector of ones of its
    length; a single x takes the (M,) views.  These are cached per shape,
    since slicing the views anew takes about 3 us a call, most of what the
    kernel saves on a single x at M = 690.  The buffer is regrown only when
    a larger chunk arrives, so ``harness.tune`` may drop columns between
    calls.  No result is a view into the scratch, but two calls must not
    overlap: a logistic ``Problem`` serves one call at a time.
    """
    M = data.M  # closing over data would keep its unsigned features alive beside B
    sparse = _sparse_module(data.features)
    if sparse is None:
        B = data.labels[:, None] * data.features
        B1 = np.asfortranarray(B)
        B1T = B1.T
    else:
        B = data.features.copy()
        B.data *= np.repeat(data.labels, np.diff(B.indptr))  # row i times y_i, O(nnz)
        B1, B1T = B, B.T.tocsr()
    r_B = None  # at the first finite_and_grad call
    scratch = np.empty(0)
    views: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}

    def work(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        nonlocal scratch
        found = views.get(shape)
        if found is None:
            size = math.prod(shape)
            if 2 * size > scratch.size:
                scratch = np.empty(2 * size)
                views.clear()
            found = views[shape] = (
                *(scratch[i * size:(i + 1) * size].reshape(shape) for i in range(2)),
                np.ones(shape[0]),
            )
        return found

    def margins(X: np.ndarray) -> np.ndarray:
        return (B1 if X.ndim == 1 else B) @ X

    def loss(Z: np.ndarray) -> float | np.ndarray:
        """:func:`_logistic` of the margins z (M,) in one call, or of Z (M, P)
        over row chunks."""
        if Z.ndim == 1:
            return _logistic(Z, work(Z.shape))
        rows = max(1, _BLOCK_BYTES // (8 * Z.shape[1]))
        chunk = Z[:rows]
        total = _logistic(chunk, work(chunk.shape))
        for lo in range(rows, M, rows):
            chunk = Z[lo:lo + rows]
            total += _logistic(chunk, work(chunk.shape))
        return total

    def grad(Z: np.ndarray, G: np.ndarray) -> np.ndarray:
        """The gradient G - B.T s(-Z) / M, written into G, the penalty's own
        fresh array; Z is overwritten."""
        _sigmoid(Z)
        r = (B1T if Z.ndim == 1 else B.T) @ Z
        r /= M
        return np.subtract(G, r, out=G)

    def value(X: np.ndarray) -> float | np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            return float(loss(B1 @ X) / M + penalty(X)[0])
        cols = max(1, _GROUP_BYTES // (8 * M))
        return np.concatenate([
            loss(B @ Xg) / M + penalty(Xg)[0]
            for Xg in (X[:, lo:lo + cols] for lo in range(0, X.shape[1], cols))
        ])

    def value_and_grad(X: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=float)
        f, G = penalty(X)
        Z = margins(X)
        f = f + loss(Z) / M  # before grad overwrites Z
        return f, grad(Z, G)

    def finite_and_grad(X: np.ndarray) -> tuple[bool | np.ndarray, np.ndarray]:
        nonlocal r_B
        if r_B is None:
            r_B = float(np.max(abs(B) @ np.ones(B.shape[1]), initial=0.0))
        X = np.asarray(X, dtype=float)
        f, G = penalty(X)
        finite = np.isfinite(f)
        # a NaN entry of X fails the comparison
        if (M * (r_B * np.abs(X).max(initial=0.0) + 1.0) <= _FINITE_CAP
                and not (np.abs(f[finite]) > _FINITE_CAP).any()):
            return finite, grad(margins(X), G)
        f, G = value_and_grad(X)
        return np.isfinite(f), G

    def hessian(x: np.ndarray) -> np.ndarray:
        e = np.exp(-np.abs(B @ np.asarray(x, dtype=float)))
        w = e / (1.0 + e) ** 2
        H = (B.T * w) @ B if sparse is None else (B1T @ sparse.diags(w) @ B).toarray()
        H /= M
        H[np.diag_indices_from(H)] += l2
        return H

    return Problem(
        name=name, dim=data.n, value_and_grad=value_and_grad, value=value,
        finite_and_grad=finite_and_grad, L=data.logistic_L + L_penalty,
        mu=0.0 if l2 is None else l2, convex=l2 is not None, f_lower=0.0,
        hessian=None if l2 is None else hessian,
    )


def _check_strength(name: str, value: float, data: Dataset) -> None:
    """Refuse a strength outside [0, inf), and 0 on data with no nonzero
    feature value, where the objective is the constant log 2 and L is 0."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    if value == 0.0 and not _stored_values(data.features).any():
        raise ValueError(f"the data has no nonzero feature value, so with {name} = 0 the "
                         f"objective is constant and has no positive L; give {name} > 0")


def logreg_l2(data: Dataset, l2: float) -> Problem:
    """Mean logistic loss plus (l2/2) ||x||^2.

    L = lambda_max(A'A)/(4M) + l2 (see :attr:`Dataset.logistic_L`) and
    mu = l2.  The Hessian is A' diag(w) A / M + l2 I, w = e / (1 + e)^2 with
    e = exp(-|Ax|): the sigmoid's s(1 - s) without its rounding to 0.
    """
    _check_strength("l2", l2, data)
    return _logistic_problem(data, "logreg-l2",
                             lambda X: (0.5 * l2 * np.add.reduce(X * X), l2 * X), l2, l2=l2)


def logreg_nonconvex(data: Dataset, lam: float) -> Problem:
    """Mean logistic loss plus the bounded ratio penalty lam * sum x_j^2/(1 + x_j^2).

    The penalty's curvature is at most 2 per coordinate, so
    L = lambda_max(A'A)/(4M) + 2*lam; the objective is non-convex for lam > 0.
    """
    _check_strength("lambda", lam, data)

    def penalty(X: np.ndarray):
        xsq = X * X
        return lam * np.add.reduce(xsq / (1.0 + xsq)), 2.0 * lam * X / (1.0 + xsq) ** 2

    return _logistic_problem(data, "logreg-ncvx", penalty, 2.0 * lam)


def spectral_norm(A) -> tuple[float, bool]:
    """Largest eigenvalue of A'A by power iteration on repeated matvecs.

    ``A`` is a ``scipy.sparse`` matrix, taken as CSR, or anything
    ``np.asarray`` reads as a matrix; each step forms A.T @ (A @ v) with
    the products of that form (BLAS on a dense array, which never imports
    ``scipy.sparse``), two passes over A.  The iteration starts from a
    seeded random direction and stops once the Rayleigh quotient moves by
    at most ``_POWER_REL_TOL`` of itself, or after ``_POWER_MAX_ITERS``
    products.  Returns (estimate, converged).  The zero matrix, stored
    entries that are all zero included, yields (0.0, True).

    Each product is scaled by the power of two that brings its largest
    entry into [1/2, 1) before it is normalized, so its norm neither
    overflows nor underflows wherever the products themselves do not.  The
    scaling is exact, so A times a power of two 2^k gives the estimate
    times 2^(2k), bit for bit, unless a product leaves the normal range.
    """
    sp = _sparse_module(A)
    A = sp.csr_matrix(A) if sp is not None else _dense(A)
    if not _stored_values(A).any():
        return 0.0, True

    n = A.shape[1]
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_MAX_ITERS):
        w = A.T @ (A @ v)
        lam_new = float(v @ w)  # Rayleigh quotient, ||v|| = 1
        top = np.abs(w).max()
        if top == 0.0:
            # v landed in the nullspace of A; restart from a new direction.
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            continue
        w = np.ldexp(w, -np.frexp(top)[1])
        v = w / np.linalg.norm(w)
        if abs(lam_new - lam) <= _POWER_REL_TOL * abs(lam_new):
            return lam_new, True
        lam = lam_new
    return lam, False


def _sparse_module(A):
    """``scipy.sparse`` when ``A`` is one of its matrices, else None.  Such an
    ``A`` has loaded the module already, so this never imports it."""
    sp = sys.modules.get("scipy.sparse")
    return sp if sp is not None and sp.issparse(A) else None


def _dense(A) -> np.ndarray:
    """``A`` as a C-ordered float64 matrix."""
    A = np.ascontiguousarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"a feature matrix must be 2-D, got shape {A.shape}")
    return A


def _stored_values(A) -> np.ndarray:
    """The values a matrix holds: all of a dense one, the stored ones of CSR."""
    return A if isinstance(A, np.ndarray) else A.data
