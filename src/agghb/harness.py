"""Experiment driver: run optimizers on problems, tune stepsizes, check bounds.

A run is fully described by a :class:`RunConfig`; identical configs on the
same problem produce byte-identical trace CSVs, and ``meta.json`` sidecars
that differ only in ``wall_time``.  Traces carry the per-iteration
metrics behind convergence plots plus enough metadata (resolved stepsizes,
theory-constant snapshot, starting point) to re-verify the theoretical
bounds later from the exported files alone.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
import time
from contextlib import suppress
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import Iterator

import numpy as np

from . import theory
from .libsvm import load_libsvm, to_dataset
from .optim import (AggConfig, averaging_update, check_betas, check_gammas, init, step,
                    virtual_coefficients, virtual_iterate)
from .problems import Problem, logreg_l2, logreg_nonconvex, quadratic, rosenbrock

STEPSIZE_MODES = ("explicit", "theory-ncvx", "theory-cvx", "tune", "tuned")
THEORY_MODES = ("theory-ncvx", "theory-cvx")
_NOT_COVERED = "the guarantee does not cover this configuration"
TUNING_GRID = tuple(2.0 ** p for p in range(-6, 9))  # gamma = a / L, 15 points

DATA_DIR_ENV = "AGGHB_DATA_DIR"


class VerificationRefused(RuntimeError):
    """Bound verification requested on a trace the guarantees say nothing about."""


class TuningError(RuntimeError):
    """No stepsize in the tuning grid ended at or below f(x0) without
    diverging; ``sweep`` holds the table."""

    def __init__(self, message: str, sweep):
        super().__init__(message)
        self.sweep = sweep


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run, minus the problem object itself.

    ``stepsize_mode`` is the single stepsize source: explicit/tuned carry the
    values in ``gammas``, the theory modes derive a uniform stepsize from the
    problem constants, and ``tune`` is a request that :func:`tune` resolves.
    ``betas`` must pass :func:`optim.check_betas`, checked after every other
    field but ``optimizer``: that is the kind ``betas`` make, "gd" when all
    are 0, else "hb" for one and "agghb" for several, and a kind given that
    differs is refused last.
    """

    problem: str
    betas: tuple[float, ...]
    stepsize_mode: str
    gammas: tuple[float, ...] | None = None
    iters: int = 1000
    seed: int = 0
    problem_params: dict = field(default_factory=dict)
    optimizer: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if self.gammas is not None:
            object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if isinstance(self.iters, bool) or operator.index(self.iters) < 1:
            raise ValueError("iteration budget must be an integer >= 1")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.stepsize_mode not in STEPSIZE_MODES:
            raise ValueError(f"unknown stepsize mode {self.stepsize_mode!r}")
        needs_gammas = self.stepsize_mode in ("explicit", "tuned")
        if needs_gammas and self.gammas is None:
            raise ValueError(f"mode {self.stepsize_mode!r} requires explicit gammas")
        if not needs_gammas and self.gammas is not None:
            raise ValueError(
                f"mode {self.stepsize_mode!r} must not carry explicit gammas"
            )
        if self.gammas is not None and len(self.gammas) != len(self.betas):
            raise ValueError("betas and gammas must have equal length")
        check_betas(self.betas)
        kind = "gd" if not any(self.betas) else "hb" if len(self.betas) == 1 else "agghb"
        if self.optimizer not in (None, kind):
            raise ValueError(f"optimizer {self.optimizer!r} does not match betas "
                             f"{self.betas}, which make it {kind!r}")
        object.__setattr__(self, "optimizer", kind)


@dataclass
class Trace:
    """Per-iteration metrics of one run plus reproduction metadata.

    Row ``k`` of each array holds the metrics at iterate ``x_k`` (before
    step ``k+1``); ``f_avg`` is the objective at the running weighted-average
    iterate and is tracked only in the convex theory mode.
    ``max_virtual_residual`` is the largest relative defect of the
    momentum-corrected iterate recursion seen during the run, a cheap
    self-check of the update arithmetic.  :func:`run` records ``f`` and
    ``grad_norm`` at each iterate and settles ``dist_opt``, ``f_avg`` and
    ``max_virtual_residual`` once per book of iterates.
    """

    f: np.ndarray
    grad_norm: np.ndarray
    dist_opt: np.ndarray | None
    f_avg: np.ndarray | None
    config: RunConfig
    gammas: tuple[float, ...]
    constants: dict
    x0: np.ndarray
    wall_time: float
    diverged: bool
    max_virtual_residual: float


def default_start(problem: Problem, seed: int) -> np.ndarray:
    """Deterministic starting point: seeded Gaussian for quadratics, the
    classic (-1.2, 1) for the banana valley, zeros for regression weights."""
    if problem.name == "rosenbrock":
        return np.array([-1.2, 1.0])
    if problem.name == "quadratic":
        return np.random.default_rng(seed).standard_normal(problem.dim)
    return np.zeros(problem.dim)


def start_point(config: RunConfig, problem: Problem) -> np.ndarray:
    """Starting point of a run: ``problem_params["x0"]`` when given, else
    :func:`default_start`.  Refused unless it is a finite vector of the
    problem's dimension."""
    if "x0" in config.problem_params:
        x0 = np.asarray(config.problem_params["x0"], dtype=float)
    else:
        x0 = default_start(problem, config.seed)
    if x0.shape != (problem.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, not a vector of the problem's "
                         f"dimension {problem.dim}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("starting point contains non-finite values")
    return x0


def resolve_gammas(config: RunConfig, problem: Problem) -> tuple[float, ...]:
    """Materialize the stepsizes a run will use."""
    if config.stepsize_mode in ("explicit", "tuned"):
        return config.gammas
    if config.stepsize_mode == "theory-ncvx":
        g = theory.stepsize_nonconvex(config.betas, problem.L)
    elif config.stepsize_mode == "theory-cvx":
        g = theory.stepsize_convex(config.betas, problem.L, problem.mu)
    else:
        raise ValueError(
            "stepsize mode 'tune' is unresolved; call tune() to pick gammas first"
        )
    return (g,) * len(config.betas)


def _constants_snapshot(
    acfg: AggConfig, problem: Problem, horizon: int
) -> dict[str, float]:
    consts = theory.constants(acfg, horizon=horizon)
    ncvx = theory.check_nonconvex_condition(consts, problem.L, acfg.m)
    cvx = theory.check_convex_conditions(acfg, consts, problem.L, problem.mu)
    return {**asdict(consts), **asdict(theory.effective_betas(acfg.betas)),
            "L": problem.L, "mu": problem.mu, "nonconvex_margin": ncvx.margin,
            "f_margin": cvx.f_margin, "bf_margin": cvx.bf_margin}


# ``run`` keeps its per-iterate arrays in one book of up to ``_BOOK_GROUPS``
# groups of ``_GROUP_ROWS`` rows and settles every metric once per book;
# fewer groups, or one shorter group, when one book array would pass about
# ``_BOOK_BYTES``.  Theory-cvx's ``value`` calls take one group each: on
# logistic data each is a dense BLAS burst after which the CPU runs the
# next ~2 ms slower, so the calls are bunched, not spread (theory-cvx
# logreg-l2 at d = 14 on a 2-CPU AVX-512 Xeon: 45 us per iterate with one
# burst per 64 iterates, 37 us with one per 1,024).
_GROUP_ROWS = 64
_BOOK_GROUPS = 16
_BOOK_BYTES = 1 << 20


def book_rows(dim: int) -> int:
    """Rows of :func:`run`'s book for iterates of ``dim`` values: as many
    whole groups of ``_GROUP_ROWS`` as fit in ``_BOOK_BYTES``, at most
    ``_BOOK_GROUPS``, else one group of as many rows as fit, at least one."""
    fit = _BOOK_BYTES // (8 * max(dim, 1))
    if fit < _GROUP_ROWS:
        return max(1, fit)
    return _GROUP_ROWS * min(_BOOK_GROUPS, fit // _GROUP_ROWS)


def run(config: RunConfig, problem: Problem) -> Trace:
    """Execute a configured run and record metrics at every iterate.

    The iterate x (d,) and the momentum buffers V (m, d) from
    :func:`optim.init` are updated in place by :func:`optim.step`.  Each
    iterate makes one ``problem.value_and_grad`` call on x, whose first
    gradient must have the iterate's shape, and each step one ``step``
    call; theory-cvx folds every iterate into the average that
    :func:`optim.averaging_update` keeps, and refuses a weight ratio
    rho = 1/(1 - mu*F/2) below 1 or infinite.  The run stops early, flagged
    ``diverged``, at the first non-finite objective or gradient, or when a
    step makes the iterate or buffers non-finite.

    The other metrics are settled once per book of :func:`book_rows`
    iterates, and at exit, from the book's arrays of the gradients, step
    offsets, iterates and (theory-cvx) averages: ``dist_opt`` in one
    vectorised pass; the virtual iterates from one
    :func:`optim.virtual_iterate` call, checked against their pure gradient
    recursion, the largest relative defect kept as
    ``max_virtual_residual``; and ``f_avg`` from one ``problem.value`` call
    per group of B = min(book, 64) rows, back to back, each on a (d, B)
    view of the group (a short last group is padded with its last average,
    so every call has the same width and row k does not depend on the
    budget).
    """
    gammas = resolve_gammas(config, problem)
    acfg = AggConfig(betas=config.betas, gammas=gammas)
    x0 = start_point(config, problem)

    snapshot = _constants_snapshot(acfg, problem, horizon=config.iters)
    track_avg = config.stepsize_mode == "theory-cvx"
    x_star = problem.reference_opt[0] if problem.reference_opt is not None else None
    objective = problem.value_and_grad

    t0 = time.perf_counter()
    x, V = init(acfg.m, x0)
    betas = np.array(acfg.betas)[:, None]
    if track_avg:
        rho = 1.0 / (1.0 - problem.mu * snapshot["F"] / 2.0)
        if not (1.0 <= rho < math.inf):
            raise ValueError(f"averaging weight ratio rho must be >= 1 and finite, got {rho}")
        xbar, weight_sum = np.zeros(problem.dim), 0.0

    vstep = snapshot["F"]
    # Row 0 moves x; row 1 gives the virtual iterate's offset from the same product.
    weights = np.array([gammas, virtual_coefficients(acfg)])[:, :, None]
    # Row r of the book belongs to its r-th iterate: its gradient, the offset
    # of the step it takes and its average, and in ``xs`` and ``tildes`` one
    # row down, the iterate and virtual iterate that step leads to.  Row 0 of
    # those two carries the last book's final ones.
    N = book_rows(problem.dim)
    B = min(N, _GROUP_ROWS)
    xs, tildes = np.empty((N + 1, problem.dim)), np.empty((N + 1, problem.dim))
    grads, offsets = np.empty((N, problem.dim)), np.empty((N, problem.dim))
    avgs = np.empty((N, problem.dim)) if track_avg else None
    xs[0] = tildes[0] = x
    max_residual = 0.0

    fs, gsqs = [], []
    dists = [] if x_star is not None else None
    favgs = [] if track_avg else None
    diverged = False

    def settle(rows: int, steps: int) -> None:
        """Metrics of the book's first ``rows`` iterates and ``steps`` steps."""
        nonlocal max_residual
        if dists is not None:
            e = xs[:rows] - x_star
            dists.append(np.sqrt(np.einsum("ij,ij->i", e, e)))
        new, old = tildes[1:steps + 1], tildes[:steps]
        virtual_iterate(xs[1:steps + 1], offsets[:steps], new)
        resid = new - (old - vstep * grads[:steps])
        defect = np.sqrt(np.einsum("ij,ij->i", resid, resid)) / (
            1.0 + np.sqrt(np.einsum("ij,ij->i", old, old)))
        max_residual = float(np.fmax.reduce(defect, initial=max_residual))
        if favgs is not None:
            end = -(-rows // B) * B
            avgs[rows:end] = avgs[rows - 1]
            for lo in range(0, end, B):
                group = avgs[lo:lo + B].T
                f = np.asarray(problem.value(group), dtype=float)
                if f.shape != (B,):
                    raise ValueError(f"value of a {group.shape} block has shape {f.shape}, not ({B},)")
                favgs.append(f[:rows - lo])

    r = 0  # row of iterate k in the book
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.iters + 1):
            f_k, g_k = objective(x)
            if k == 0:
                if np.shape(f_k) != ():
                    raise ValueError(f"value at a single point has shape {np.shape(f_k)}, not ()")
                if g_k.shape != x.shape:
                    raise ValueError(f"gradient shape {g_k.shape} != iterate shape {x.shape}")
            gsq = g_k @ g_k
            fs.append(f_k)
            gsqs.append(gsq)
            if track_avg:
                weight_sum = averaging_update(xbar, weight_sum, rho, x)
                avgs[r] = xbar
            # One scalar clears the common case; the elementwise test runs
            # only when it is not finite, which overflow alone can cause.
            if not math.isfinite(f_k + gsq) and not (
                math.isfinite(f_k) and np.isfinite(g_k).all()
            ):
                diverged = True
                break
            if k == config.iters:
                break
            # g_k may be a view of x, which the step overwrites; it is read
            # only before that.
            grads[r] = g_k
            offsets[r] = step(x, V, g_k, betas, weights)[0]
            # A non-finite buffer entry always reaches x through the averaged
            # update, so x alone decides in the common case.
            if not math.isfinite(np.add.reduce(x)) and not (
                np.isfinite(x).all() and np.isfinite(V).all()
            ):
                diverged = True
                break
            r += 1
            xs[r] = x
            if r == N:
                settle(N, N)
                xs[0], tildes[0] = xs[N], tildes[N]
                r = 0
        settle(r + 1, r)

    wall = time.perf_counter() - t0
    return Trace(
        f=np.asarray(fs, dtype=float),
        grad_norm=np.sqrt(np.asarray(gsqs, dtype=float)),
        dist_opt=None if dists is None else np.concatenate(dists),
        f_avg=None if favgs is None else np.concatenate(favgs),
        config=config,
        gammas=gammas,
        constants=snapshot,
        x0=x0.copy(),
        wall_time=wall,
        diverged=diverged,
        max_virtual_residual=max_residual,
    )


@dataclass(frozen=True)
class SweepEntry:
    """One grid point of :func:`tune`: its ``final_f`` is +inf when it
    ``diverged``, and ``diverged_at`` is then the iterate k at which its
    column was dropped, else None.  ``above_start`` marks a point that did
    not diverge but ended above f(x0); it is never picked as best."""

    a: float
    gamma: float
    final_f: float
    diverged: bool
    diverged_at: int | None
    above_start: bool


def tune(base: RunConfig, problem: Problem) -> tuple[RunConfig, list[SweepEntry]]:
    """Grid-search the uniform stepsize gamma = a/L over a in 2^-6 .. 2^8.

    All grid points advance together: the iterates are the columns of one
    X (d, P) and the momentum buffers one V (m, d, P), and every column
    follows :func:`run`'s recurrence and divergence rule.  Each iterate
    k < K makes one ``problem.finite_and_grad`` call on the block of live
    columns, since the rule reads only whether their objective values are
    finite, and the last, k = K, one ``problem.value_and_grad`` call for
    the values.  A point diverges when its objective or gradient turns
    non-finite, or a step makes its iterate or buffers non-finite; its
    column is then dropped at that k, its ``diverged_at``, and its
    ``final_f`` stays +inf, which no point that reaches the last iterate
    has.  Only non-finite values count: a point that ends above f(x0)
    without overflowing is not ``diverged`` but ``above_start``, f(x0) being
    one ``problem.value`` call; its ``final_f`` is chaotic, so a change of
    rounding anywhere in the objective can move it far more than it moves a
    converging point's.  A chaotic point can also end at or below f(x0),
    and is then not flagged.  Best is the lowest final objective among points
    neither diverged nor above start, ties broken toward the smaller
    stepsize; with none left, :class:`TuningError`.  Since any such point
    ends at or below f(x0), below every above-start point, this is the
    lowest among all non-diverged points whenever one exists.  Returns the
    resolved config (mode "tuned") and the full sweep table.
    """
    if base.stepsize_mode != "tune":
        raise ValueError("tune() expects a config with stepsize mode 'tune'")
    m = len(base.betas)
    with np.errstate(over="ignore"):  # check_gammas refuses what a tiny L overflows
        gammas = check_gammas(np.array(TUNING_GRID) / problem.L)
    x0 = start_point(base, problem)

    P = len(TUNING_GRID)
    live = np.arange(P)  # grid indices of the columns still advancing
    # Each column's stepsize for all m buffers, as step's single weight row.
    weights = np.tile(gammas, (1, m, 1, 1))
    beta = np.array(base.betas)[:, None, None]
    X, V = init(m, np.repeat(x0.reshape(-1, 1), P, axis=1))
    final_f = np.full(P, np.inf)
    diverged_at = [None] * P
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = problem.value(x0)
        if np.shape(f0) != ():
            raise ValueError(f"value at a single point has shape {np.shape(f0)}, not ()")
        f0 = float(f0)
        for k in range(base.iters + 1):
            last = k == base.iters
            # A non-finite gradient entry makes its buffers, and through them
            # the new iterate, non-finite, so X covers G except at the last
            # iterate, where no step is taken.
            if last:
                f, G = problem.value_and_grad(X)
                finite, checked = np.isfinite(f), G
            else:
                finite, G = problem.finite_and_grad(X)
                step(X, V, G, beta, weights)
                checked = X
            # One mask reduction and one finite scalar clear the common case.
            if not (finite.all() and np.isfinite(checked.sum())):
                keep = finite & np.isfinite(checked).all(axis=0)
                for i in live[~keep].tolist():
                    diverged_at[i] = k
                live, weights = live[keep], weights[..., keep]
                X, V = X[:, keep], V[:, :, keep]
                if last:
                    f = f[keep]
            if last:
                final_f[live] = f
            if live.size == 0:
                break

    sweep = [SweepEntry(a=a, gamma=g, final_f=fv, diverged=k is not None, diverged_at=k,
                        above_start=k is None and fv > f0)
             for a, g, fv, k in zip(TUNING_GRID, gammas, final_f.tolist(), diverged_at)]
    # min keeps the first of equal values, and the grid ascends: ties keep the smaller a
    best = min((e for e in sweep if not (e.diverged or e.above_start)),
               key=lambda e: e.final_f, default=None)
    if best is None:
        raise TuningError("every stepsize in the tuning grid diverged or ended above "
                          f"f(x0) = {f0!r}", sweep)
    return replace(base, stepsize_mode="tuned", gammas=(best.gamma,) * m), sweep


@dataclass(frozen=True)
class Reference:
    """Best-known minimizer with the achieved gradient norm as certificate.

    ``certified`` records whether that norm reached the requested tolerance;
    bounds checked against an uncertified reference prove nothing.
    """

    x: np.ndarray
    f: float
    grad_norm: float
    certified: bool


NEWTON_MAX_ITERS = 100
ARMIJO_C = 1e-4


def _newton(
    problem: Problem, x: np.ndarray, grad_tol: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """Damped Newton with Armijo backtracking.

    The start and each trial point are one ``problem.value_and_grad`` call,
    and an accepted trial keeps its gradient.  Returns the last iterate with
    its value and gradient once the gradient norm reaches ``grad_tol``, or
    earlier on a singular Hessian, a non-descent direction, a failed line
    search or after ``NEWTON_MAX_ITERS`` iterations.
    """
    f, g = problem.value_and_grad(x)
    for _ in range(NEWTON_MAX_ITERS):
        if np.linalg.norm(g) <= grad_tol:
            break
        try:
            d = -np.linalg.solve(problem.hessian(x), g)
        except np.linalg.LinAlgError:
            break
        slope = float(g @ d)
        if not slope < 0.0:
            break
        # Near the optimum the predicted decrease drops below the rounding
        # error of f; a full step is then accepted unless f visibly rises, and
        # the gradient norm alone measures progress.
        noise = 64.0 * np.finfo(float).eps * max(1.0, abs(f))
        t = 1.0
        while True:
            x_new = x + t * d
            f_new, g_new = problem.value_and_grad(x_new)
            if f_new <= f + ARMIJO_C * t * slope:
                break
            if t == 1.0 and -slope <= noise and f_new <= f + noise:
                break
            t *= 0.5
            if t < 1e-10:
                return x, f, g
        x, f, g = x_new, f_new, g_new
    return x, f, g


def reference_solution(problem: Problem, grad_tol: float = 1e-10) -> Reference:
    """High-accuracy optimum of a convex problem.

    Uses the closed form when the problem carries one, and otherwise damped
    Newton from x = 0 on the problem's ``hessian`` (logistic regression); a
    convex problem with neither is a ``ValueError``.  The returned gradient
    norm is the error certificate, and ``certified`` says whether it reached
    ``grad_tol``: a failed Newton solve stops within ``NEWTON_MAX_ITERS``
    iterations and returns its last iterate uncertified.
    """
    if not problem.convex:
        raise ValueError(
            f"problem {problem.name!r} is not convex; use its known optimum directly"
        )
    # The logistic sigmoid's exp overflows to inf on margins past 709.78,
    # which gives its exact limit 0; that flag is not a fault here.
    with np.errstate(over="ignore"):
        if problem.reference_opt is not None:
            x, f = problem.reference_opt
            x, g = np.asarray(x, dtype=float), problem.value_and_grad(x)[1]
        elif problem.hessian is not None:
            x, f, g = _newton(problem, np.zeros(problem.dim), grad_tol)
        else:
            raise ValueError(
                f"problem {problem.name!r} has neither a closed-form optimum nor a "
                "Hessian for Newton's method"
            )
    gnorm = float(np.linalg.norm(g))
    return Reference(x=x, f=float(f), grad_norm=gnorm, certified=gnorm <= grad_tol)


@dataclass(frozen=True)
class CheckRow:
    K: int
    observed: float
    bound: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    mode: str
    rows: tuple[CheckRow, ...]
    passed: bool
    certificate: float | None  # reference gradient norm, convex modes only
    certified: bool | None  # whether that norm reached its tolerance


def bound_checkpoints(budget: int) -> list[int]:
    """Logarithmically spaced prefixes 10, 100, ... capped by the budget."""
    ks = []
    k = 10
    while k < budget:
        ks.append(k)
        k *= 10
    ks.append(budget)
    return ks


def verify_bounds(
    trace: Trace, problem: Problem, reference: Reference | None = None
) -> VerificationReport:
    """Check the observed trace against the guarantee its stepsize mode claims.

    Non-convex mode compares the best squared gradient norm over each prefix
    with its ceiling; convex modes compare the weighted-average suboptimality
    with its ceiling, allowing twice the reference certificate as slack for
    the imperfectly known optimum.  A convex report whose reference is not
    ``certified`` does not pass, whatever its rows say: the slack is then
    no longer small.  A prefix beyond the trace's last row, as after a
    divergence, observes infinity and fails.  Without a given ``reference``,
    one is computed with :func:`reference_solution`.  A configuration that
    fails the theorem's admissibility check (convex: at horizon ``iters``)
    is refused with :class:`VerificationRefused` naming the failing margin,
    and a convex-mode trace of a problem that is not convex is refused
    naming the problem, as is a trace whose start has another dimension or
    whose recorded ``L`` or ``mu`` is more than 1e-12 relative from the
    problem's.
    """
    if trace.x0.shape != (problem.dim,):
        raise VerificationRefused(f"the trace starts at a point of shape {trace.x0.shape}, but "
                                  f"problem {problem.name!r} has dimension {problem.dim}")
    for key, value in (("L", problem.L), ("mu", problem.mu)):
        got = trace.constants.get(key)
        if not (_finite_number(got) and abs(got - value) <= 1e-12 * value):
            raise VerificationRefused(f"the trace records {key}={got!r}, but problem "
                                      f"{problem.name!r} has {key}={value!r}")
    mode = trace.config.stepsize_mode
    if mode not in THEORY_MODES:
        raise VerificationRefused(
            f"trace was produced with stepsize mode {mode!r}; bounds are only "
            "claimed for theory-derived stepsizes (theory-ncvx, theory-cvx)"
        )
    budget = trace.config.iters
    acfg = AggConfig(betas=trace.config.betas, gammas=trace.gammas)
    consts = theory.constants(acfg, horizon=budget)
    recorded = len(trace.f) - 1  # last recorded iterate index

    # Each mode sets the series it bounds, observed[K] at prefix K, with the
    # bound function and slack for it.
    certificate = certified = None
    if mode == "theory-ncvx":
        cond = theory.check_nonconvex_condition(consts, problem.L, acfg.m)
        if not cond.admissible:  # a vacuous bound (A = 0) divides by zero
            failed = f"A={consts.A!r}" if cond.vacuous else f"nonconvex_margin={cond.margin!r}"
            raise VerificationRefused(f"{_NOT_COVERED}: {failed} must be > 0")
        if problem.f_lower is None:
            raise ValueError(
                "non-convex verification needs a known lower bound on the objective"
            )
        delta0 = float(trace.f[0]) - problem.f_lower
        # best squared gradient norm over k = 1 .. K
        observed = np.minimum.accumulate(np.r_[np.inf, trace.grad_norm[1:] ** 2])
        bound = partial(
            theory.bound_nonconvex, delta0=delta0, L=problem.L, consts=consts, m=acfg.m
        )
        slack = 0.0
    else:
        if not problem.convex:
            raise VerificationRefused(
                f"{_NOT_COVERED}: problem {problem.name!r} is not convex"
            )
        if trace.f_avg is None:
            raise ValueError("trace carries no averaged-iterate objective values")
        cond = theory.check_convex_conditions(acfg, consts, problem.L, problem.mu)
        if not cond.ok:
            margins = [("f_margin", cond.f_margin), ("bf_margin", cond.bf_margin)]
            margins += [(f"stepsize_margin_{i}", v) for i, v in enumerate(cond.stepsize_margins, 1)]
            failed = " ".join(f"{k}={v!r}" for k, v in margins if not v >= 0)
            raise VerificationRefused(f"{_NOT_COVERED}: {failed} must be >= 0")
        if reference is None:
            reference = reference_solution(problem)
        certificate = reference.grad_norm
        certified = reference.certified
        r0_sq = float(np.linalg.norm(trace.x0 - reference.x) ** 2)
        observed = trace.f_avg - reference.f
        bound = partial(theory.bound_convex, r0_sq=r0_sq, mu=problem.mu, F=consts.F)
        slack = 2.0 * certificate

    rows = []
    for K in bound_checkpoints(budget):
        obs = float(observed[K]) if K <= recorded else float("inf")
        ceiling = bound(K)
        rows.append(CheckRow(
            K=K, observed=obs, bound=ceiling, slack=slack, passed=obs <= ceiling + slack,
        ))

    return VerificationReport(
        mode=mode,
        rows=tuple(rows),
        passed=all(r.passed for r in rows) and certified is not False,
        certificate=certificate,
        certified=certified,
    )


# ---------------------------------------------------------------------------
# Problem construction from serializable descriptions (CLI and trace re-load)
# ---------------------------------------------------------------------------

def resolve_data_path(path: str | Path) -> Path:
    """Find a dataset file, falling back to $AGGHB_DATA_DIR for bare names."""
    p = Path(path)
    if p.exists():
        return p
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        candidate = Path(env) / p
        if candidate.exists():
            return candidate
    raise FileNotFoundError(
        f"dataset file {path!r} not found (also tried ${DATA_DIR_ENV})"
    )


REQUIRED = object()  # stands in the table for the default of a required parameter
# Each problem's parameters and their defaults; all also take "x0" (see start_point).
PROBLEM_PARAMS = {
    "quadratic": {"dim": 10},
    "rosenbrock": {},
    "logreg-l2": {"data": REQUIRED, "n_features": None, "l2": 0.0},
    "logreg-ncvx": {"data": REQUIRED, "n_features": None, "lambda": 0.0},
}


class ProblemParamError(ValueError):
    """A parameter, ``param``, that the problem lacks, does not take or cannot read."""

    def __init__(self, message: str, param: str):
        super().__init__(message)
        self.param = param


def _integer(key: str, value) -> int:
    """An int from a flag's text, a JSON integer or a whole JSON float; never a bool."""
    if (isinstance(value, (str, numbers.Integral)) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        with suppress(ValueError):
            return int(value)
    raise ProblemParamError(f"{key!r} must be an integer, got {value!r}", key)


def _dimension(key: str, value) -> int:
    if (dim := _integer(key, value)) < 1:
        raise ProblemParamError(f"quadratic dimension must be >= 1, got {dim}", key)
    return dim


def _strength(key: str, value) -> float | str:
    """A float from a flag's text or a JSON number, or "auto"; the constructors
    check that it is finite and nonnegative."""
    if value == "auto":
        return value
    if isinstance(value, (str, numbers.Real)) and not isinstance(value, bool):
        with suppress(ValueError, OverflowError):
            return float(value)
    raise ProblemParamError(f"{key!r} must be a number or 'auto', got {value!r}", key)


def _path(key: str, value) -> str:
    if isinstance(value, str) and value:
        return value
    raise ProblemParamError(f"{key!r} must be a non-empty string, got {value!r}", key)


# The one reader of each parameter's value, whether a flag's text or a value
# read back from meta.json.
PARAM_PARSERS = {
    "dim": _dimension,
    "n_features": lambda key, value: None if value is None else _integer(key, value),
    "l2": _strength,
    "lambda": _strength,
    "data": _path,
}


def build_problem(name: str, params: dict) -> Problem:
    """Construct a problem from its id and serializable parameters.

    Parameters not given take their :data:`PROBLEM_PARAMS` defaults, and every
    value goes through its :data:`PARAM_PARSERS` entry.  A parameter the
    problem does not take (other than "x0"), a required one left out, a value
    its parser refuses, or ``params`` that are not a dict, is a
    :class:`ProblemParamError`.  Regularization strengths accept "auto":
    base/1e5 (convex) or base/1e3 (non-convex), base being the unregularized L.
    """
    if not isinstance(name, str) or name not in PROBLEM_PARAMS:
        raise ValueError(f"unknown problem id {name!r}")
    if not isinstance(params, dict):
        raise ProblemParamError(f"'problem_params' must be a dict, got {params!r}",
                                "problem_params")
    takes = PROBLEM_PARAMS[name]
    p = {}
    for key, value in {**takes, **params}.items():
        if key not in takes and key != "x0":
            raise ProblemParamError(f"{key!r} makes no sense with problem {name!r}", key)
        if value is REQUIRED or value is None and takes.get(key) is REQUIRED:
            raise ProblemParamError(f"problem {name!r} requires {key!r}", key)
        if key != "x0":
            p[key] = PARAM_PARSERS[key](key, value)
    if name == "quadratic":
        return quadratic(np.diag(np.arange(1.0, p["dim"] + 1.0)), np.zeros(p["dim"]))
    if name == "rosenbrock":
        return rosenbrock()
    data = to_dataset(load_libsvm(resolve_data_path(p["data"])), n_features=p["n_features"])
    if name == "logreg-l2":
        return logreg_l2(data, data.logistic_L / 1e5 if p["l2"] == "auto" else p["l2"])
    return logreg_nonconvex(data, data.logistic_L / 1e3 if p["lambda"] == "auto" else p["lambda"])


# ---------------------------------------------------------------------------
# Trace export / import
# ---------------------------------------------------------------------------

# The per-iterate columns after ``k`` in CSV order, each with whether a run may
# leave it empty on every row (``dist_opt`` with no known optimum, ``f_avg``).
TRACE_COLUMNS = {"f": False, "grad_norm": False, "dist_opt": True, "f_avg": True}
CSV_HEADER = ",".join(["k", *TRACE_COLUMNS])
# export_trace writes this many CSV rows at a time, and read_trace reads this
# many characters at a time, so neither holds every row's text at once.
_CHUNK_ROWS = 1024
_READ_CHARS = 1 << 14


def _meta_path(csv_path: Path) -> Path:
    if csv_path.suffix == ".csv":
        return csv_path.with_suffix(".meta.json")
    return csv_path.parent / (csv_path.name + ".meta.json")


def export_trace(trace: Trace, path: str | Path) -> tuple[Path, Path]:
    """Write a trace as CSV plus a JSON metadata sidecar.

    The same trace always produces byte-identical files: floats are written
    with full round-trip precision and the metadata keys are sorted.
    """
    csv_path = Path(path)
    columns = [[""] * len(trace.f) if (c := getattr(trace, name)) is None else map(repr, c.tolist())
               for name in TRACE_COLUMNS]
    rows = (f"{k},{','.join(row)}\n" for k, row in enumerate(zip(*columns)))
    with csv_path.open("w") as fh:
        fh.write(CSV_HEADER + "\n")
        while chunk := "".join(islice(rows, _CHUNK_ROWS)):
            fh.write(chunk)

    meta = {key: getattr(trace, key) for key in _SIDECAR_VALUES}
    meta.update(schema=1, config=asdict(trace.config), gammas=list(trace.gammas),
                x0=[float(v) for v in trace.x0])
    meta_path = _meta_path(csv_path)
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return csv_path, meta_path


def _finite_number(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


# Each trace field the sidecar carries besides "schema" and "config": what it must be.
_SIDECAR_VALUES = {
    "gammas": ("one finite positive number per beta", lambda v, config: (
        isinstance(v, list) and len(v) == len(config.betas)
        and all(_finite_number(g) and g > 0 for g in v))),
    "diverged": ("true or false", lambda v, config: isinstance(v, bool)),
    "max_virtual_residual": ("a finite number >= 0",
                             lambda v, config: _finite_number(v) and v >= 0),
    "wall_time": ("a finite number >= 0", lambda v, config: _finite_number(v) and v >= 0),
    "x0": ("a list of finite numbers",
           lambda v, config: isinstance(v, list) and all(map(_finite_number, v))),
    "constants": ("an object", lambda v, config: isinstance(v, dict)),
}


def _line_chunks(fh) -> Iterator[list[str]]:
    """The lines of the text file ``fh``, cut as ``str.splitlines`` cuts its
    whole text, in one list per :data:`_READ_CHARS` characters read that end
    a line.  Universal newlines leave only one-character breaks (no "\\r"
    to split from its "\\n"), so a block's breaks are those of the text; a
    sentinel after the block makes its last piece the start of a line that
    a later block ends, kept in pieces so that a long line is joined once."""
    pieces = []  # the start of the line no block read so far ends
    while block := fh.read(_READ_CHARS):
        lines = (block + "x").splitlines()
        last = lines.pop()[:-1]
        if lines:
            pieces.append(lines[0])
            lines[0] = "".join(pieces)
            pieces = []
            yield lines
        pieces.append(last)
    if tail := "".join(pieces):
        yield [tail]


def _parse_rows(chunks: Iterator[list[str]]) -> dict[str, np.ndarray | None]:
    """Each :data:`TRACE_COLUMNS` column of the CSV rows, given in lists of
    lines, as a float64 array, None for an optional column empty on every
    row.  The cells of each list are read a column at a time from one flat
    list; once that fails, the rows are walked one by one to name the first
    bad line, and when no row is bad, an optional column empty on some rows
    and filled on others, at the first row unlike row 0 (the first such
    column in column order)."""
    width = len(TRACE_COLUMNS) + 1
    # each column's arrays, led by an empty one so that no rows concatenate
    columns = {name: [np.empty(0)] for name in TRACE_COLUMNS}
    unlike = None  # once walking: each column's first row unlike row 0
    lo = 0  # row of the list's first line
    for lines in filter(None, chunks):
        if lo == 0:
            blank0 = [not c for c in lines[0].split(",")]
        if unlike is None:
            try:
                cells = ",".join(lines).split(",")
                if ({line.count(",") for line in lines} != {width - 1}
                        or list(map(int, cells[::width])) != list(range(lo, lo + len(lines)))):
                    raise ValueError
                for j, (name, optional) in enumerate(TRACE_COLUMNS.items(), start=1):
                    cells_j = cells[j::width]
                    if columns[name] is not None and (lo or not optional or any(cells_j)):
                        columns[name].append(np.array(list(map(float, cells_j))))
                    elif any(cells_j):
                        raise ValueError  # filled after rows left empty
                    else:
                        columns[name] = None  # empty from row 0 on
                lo += len(lines)
                continue
            except ValueError:
                unlike, columns = {}, None
        for lineno, line in enumerate(lines, start=lo + 2):
            parts = line.split(",")
            if len(parts) != width:
                raise ValueError(f"line {lineno}: expected {width} fields, got {len(parts)}")
            try:
                k_row = int(parts[0])
                [float(c) for c, opt in zip(parts[1:], TRACE_COLUMNS.values()) if c or not opt]
            except ValueError:
                raise ValueError(f"line {lineno}: malformed numeric field") from None
            if k_row != lineno - 2:
                raise ValueError(f"line {lineno}: expected k={lineno - 2}, got k={k_row}")
            for j, name in enumerate(TRACE_COLUMNS, start=1):
                if (not parts[j]) != blank0[j]:
                    unlike.setdefault(name, lineno)
        lo += len(lines)
    if unlike is not None:
        # every row parsed, so only an optional column has empty cells
        name = next(name for name in TRACE_COLUMNS if name in unlike)
        raise ValueError(f"line {unlike[name]}: {name} is empty on some rows and filled on others")
    for name, arrays in columns.items():  # each list is freed as its array is made
        if arrays is not None:
            columns[name] = np.concatenate(arrays)
    return columns


def read_trace(path: str | Path) -> Trace:
    """Load a trace previously written by :func:`export_trace`.  A CSV with no rows,
    a ``k`` column other than 0, 1, 2, ..., a malformed field, an optional column
    filled on some rows only, or a sidecar of another schema, that lacks a key or a
    ``RunConfig`` field, whose ``config`` ``RunConfig`` refuses, or whose top-level
    values are not what :data:`_SIDECAR_VALUES` asks, is a ``ValueError`` naming it;
    so is a row count other than the sidecar's ``iters + 1``, or above it if diverged.
    The CSV is read :data:`_READ_CHARS` characters at a time, and each block's
    rows are parsed before the next is read; a CSV that does not decode is
    refused as reading it whole refuses it, before any other fault of the CSV."""
    csv_path = Path(path)
    meta_path = _meta_path(csv_path)
    if not csv_path.exists():
        raise FileNotFoundError(f"trace file {csv_path} not found")
    if not meta_path.exists():
        raise FileNotFoundError(f"metadata sidecar {meta_path} not found")

    try:
        with csv_path.open() as fh:
            chunks = _line_chunks(fh)
            try:
                head = next(chunks, [])
                if not head or head[0] != CSV_HEADER:
                    raise ValueError(f"line 1: expected header {CSV_HEADER!r}")
                values = _parse_rows(chain([head[1:]], chunks))
                if len(values["f"]) == 0:  # run records iterate 0 at least
                    raise ValueError(f"trace file {csv_path} has a header and no rows")
            except ValueError as exc:
                if not isinstance(exc, UnicodeDecodeError):
                    for _ in chunks:  # the rest must decode before a row is refused
                        pass
                raise
    except UnicodeDecodeError:
        csv_path.read_text()  # raises the error with its offset in the whole file
        raise
    meta = json.loads(meta_path.read_text())
    try:
        if meta["schema"] != 1:
            raise ValueError(f"metadata sidecar {meta_path} has unknown schema {meta['schema']!r}")
        try:
            config = RunConfig(**meta["config"])  # it makes betas and gammas tuples
        except ValueError as exc:
            raise ValueError(f"metadata sidecar {meta_path} is malformed: {exc}") from None
        for key, (want, ok) in _SIDECAR_VALUES.items():
            if not ok(meta[key], config):
                raise ValueError(f"metadata sidecar {meta_path} is malformed: "
                                 f"{key!r} must be {want}, got {meta[key]!r}")
    except KeyError as exc:
        raise ValueError(f"metadata sidecar {meta_path} lacks key {exc.args[0]!r}") from None
    except TypeError as exc:  # e.g. a config without one of RunConfig's fields
        raise ValueError(f"metadata sidecar {meta_path} is malformed: {exc}") from None
    rows, full = len(values["f"]), config.iters + 1
    if rows > full or rows < full and not meta["diverged"]:
        raise ValueError(f"trace file {csv_path} has {rows} rows, but sidecar iters={config.iters} "
                         f"asks for {'at most' if meta['diverged'] else 'exactly'} {full}")
    values.update({key: meta[key] for key in _SIDECAR_VALUES}, config=config,
                  gammas=tuple(meta["gammas"]), x0=np.asarray(meta["x0"], dtype=float))
    return Trace(**values)
