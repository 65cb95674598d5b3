"""Tests for the run driver, tuner, reference solver, verifier, and trace I/O."""

import collections
import dataclasses
import functools
import itertools
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import agghb.cli
import agghb.harness
import agghb.problems
from agghb import theory
from agghb.harness import (
    PROBLEM_PARAMS,
    ProblemParamError,
    RunConfig,
    SweepEntry,
    Trace,
    TuningError,
    VerificationRefused,
    TUNING_GRID,
    bound_checkpoints,
    build_problem,
    export_trace,
    read_trace,
    reference_solution,
    resolve_data_path,
    run,
    tune,
    verify_bounds,
)
from agghb.libsvm import load_libsvm, to_dataset
from agghb.optim import AggConfig, check_gammas
from agghb.problems import Problem, logreg_l2, logreg_nonconvex, quadratic, rosenbrock

from conftest import synthetic_libsvm_text
from oracles import gradient_descent_reference, plain_run


def far_logistic_start(data):
    """A start whose logistic margins y_i a_i'x pass both +745 and -745."""
    x0 = 1e3 * np.random.default_rng(47).standard_normal(data.n)
    z = data.labels * (data.features @ x0)
    assert z.max() > 745.2 and z.min() < -745.2
    return x0


def identity_quadratic(dim=1):
    return quadratic(np.eye(dim), np.zeros(dim))


def reference_from_failed_newton(problem, hessian):
    """``reference_solution`` on ``problem`` with its Hessian replaced by the
    zero matrix, by -I, or by 10^6 times itself (descent steps too short to
    converge), and the number of calls it made to each objective field."""
    d, exact = problem.dim, problem.hessian
    broken = {
        "zero": lambda x: np.zeros((d, d)),
        "minus_identity": lambda x: -np.eye(d),
        "timid": lambda x: 1e6 * exact(x),
    }[hessian]
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    fields = {"hessian": broken, "value": problem.value, "gradient": problem.gradient,
              "value_and_grad": problem.value_and_grad}
    failing = dataclasses.replace(
        problem, **{name: counted(name, fn) for name, fn in fields.items()}
    )
    return reference_solution(failing), calls


class TestRunConfig:
    def test_theory_mode_rejects_gammas(self):
        with pytest.raises(ValueError, match="must not carry"):
            RunConfig(
                problem="quadratic", optimizer="hb", betas=(0.9,),
                stepsize_mode="theory-cvx", gammas=(0.1,), iters=10,
            )

    def test_explicit_mode_requires_gammas(self):
        with pytest.raises(ValueError, match="requires explicit"):
            RunConfig(
                problem="quadratic", optimizer="hb", betas=(0.9,),
                stepsize_mode="explicit", iters=10,
            )

    def test_gd_requires_zero_momentum(self):
        with pytest.raises(ValueError, match=r"^optimizer 'gd' does not match betas \(0\.5,\), "
                                             r"which make it 'hb'$"):
            RunConfig(
                problem="quadratic", optimizer="gd", betas=(0.5,),
                stepsize_mode="explicit", gammas=(0.1,), iters=10,
            )

    def test_hb_requires_single_beta(self):
        with pytest.raises(ValueError, match=r"^optimizer 'hb' does not match betas "
                                             r"\(0\.9, 0\.5\), which make it 'agghb'$"):
            RunConfig(
                problem="quadratic", optimizer="hb", betas=(0.9, 0.5),
                stepsize_mode="explicit", gammas=(0.1, 0.1), iters=10,
            )

    @pytest.mark.parametrize("betas, kind", [
        ((0.0,), "gd"), ((0.0, 0.0), "gd"), ((0.9,), "hb"), ((0.9, 0.5), "agghb"),
        ((0.0, 0.5), "agghb"),
    ])
    def test_kind_derived_from_betas(self, betas, kind):
        common = dict(problem="quadratic", betas=betas, stepsize_mode="theory-cvx")
        assert RunConfig(**common).optimizer == kind
        assert RunConfig(optimizer=kind, **common).optimizer == kind
        for other in {"gd", "hb", "agghb", "heavy-ball"} - {kind}:
            with pytest.raises(ValueError, match=f"^optimizer {other!r} does not match betas "
                                                 f".*, which make it {kind!r}$"):
                RunConfig(optimizer=other, **common)

    def test_budget_positive(self):
        with pytest.raises(ValueError, match="budget"):
            RunConfig(
                problem="quadratic", optimizer="hb", betas=(0.9,),
                stepsize_mode="theory-cvx", iters=0,
            )

    @pytest.mark.parametrize("iters, error", [(2.5, TypeError), (True, ValueError)])
    def test_budget_is_an_integer(self, iters, error):
        # a sidecar's non-integral budget would index the trace's rows
        with pytest.raises(error):
            RunConfig(
                problem="quadratic", optimizer="hb", betas=(0.9,),
                stepsize_mode="theory-cvx", iters=iters,
            )

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None])
    def test_seed_is_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
            RunConfig(
                problem="quadratic", optimizer="hb", betas=(0.9,),
                stepsize_mode="theory-cvx", seed=seed,
            )


class TestRun:
    def test_gd_identity_quadratic_one_exact_step(self):
        problem = identity_quadratic()
        cfg = RunConfig(
            problem="quadratic", optimizer="gd", betas=(0.0,),
            stepsize_mode="explicit", gammas=(1.0,), iters=1,
            problem_params={"x0": [1.0]},
        )
        trace = run(cfg, problem)
        np.testing.assert_array_equal(trace.f, [0.5, 0.0])
        np.testing.assert_array_equal(trace.grad_norm, [1.0, 0.0])
        assert not trace.diverged

    def test_hand_simulated_two_buffer_objective_values(self):
        problem = identity_quadratic()  # f(x) = x^2 / 2
        cfg = RunConfig(
            problem="quadratic", optimizer="agghb", betas=(0.0, 0.5),
            stepsize_mode="explicit", gammas=(0.1, 0.1), iters=2,
            problem_params={"x0": [1.0]},
        )
        trace = run(cfg, problem)
        np.testing.assert_allclose(trace.f, [0.5, 0.405, 0.3081125], rtol=1e-12)

    def test_determinism_bitwise(self):
        problem = quadratic(np.diag([1.0, 2.0, 5.0]), np.ones(3))
        cfg = RunConfig(
            problem="quadratic", optimizer="agghb", betas=(0.9, 0.5),
            stepsize_mode="theory-cvx", iters=200, seed=3,
        )
        t1, t2 = run(cfg, problem), run(cfg, problem)
        np.testing.assert_array_equal(t1.f, t2.f)
        np.testing.assert_array_equal(t1.grad_norm, t2.grad_norm)
        np.testing.assert_array_equal(t1.f_avg, t2.f_avg)

    def test_prefix_property(self, request):
        # Every column of the shorter run, bit for bit, where its book and its
        # last group of averages are padded and the longer run's are filled.
        data = request.getfixturevalue("australian_dataset")
        quad = dict(problem="quadratic", betas=(0.8, 0.3), seed=1)
        cases = [
            (quadratic(np.diag([1.0, 2.0]), np.zeros(2)), BOOK - 14, BOOK + 36,
             dict(quad, stepsize_mode="explicit", gammas=(0.05, 0.02))),
            (quadratic(np.diag([1.0, 2.0]), np.ones(2)), BOOK - 4, BOOK + 76,
             dict(quad, stepsize_mode="theory-cvx")),
            (logreg_l2(data, data.logistic_L / 1e5), BOOK - 4, BOOK + 76,
             dict(problem="logreg-l2", betas=(0.9, 0.95, 0.99), stepsize_mode="theory-cvx")),
        ]
        for problem, short_K, long_K, base in cases:
            assert agghb.harness.book_rows(problem.dim) == BOOK
            short = run(RunConfig(optimizer="agghb", iters=short_K, **base), problem)
            long = run(RunConfig(optimizer="agghb", iters=long_K, **base), problem)
            assert (long.f_avg is None) == (base["stepsize_mode"] == "explicit")
            assert (long.dist_opt is None) == (problem.name == "logreg-l2")
            for name in ("f", "grad_norm", "dist_opt", "f_avg"):
                got, want = getattr(short, name), getattr(long, name)
                if want is None:
                    assert got is None
                else:
                    np.testing.assert_array_equal(got, want[:short_K + 1], err_msg=name)

    def test_nonfinite_start_rejected(self):
        cfg = RunConfig(
            problem="quadratic", optimizer="hb", betas=(0.9,),
            stepsize_mode="explicit", gammas=(0.1,), iters=5,
            problem_params={"x0": [float("nan")]},
        )
        with pytest.raises(ValueError, match="non-finite"):
            run(cfg, identity_quadratic())

    def test_divergence_truncates_and_flags(self):
        problem = identity_quadratic()
        cfg = RunConfig(
            problem="quadratic", optimizer="hb", betas=(0.9,),
            stepsize_mode="explicit", gammas=(1e150,), iters=50,
            problem_params={"x0": [1.0]},
        )
        trace = run(cfg, problem)
        assert trace.diverged
        assert len(trace.f) <= 51
        assert np.all(np.isfinite(trace.f[:-1]))

    def test_virtual_residual_tracked_small(self):
        problem = quadratic(np.diag([1.0, 3.0]), np.array([1.0, 3.0]))
        cfg = RunConfig(
            problem="quadratic", optimizer="agghb", betas=(0.9, 0.99),
            stepsize_mode="theory-ncvx", iters=500, seed=0,
        )
        trace = run(cfg, problem)
        assert trace.max_virtual_residual <= 1e-10

    def test_f_avg_only_in_convex_theory_mode(self):
        problem = identity_quadratic(2)
        base = dict(
            problem="quadratic", optimizer="hb", betas=(0.5,), iters=20, seed=0,
        )
        with_avg = run(RunConfig(stepsize_mode="theory-cvx", **base), problem)
        without = run(RunConfig(stepsize_mode="theory-ncvx", **base), problem)
        assert with_avg.f_avg is not None and len(with_avg.f_avg) == len(with_avg.f)
        assert without.f_avg is None

    def test_unresolved_tune_mode_rejected(self):
        problem = identity_quadratic()
        cfg = RunConfig(
            problem="quadratic", optimizer="hb", betas=(0.5,),
            stepsize_mode="tune", iters=10,
        )
        with pytest.raises(ValueError, match="unresolved"):
            run(cfg, problem)

    def test_constants_snapshot_recorded(self):
        # The record is the theory dataclasses at the run's horizon plus the
        # problem constants and the three margins, each value bit for bit.
        problem = quadratic(np.diag([1.0, 4.0]), np.ones(2))
        cfg = RunConfig(
            problem="quadratic", optimizer="agghb", betas=(0.9, 0.5),
            stepsize_mode="theory-cvx", iters=10, seed=0,
        )
        trace = run(cfg, problem)
        acfg = AggConfig(betas=cfg.betas, gammas=trace.gammas)
        consts = theory.constants(acfg, horizon=cfg.iters)
        eb = theory.effective_betas(cfg.betas)
        cvx = theory.check_convex_conditions(acfg, consts, problem.L, problem.mu)
        want = {
            "A": consts.A, "C": consts.C, "D": consts.D, "E": consts.E,
            "F": consts.F, "B": consts.B, "beta_tilde": eb.beta_tilde,
            "beta_hat": eb.beta_hat, "beta_max": eb.beta_max,
            "L": problem.L, "mu": problem.mu,
            "nonconvex_margin": theory.check_nonconvex_condition(consts, problem.L, 2).margin,
            "f_margin": cvx.f_margin, "bf_margin": cvx.bf_margin,
        }
        assert len(want) == 14
        assert {k: float(v).hex() for k, v in trace.constants.items()} == {
            k: float(v).hex() for k, v in want.items()}


def _hand_built(gradient, dim=2):
    """f(x) = ||x||^2 / 2 as a ``Problem`` built by hand, L = 1, whose
    ``value_and_grad`` calls ``gradient`` as given (single points only) and
    whose ``value`` also takes a block X (dim, P), a column at a time."""
    def value(x):
        if x.ndim == 2:
            return np.array([value(np.ascontiguousarray(c)) for c in x.T])
        return 0.5 * float(x @ x)

    return Problem(
        name="hand", dim=dim, value=value, gradient=gradient, L=1.0, convex=True,
        reference_opt=(np.zeros(dim), 0.0), value_and_grad=lambda x: (value(x), gradient(x)),
    )


def _poisoned_gradient(x):
    """The identity gradient, NaN once the iterate has shrunk below 0.5."""
    return x if abs(x[0]) > 0.5 else np.full_like(x, np.nan)


def _turning_bad(k_bad, good, bad_value):
    """A gradient that is ``good(x)`` for its first ``k_bad`` calls and
    ``bad_value`` everywhere from then on.  ``run`` and ``plain_run`` call it
    once per iterate, so each needs its own."""
    calls = itertools.count()
    return lambda x: good(x) if next(calls) < k_bad else np.full_like(x, bad_value)


def _three_by_three():
    return quadratic(np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]]),
                     np.array([1.0, -1.0, 0.5]))


BOOK = agghb.harness.book_rows(3)  # rows of run's book for d = 2, 3 and 14
GROUP = 64  # columns of each value call on the averages, for d up to 2,048
# Hand-built runs that stop in their second book take this many values, so
# that the book is two groups and a few hundred iterates reach its end.
SHORT_DIM = 1024
SHORT_BOOK = agghb.harness.book_rows(SHORT_DIM)
SHORT_X0 = [1.0, -2.0] * (SHORT_DIM // 2)
# Iterates whose rows are the first, a middle and the last of the second book.
BLOCK_ROWS = [SHORT_BOOK, SHORT_BOOK + SHORT_BOOK // 2, 2 * SHORT_BOOK - 1]


def _budgets(problem):
    """Budgets on both sides of the end of the first book, and into the third."""
    book = agghb.harness.book_rows(problem.dim)
    return [book - 2, book - 1, book, book + 1, 2 * book + 3]


def _boundary_config(problem, mode, K):
    return RunConfig(
        problem=problem.name, optimizer="agghb", betas=(0.9, 0.5), stepsize_mode=mode,
        iters=K, problem_params={"x0": ([1.0, -2.0, 0.5] * problem.dim)[:problem.dim]},
    )


@functools.cache
def _boundary_oracle(build, mode):
    """``plain_run`` at the largest of the :func:`_budgets` and its steps'
    defects.  No row depends on the budget, as neither the stepsizes nor F
    do, so its first K + 1 rows and K defects are ``plain_run`` at budget K."""
    problem, residuals = build(), []
    cfg = _boundary_config(problem, mode, _budgets(problem)[-1])
    return plain_run(cfg, problem, residuals), residuals


def _plain_run_iterates(cfg, problem):
    """``plain_run`` and the iterates it visits, one per gradient call."""
    xs = []

    def gradient(x):
        xs.append(x.copy())
        return problem.gradient(x)

    return plain_run(cfg, dataclasses.replace(problem, gradient=gradient)), xs


def _grouped_f_avg(problem, F, xs):
    """The ``f_avg`` ``run`` must give bit for bit on iterates ``xs``: the
    averages by the plain recurrence, then one ``value`` call per
    ``GROUP``-row group of them, each on the transpose of C-contiguous
    rows, the last group padded with its last average."""
    rho = 1.0 / (1.0 - problem.mu * F / 2.0)
    xbar, w, avgs = np.zeros(problem.dim), 0.0, []
    for x in xs:
        w = w / rho + 1.0
        xbar = (xbar * (w - 1.0) + x) / w
        avgs.append(xbar)
    B, n = GROUP, len(avgs)
    avgs += [avgs[-1]] * (-n % B)
    f_avg = np.concatenate([problem.value(np.array(avgs[lo:lo + B]).T)
                            for lo in range(0, len(avgs), B)])
    return f_avg[:n]


class TestRunMatchesPlainLoop:
    """``run`` against :func:`oracles.plain_run`, which keeps the former loop
    (tuple buffers, separate value and gradient calls, elementwise checks)."""

    @staticmethod
    def _assert_identical(trace, oracle):
        """``f`` and ``grad_norm`` bit for bit; ``dist_opt``, ``f_avg`` and
        ``max_virtual_residual``, which ``run`` sums per block in another
        order than the oracle's per-iterate norms and ``value`` calls, to
        1e-13 relative."""
        assert len(trace.f) == len(oracle.f)
        for name in ("f", "grad_norm", "dist_opt", "f_avg"):
            got, want = getattr(trace, name), getattr(oracle, name)
            if want is None:
                assert got is None, name
            elif name in ("f", "grad_norm"):
                np.testing.assert_array_equal(got, want, err_msg=name)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=name)
        assert trace.diverged == oracle.diverged
        np.testing.assert_allclose(trace.max_virtual_residual, oracle.max_virtual_residual,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("mode", ["theory-ncvx", "theory-cvx"])
    @pytest.mark.parametrize("betas", [(0.9,), (0.9, 0.5), (0.9, 0.95, 0.99)])
    def test_quadratic_bit_identical(self, mode, betas):
        problem = _three_by_three()
        cfg = RunConfig(
            problem="quadratic", optimizer="hb" if len(betas) == 1 else "agghb",
            betas=betas, stepsize_mode=mode, iters=500, seed=3,
        )
        trace = run(cfg, problem)
        assert not trace.diverged and trace.dist_opt is not None
        self._assert_identical(trace, plain_run(cfg, problem))

    def test_rosenbrock_bit_identical(self):
        problem = rosenbrock()
        cfg = RunConfig(
            problem="rosenbrock", optimizer="agghb", betas=(0.9, 0.99),
            stepsize_mode="theory-ncvx", iters=2000,
        )
        self._assert_identical(run(cfg, problem), plain_run(cfg, problem))

    @pytest.mark.parametrize("mode", ["theory-ncvx", "theory-cvx"])
    def test_hand_built_problem_bit_identical(self, mode):
        # The identity gradient returns the iterate itself, which run updates
        # in place after the last read of the gradient.
        problem = _hand_built(lambda x: x)
        cfg = RunConfig(
            problem="hand", optimizer="agghb", betas=(0.9, 0.5),
            stepsize_mode=mode, iters=200, problem_params={"x0": [1.0, -2.0]},
        )
        trace = run(cfg, problem)
        assert not trace.diverged
        self._assert_identical(trace, plain_run(cfg, problem))

    def test_non_finite_gradient_truncates_identically(self):
        problem = _hand_built(_poisoned_gradient)
        cfg = RunConfig(
            problem="hand", optimizer="hb", betas=(0.5,), stepsize_mode="explicit",
            gammas=(0.1,), iters=100, problem_params={"x0": [1.0, 1.0]},
        )
        trace = run(cfg, problem)
        assert trace.diverged and 1 < len(trace.f) < 101
        assert np.isnan(trace.grad_norm[-1])
        self._assert_identical(trace, plain_run(cfg, problem))

    @pytest.mark.parametrize("gamma, x0, length", [
        (1e150, 1.0, 3),  # f overflows at the iterate the step produced
        (1e300, 1e10, 1),  # the step overflows while f and the gradient are finite
    ])
    def test_overflowing_step_truncates_identically(self, gamma, x0, length):
        problem = identity_quadratic()
        cfg = RunConfig(
            problem="quadratic", optimizer="hb", betas=(0.9,),
            stepsize_mode="explicit", gammas=(gamma,), iters=50,
            problem_params={"x0": [x0]},
        )
        trace = run(cfg, problem)
        assert trace.diverged and len(trace.f) == length
        self._assert_identical(trace, plain_run(cfg, problem))

    @pytest.mark.parametrize("mode", ["theory-ncvx", "theory-cvx"])
    def test_logistic_margins_past_745(self, small_dataset, mode):
        # exp(z) overflows above 709.78 and 1/exp(z) divides by zero below
        # -745.13; the suite turns any RuntimeWarning into an error
        problem = logreg_l2(small_dataset, 1e-3)
        x0 = far_logistic_start(small_dataset)
        cfg = RunConfig(
            problem="logreg-l2", optimizer="agghb", betas=(0.9, 0.5),
            stepsize_mode=mode, iters=50, problem_params={"x0": x0.tolist()},
        )
        trace = run(cfg, problem)
        assert not trace.diverged and np.isfinite(trace.f).all()
        self._assert_identical(trace, plain_run(cfg, problem))

    @pytest.mark.parametrize("i", range(5), ids=["N-2", "N-1", "N", "N+1", "2N+3"])
    @pytest.mark.parametrize("mode", ["theory-ncvx", "theory-cvx"])
    @pytest.mark.parametrize("build", [
        _three_by_three, lambda: _hand_built(lambda x: x, dim=SHORT_DIM),
    ], ids=["quadratic", "hand-built"])
    def test_budgets_around_block_boundaries(self, build, mode, i):
        # budget i of _budgets, around the book of N = 1,024 and 128 rows
        problem = build()
        assert agghb.harness.book_rows(problem.dim) in (BOOK, SHORT_BOOK)
        K = _budgets(problem)[i]
        trace = run(_boundary_config(problem, mode, K), problem)
        assert not trace.diverged and len(trace.f) == K + 1
        oracle, residuals = _boundary_oracle(build, mode)
        cut = {name: None if (c := getattr(oracle, name)) is None else c[:K + 1]
               for name in ("f", "grad_norm", "dist_opt", "f_avg")}
        self._assert_identical(trace, dataclasses.replace(
            oracle, **cut, max_virtual_residual=max([0.0, *residuals[:K]])))

    @pytest.mark.parametrize("k_bad", BLOCK_ROWS, ids=["first-row", "middle-row", "last-row"])
    @pytest.mark.parametrize("mode", ["theory-ncvx", "theory-cvx"])
    def test_non_finite_gradient_in_any_block_row_truncates_identically(self, mode, k_bad):
        assert SHORT_BOOK == 2 * GROUP
        cfg = RunConfig(
            problem="hand", optimizer="agghb", betas=(0.9, 0.5), stepsize_mode=mode,
            iters=3 * SHORT_BOOK, problem_params={"x0": SHORT_X0},
        )
        trace, oracle = (loop(cfg, _hand_built(_turning_bad(k_bad, lambda x: x, np.nan),
                                               dim=SHORT_DIM))
                         for loop in (run, plain_run))
        assert trace.diverged and len(trace.f) == k_bad + 1
        assert np.isnan(trace.grad_norm[-1])
        self._assert_identical(trace, oracle)

    @pytest.mark.parametrize("k_bad", BLOCK_ROWS, ids=["first-row", "middle-row", "last-row"])
    def test_overflowing_step_in_any_block_row_truncates_identically(self, k_bad):
        # A gd step of 2 halves x on the gradient x / 4, and overflows on 1e308,
        # while f and the gradient at that iterate are finite.
        cfg = RunConfig(
            problem="hand", optimizer="gd", betas=(0.0,), stepsize_mode="explicit",
            gammas=(2.0,), iters=3 * SHORT_BOOK, problem_params={"x0": SHORT_X0},
        )
        trace, oracle = (loop(cfg, _hand_built(_turning_bad(k_bad, lambda x: 0.25 * x, 1e308),
                                               dim=SHORT_DIM))
                         for loop in (run, plain_run))
        assert trace.diverged and len(trace.f) == k_bad + 1
        assert np.isfinite(trace.f[-1])
        self._assert_identical(trace, oracle)

    @pytest.mark.parametrize("dim, rows", [(70_000, 1), (50_000, 2)])
    def test_dimension_that_caps_the_block(self, dim, rows):
        # the book is then one short group, read as soon as it fills
        assert agghb.harness.book_rows(dim) == rows
        hand = _hand_built(lambda x: x, dim=dim)
        books = []  # the array each value call's block is a view of

        def value(x):
            books.append(x.base)
            return hand.value(x)

        problem = dataclasses.replace(hand, value=value)
        cfg = RunConfig(
            problem="hand", optimizer="agghb", betas=(0.9, 0.5), stepsize_mode="theory-cvx",
            iters=5, problem_params={"x0": np.linspace(-1.0, 1.0, dim).tolist()},
        )
        trace = run(cfg, problem)
        assert not trace.diverged and len(trace.f) == 6
        assert len(books) == 6 // rows
        assert all(b.shape == (rows, dim) for b in books)
        assert max(b.nbytes for b in books) <= agghb.harness._BOOK_BYTES
        self._assert_identical(trace, plain_run(cfg, hand))

    @pytest.mark.parametrize("build, rows", [
        (lambda request: _three_by_three(), BOOK),
        (lambda request: logreg_l2(data := request.getfixturevalue("australian_dataset"),
                                   data.logistic_L / 1e5), BOOK),
        # a book of two groups; it starts at 0, its optimum, unless given x0
        (lambda request: _hand_built(lambda x: x, dim=SHORT_DIM), SHORT_BOOK),
    ], ids=["quadratic", "logreg-l2", "hand-built"])
    def test_f_avg_bit_identical_across_average_books(self, request, build, rows):
        # The iterates do not depend on the budget, so one oracle run at the
        # largest serves every budget.
        problem = build(request)
        assert agghb.harness.book_rows(problem.dim) == rows
        budgets = [rows - 1, rows, rows + 1, 2 * rows + GROUP + 3]
        base = dict(problem=problem.name, optimizer="agghb", betas=(0.9, 0.95, 0.99),
                    stepsize_mode="theory-cvx",
                    problem_params={"x0": SHORT_X0} if problem.name == "hand" else {})
        oracle, xs = _plain_run_iterates(RunConfig(iters=budgets[-1], **base), problem)
        assert not oracle.diverged and len(xs) == budgets[-1] + 1
        for K in budgets:
            trace = run(RunConfig(iters=K, **base), problem)
            assert not trace.diverged
            np.testing.assert_array_equal(trace.f, oracle.f[:K + 1], err_msg=str(K))
            np.testing.assert_array_equal(
                trace.f_avg, _grouped_f_avg(problem, trace.constants["F"], xs[:K + 1]),
                err_msg=str(K))

    def test_non_finite_gradient_in_second_average_book_truncates_identically(self):
        k_bad = BOOK + BOOK // 2 + 5
        cfg = RunConfig(
            problem="hand", optimizer="agghb", betas=(0.9, 0.5), stepsize_mode="theory-cvx",
            iters=3 * BOOK, problem_params={"x0": [1.0, -2.0]},
        )
        trace, oracle = (loop(cfg, _hand_built(_turning_bad(k_bad, lambda x: x, np.nan)))
                         for loop in (run, plain_run))
        assert trace.diverged and len(trace.f) == len(trace.f_avg) == k_bad + 1
        self._assert_identical(trace, oracle)

    @pytest.mark.parametrize("dataset", ["australian_dataset", "wide_dataset"])
    @pytest.mark.parametrize("kind", ["l2-zero", "l2-auto", "ncvx"])
    def test_logistic_within_1e12(self, request, dataset, kind):
        data = request.getfixturevalue(dataset)
        if kind == "ncvx":
            problem, mode = logreg_nonconvex(data, data.logistic_L / 1e3), "theory-ncvx"
        else:
            l2 = 0.0 if kind == "l2-zero" else data.logistic_L / 1e5
            problem, mode = logreg_l2(data, l2), "theory-cvx"
        cfg = RunConfig(
            problem=problem.name, optimizer="agghb", betas=(0.9, 0.95, 0.99),
            stepsize_mode=mode, iters=500,
        )
        trace, oracle = run(cfg, problem), plain_run(cfg, problem)
        assert not trace.diverged and not oracle.diverged
        assert len(trace.f) == len(oracle.f) == 501
        for name in ("f", "grad_norm", "f_avg"):
            got, want = getattr(trace, name), getattr(oracle, name)
            if want is None:
                assert got is None and mode == "theory-ncvx"
                continue
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=name)
        # rounding noise in both, so only the contract is compared
        assert max(trace.max_virtual_residual, oracle.max_virtual_residual) <= 1e-10


class TestRunObjectiveCalls:
    """One ``value_and_grad`` call per iterate; in theory-cvx one ``value``
    call per ``GROUP`` averages, back to back once per book."""

    @staticmethod
    def _counted(problem, calls, widths):
        def wrap(name):
            fn = getattr(problem, name)

            def counted(x):
                calls[name] += 1
                if name == "value":
                    widths.append(x.shape[1:])
                return fn(x)
            return counted

        names = ("value", "gradient", "value_and_grad")
        return dataclasses.replace(problem, **{n: wrap(n) for n in names})

    @pytest.mark.parametrize("mode, value_calls", [("theory-ncvx", 0), ("theory-cvx", 1)])
    @pytest.mark.parametrize("build", [
        lambda request: quadratic(np.diag([1.0, 2.0, 5.0]), np.ones(3)),
        lambda request: logreg_l2(request.getfixturevalue("small_dataset"), 1e-3),
    ], ids=["quadratic", "logreg-l2"])
    def test_calls_per_iterate(self, request, build, mode, value_calls):
        # value_calls is per group: 151 iterates fill two groups and start a third
        calls, widths = dict.fromkeys(("value", "gradient", "value_and_grad"), 0), []
        problem = self._counted(build(request), calls, widths)
        K = 150
        cfg = RunConfig(
            problem=problem.name, optimizer="agghb", betas=(0.9, 0.5),
            stepsize_mode=mode, iters=K,
        )
        assert len(run(cfg, problem).f) == K + 1
        groups = -(-(K + 1) // GROUP)
        assert groups == 3
        assert calls == {"value": value_calls * groups, "gradient": 0, "value_and_grad": K + 1}
        assert widths == [(GROUP,)] * (value_calls * groups)

    @pytest.mark.parametrize("mode", ["theory-ncvx", "theory-cvx"])
    @pytest.mark.parametrize("build", [
        lambda request: quadratic(np.diag([1.0, 2.0, 5.0]), np.ones(3)),
        lambda request: logreg_l2(request.getfixturevalue("small_dataset"), 1e-3),
    ], ids=["quadratic", "logreg-l2"])
    def test_value_calls_come_once_per_average_book(self, request, build, mode):
        # one burst of A/B calls once the book of A iterates fills, after the
        # A-th and the 2A-th step, and one at exit for the last 6
        problem, log = build(request), []

        def logged(name):
            fn = getattr(problem, name)

            def call(x):
                log.append((name, x.shape[1:]))
                return fn(x)
            return call

        problem = dataclasses.replace(
            problem, **{n: logged(n) for n in ("value", "value_and_grad")})
        B, A = GROUP, agghb.harness.book_rows(problem.dim)
        assert A == BOOK
        K = 2 * A + 5
        cfg = RunConfig(
            problem=problem.name, optimizer="agghb", betas=(0.9, 0.5),
            stepsize_mode=mode, iters=K,
        )
        assert len(run(cfg, problem).f) == K + 1
        if mode == "theory-ncvx":
            assert log == [("value_and_grad", ())] * (K + 1)
            return
        burst = [("value", (B,))] * (A // B)
        want = []
        for k in range(K + 1):
            want.append(("value_and_grad", ()))
            if k in (A - 1, 2 * A - 1):
                want += burst
        want += [("value", (B,))]
        assert log == want
        assert sum(name == "value" for name, _ in log) == -(-(K + 1) // B)

    def test_value_that_takes_single_points_only_refused(self):
        # written for single points, it sums a whole block into one number
        problem = dataclasses.replace(_hand_built(lambda x: x),
                                      value=lambda x: 0.5 * float(np.sum(x * x)))
        cfg = RunConfig(
            problem="hand", optimizer="hb", betas=(0.5,), stepsize_mode="theory-cvx",
            iters=5, problem_params={"x0": [1.0, 1.0]},
        )
        with pytest.raises(ValueError, match=rf"^value of a \(2, {GROUP}\) block has shape \(\), "):
            run(cfg, problem)

    def test_hand_built_gradient_shape_checked(self):
        problem = _hand_built(lambda x: x[:1])
        cfg = RunConfig(
            problem="hand", optimizer="hb", betas=(0.5,), stepsize_mode="explicit",
            gammas=(0.1,), iters=5, problem_params={"x0": [1.0, 1.0]},
        )
        with pytest.raises(ValueError, match="gradient shape"):
            run(cfg, problem)

    @pytest.mark.parametrize("entry, mode, gammas", [(run, "explicit", (0.1,)),
                                                     (tune, "tune", None)], ids=["run", "tune"])
    def test_hand_built_value_shape_checked(self, entry, mode, gammas):
        # f(x) = ||x||^2 / 2 as a one-entry array, as a (1, dim) row's product gives
        problem = dataclasses.replace(
            _hand_built(lambda x: x), value_and_grad=lambda x: (0.5 * np.atleast_1d(x @ x), x),
            value=lambda x: 0.5 * np.sum(x * x, axis=0, keepdims=True))
        cfg = RunConfig(
            problem="hand", optimizer="hb", betas=(0.5,), stepsize_mode=mode,
            gammas=gammas, iters=5, problem_params={"x0": [1.0, 1.0]},
        )
        with pytest.raises(ValueError, match=r"^value at a single point has shape \(1,\), not \(\)$"):
            entry(cfg, problem)


class TestLoopsCallTracedNames:
    """The benchmark's tracer times the optimizer by replacing
    ``agghb.harness.{init,step,virtual_iterate,averaging_update}``, so the
    run and tune loops must call the kernels through those bindings."""

    NAMES = ("init", "step", "virtual_iterate", "averaging_update")

    def _count(self, monkeypatch):
        calls, step_ndims = dict.fromkeys(self.NAMES, 0), []
        for name in self.NAMES:
            def counted(*args, _fn=getattr(agghb.harness, name), _name=name):
                calls[_name] += 1
                if _name == "step":
                    step_ndims.append(args[0].ndim)
                return _fn(*args)
            monkeypatch.setattr(agghb.harness, name, counted)
        return calls, step_ndims

    def test_run_counts(self, monkeypatch):
        # one step per iterate but the last, one virtual_iterate per book
        calls, step_ndims = self._count(monkeypatch)
        K = BOOK + 150
        cfg = RunConfig(
            problem="quadratic", optimizer="agghb", betas=(0.9, 0.5),
            stepsize_mode="theory-cvx", iters=K, seed=2,
        )
        trace = run(cfg, quadratic(np.diag([1.0, 2.0, 5.0]), np.ones(3)))
        assert len(trace.f) == K + 1 and not trace.diverged
        assert calls == {"init": 1, "step": K, "virtual_iterate": 2,
                         "averaging_update": K + 1}
        assert set(step_ndims) == {1}

    def test_tune_steps_the_block_once_per_iterate(self, monkeypatch):
        calls, step_ndims = self._count(monkeypatch)
        cfg = RunConfig(
            problem="quadratic", optimizer="agghb", betas=(0.9, 0.5),
            stepsize_mode="tune", iters=200,
        )
        _, sweep = tune(cfg, quadratic(np.diag([1.0, 2.0, 5.0]), np.ones(3)))
        # columns are dropped mid-sweep; the block is still stepped each time
        assert any(e.diverged for e in sweep) and not all(e.diverged for e in sweep)
        assert calls == {"init": 1, "step": 200, "virtual_iterate": 0, "averaging_update": 0}
        assert step_ndims == [2] * 200


class TestConstantsComputedOnce:
    """Each entry point that needs the aggregate constants computes them with
    one ``theory.constants`` call and hands them to both admissibility checks."""

    @staticmethod
    def _count(monkeypatch):
        calls = []
        def counted(*args, _fn=theory.constants, **kwargs):
            calls.append(kwargs.get("horizon"))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(theory, "constants", counted)
        return calls

    @pytest.mark.parametrize("mode", ["theory-ncvx", "theory-cvx"])
    def test_run_and_verify(self, monkeypatch, mode):
        problem = quadratic(np.diag([1.0, 4.0]), np.ones(2))
        cfg = RunConfig(problem="quadratic", betas=(0.9, 0.5), stepsize_mode=mode, iters=30)
        calls = self._count(monkeypatch)
        trace = run(cfg, problem)
        assert calls == [30]
        calls.clear()
        assert verify_bounds(trace, problem).passed
        assert calls == [30]

    def test_constants_command(self, monkeypatch, capsys):
        calls = self._count(monkeypatch)
        assert agghb.cli.main(["constants", "--betas", "0.9,0.5", "--gammas", "0.01",
                               "--mu", "0.1", "--horizon", "7"]) == 0
        assert "convex_check=PASS" in capsys.readouterr().out
        assert calls == [7]


class TestTuneObjectiveCalls:
    """One ``finite_and_grad`` call per iterate but the last, on the block of
    live grid points, then one ``value_and_grad`` call on it at k = K; one
    ``value`` call, on x0 for f(x0), and no ``gradient`` call."""

    @pytest.mark.parametrize("build, iters", [
        (lambda request: quadratic(np.diag([1.0, 2.0, 5.0]), np.ones(3)), 200),
        (lambda request: logreg_l2(request.getfixturevalue("small_dataset"), 1e-3), 37),
    ], ids=["quadratic", "logreg-l2"])
    def test_calls_per_iterate(self, request, build, iters):
        problem = build(request)
        widths = {"finite_and_grad": [], "value_and_grad": []}
        calls = dict.fromkeys(("value", "gradient"), 0)

        def counted_block(name):
            def fn(X):
                assert X.ndim == 2 and X.shape[0] == problem.dim
                widths[name].append(X.shape[1])
                return getattr(problem, name)(X)
            return fn

        def counted(name):
            def fn(x):
                calls[name] += 1
                return getattr(problem, name)(x)
            return fn

        counted_problem = dataclasses.replace(
            problem, finite_and_grad=counted_block("finite_and_grad"),
            value_and_grad=counted_block("value_and_grad"),
            value=counted("value"), gradient=counted("gradient"),
        )
        cfg = RunConfig(
            problem=problem.name, optimizer="agghb", betas=(0.9, 0.5),
            stepsize_mode="tune", iters=iters,
        )
        _, sweep = tune(cfg, counted_problem)
        live = sum(not e.diverged for e in sweep)
        # iterate k holds the points not dropped at an earlier one
        held = [sum(e.diverged_at is None or e.diverged_at >= k for e in sweep)
                for k in range(iters + 1)]
        assert held[0] == len(TUNING_GRID)
        assert widths == {"finite_and_grad": held[:-1], "value_and_grad": held[-1:]}
        assert calls == {"value": 1, "gradient": 0}
        if problem.name == "quadratic":
            assert 0 < live < len(TUNING_GRID)  # columns were dropped mid-sweep


class TestTune:
    def _base(self, betas=(0.0,), iters=10, optimizer="gd", params=None):
        return RunConfig(
            problem="quadratic", optimizer=optimizer, betas=betas,
            stepsize_mode="tune", iters=iters,
            problem_params=params or {"x0": [1.0]},
        )

    def test_grid_has_fifteen_points(self):
        assert len(TUNING_GRID) == 15
        assert TUNING_GRID[0] == 2.0 ** -6
        assert TUNING_GRID[-1] == 2.0 ** 8

    def test_identity_quadratic_prefers_unit_step(self):
        problem = identity_quadratic()
        best, sweep = tune(self._base(), problem)
        assert len(sweep) == 15
        assert best.stepsize_mode == "tuned"
        assert best.gammas == (1.0,)  # a = 2^0 lands f exactly at the optimum

    def test_tie_broken_toward_smaller_step(self):
        problem = identity_quadratic()
        best, _ = tune(self._base(params={"x0": [0.0]}), problem)
        assert best.gammas == (TUNING_GRID[0] / problem.L,)

    def test_logistic_margins_past_745(self, small_dataset):
        # as TestRunMatchesPlainLoop's: no overflow or divide-by-zero warning
        problem = logreg_l2(small_dataset, 1e-3)
        base = RunConfig(
            problem="logreg-l2", optimizer="hb", betas=(0.9,), stepsize_mode="tune",
            iters=20, problem_params={"x0": far_logistic_start(small_dataset).tolist()},
        )
        best, sweep = tune(base, problem)
        assert best.stepsize_mode == "tuned" and len(sweep) == len(TUNING_GRID)

    def test_all_diverged_raises_on_batched_path(self):
        problem = dataclasses.replace(identity_quadratic(), L=1e-12)
        with pytest.raises(TuningError) as exc:
            tune(self._base(iters=400), problem)
        assert len(exc.value.sweep) == 15
        assert all(e.diverged and not e.above_start for e in exc.value.sweep)

    def test_points_above_start_are_flagged_and_never_best(self):
        # f = 1 - cos(x) is bounded, so no point overflows: the long steps
        # bounce and end anywhere in [0, 2], several above f(x0)
        wave = Problem(name="wave", dim=1, L=1.0,
                       value_and_grad=lambda X: ((1.0 - np.cos(X)).sum(axis=0), np.sin(X)))
        base = self._base(betas=(0.9,), iters=50, optimizer="hb", params={"x0": [0.5]})
        best, sweep = tune(base, wave)
        f0 = 1.0 - np.cos(0.5)
        assert not any(e.diverged for e in sweep)
        assert [e.above_start for e in sweep] == [e.final_f > f0 for e in sweep]
        assert any(e.above_start for e in sweep) and not all(e.above_start for e in sweep)
        below = [e for e in sweep if not e.above_start]
        assert best.gammas == (min(below, key=lambda e: e.final_f).gamma,)

    def test_every_point_above_start_raises(self):
        # a gradient pointing uphill: each step multiplies x by 1 + gamma, so
        # every point ends finite and above f(x0) = 0.5
        uphill = Problem(name="uphill", dim=1, L=1.0,
                         value_and_grad=lambda X: (0.5 * (X * X).sum(axis=0), -X))
        with pytest.raises(TuningError, match=r"ended above f\(x0\) = 0\.5$") as exc:
            tune(self._base(), uphill)
        assert all(e.above_start and not e.diverged for e in exc.value.sweep)

    def test_wrong_dimension_x0_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            tune(self._base(params={"x0": [1.0, 2.0]}), identity_quadratic(3))

    def test_grid_checked_once_as_one_vector(self, monkeypatch):
        checked = []

        def counted(gammas):
            checked.append(np.array(gammas))
            return check_gammas(gammas)

        def no_config(*args, **kwargs):
            raise AssertionError("tune built an AggConfig")

        monkeypatch.setattr(agghb.harness, "check_gammas", counted)
        monkeypatch.setattr(agghb.harness, "AggConfig", no_config)
        problem = quadratic(np.diag([1.0, 3.0]), np.ones(2))
        base = self._base(betas=(0.9, 0.5), optimizer="agghb", params={"x0": [1.0, 1.0]})
        _, sweep = tune(base, problem)
        assert len(checked) == 1
        assert checked[0].tolist() == [a / problem.L for a in TUNING_GRID]
        assert [e.gamma for e in sweep] == checked[0].tolist()

    def test_grid_overflowing_on_a_tiny_L_refused(self):
        # 32 / 1e-307 is the first grid point past the largest float
        problem = dataclasses.replace(identity_quadratic(), L=1e-307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^stepsize inf must be positive and finite$"):
                tune(self._base(), problem)

    @pytest.mark.parametrize("x0", [1.0, [[1.0]], [[1.0, 2.0]]],
                             ids=["scalar", "1x1", "1x2"])
    @pytest.mark.parametrize("mode", ["run", "tune"])
    def test_x0_not_a_vector_of_the_dimension_raises(self, mode, x0):
        if mode == "run":
            cfg = RunConfig(problem="quadratic", optimizer="gd", betas=(0.0,),
                            stepsize_mode="explicit", gammas=(0.5,), iters=3,
                            problem_params={"x0": x0})
            call = lambda: run(cfg, identity_quadratic())
        else:
            call = lambda: tune(self._base(params={"x0": x0}), identity_quadratic())
        with pytest.raises(ValueError, match=r"x0 has shape .* problem's dimension 1"):
            call()

    def test_requires_tune_mode(self):
        cfg = RunConfig(
            problem="quadratic", optimizer="gd", betas=(0.0,),
            stepsize_mode="explicit", gammas=(0.1,), iters=10,
        )
        with pytest.raises(ValueError, match="mode 'tune'"):
            tune(cfg, identity_quadratic())


def serial_sweep(base, problem):
    """The per-point sweep ``tune`` replaced: one full :func:`plain_run` per
    grid point, so the oracle shares no step arithmetic with ``tune``."""
    m = len(base.betas)
    sweep = []
    for a in TUNING_GRID:
        gammas = (a / problem.L,) * m
        cfg = dataclasses.replace(base, stepsize_mode="explicit", gammas=gammas)
        trace = plain_run(cfg, problem)
        final_f = float(trace.f[-1]) if not trace.diverged else float("inf")
        sweep.append(SweepEntry(
            a=a, gamma=gammas[0], final_f=final_f, diverged=trace.diverged,
            diverged_at=len(trace.f) - 1 if trace.diverged else None,
            above_start=not trace.diverged and final_f > trace.f[0],
        ))
    return sweep


def _logreg(dataset, l2):
    def build(request):
        data = request.getfixturevalue(dataset)
        return logreg_l2(data, data.logistic_L / 1e5 if l2 == "auto" else l2)
    return build


class TestTuneMatchesSerialRuns:
    """The batched sweep against :func:`serial_sweep` as oracle.

    The two paths round differently (gemm against gemv, and the loss summed
    as one product with ones over a block's row chunks against over a single
    point), and large-stepsize logistic points amplify that until they
    differ at the first digit, so values are compared only at points within
    1e-6 (relative) of the oracle minimum; the ``diverged`` and
    ``above_start`` flags must agree everywhere.  The paths can then also
    break a near-tie differently; the batched pick must tie the oracle
    minimum.
    """

    @pytest.mark.parametrize("case", [
        ("quadratic", lambda request: quadratic(
            np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.5, -0.5])), (0.9,), 300, 6),
        ("rosenbrock", lambda request: rosenbrock(), (0.9, 0.95, 0.99, 0.999), 5000, 5),
        ("logreg-l2-zero-dense", _logreg("australian_dataset", 0.0), (0.9, 0.95, 0.99), 600, 0),
        ("logreg-l2-auto-dense", _logreg("australian_dataset", "auto"), (0.9, 0.95, 0.99), 600, 0),
        ("logreg-l2-zero-csr", _logreg("wide_dataset", 0.0), (0.9, 0.95, 0.99), 300, 0),
        ("logreg-l2-auto-csr", _logreg("wide_dataset", "auto"), (0.9, 0.95, 0.99), 300, 0),
        ("logreg-ncvx", lambda request: logreg_nonconvex(
            request.getfixturevalue("australian_dataset"), 1e-3), (0.9, 0.95), 600, 0),
    ], ids=lambda case: case[0])
    def test_batched_matches_serial(self, request, case):
        _, build, betas, iters, n_diverged = case
        problem = build(request)
        base = RunConfig(
            problem=problem.name, optimizer="hb" if len(betas) == 1 else "agghb",
            betas=betas, stepsize_mode="tune", iters=iters, seed=0,
        )
        best, sweep = tune(base, problem)
        oracle = serial_sweep(base, problem)

        assert [(e.a, e.gamma) for e in sweep] == [(o.a, o.gamma) for o in oracle]
        assert [e.diverged for e in sweep] == [o.diverged for o in oracle]
        assert sum(e.diverged for e in sweep) == n_diverged
        assert [e.diverged_at is not None for e in sweep] == [e.diverged for e in sweep]
        assert [e.above_start for e in sweep] == [o.above_start for o in oracle]
        if problem.name == "quadratic":
            # its block columns are bitwise single points, so each drops at
            # the serial run's last row
            assert [e.diverged_at for e in sweep] == [o.diverged_at for o in oracle]
        finite = [o for o in oracle if not o.diverged]
        f_min = min(o.final_f for o in finite)
        for e, o in zip(sweep, oracle):
            if not o.diverged and o.final_f - f_min <= 1e-6 * abs(f_min):
                assert abs(e.final_f - o.final_f) <= 1e-12 * abs(o.final_f), (e, o)

        oracle_best = min(finite, key=lambda o: o.final_f)  # first minimum: smallest a
        if best.gammas[0] != oracle_best.gamma:
            picked = next(o for o in oracle if o.gamma == best.gammas[0])
            assert abs(picked.final_f - f_min) <= 1e-12 * abs(f_min)


class TestReferenceSolution:
    def test_quadratic_closed_form(self):
        problem = quadratic(np.diag([1.0, 3.0]), np.array([1.0, 3.0]))
        ref = reference_solution(problem)
        np.testing.assert_allclose(ref.x, [1.0, 1.0], rtol=1e-12)
        assert ref.f == pytest.approx(-2.0, rel=1e-12)
        assert ref.grad_norm <= 1e-12

    def test_logreg_descent_with_certificate(self, small_dataset):
        problem = logreg_l2(small_dataset, l2=1e-3)
        ref = reference_solution(problem)
        assert ref.grad_norm <= 1e-10
        assert np.all(np.isfinite(ref.x))
        # no direction improves on it noticeably
        assert problem.value(ref.x) <= problem.value(ref.x + 1e-4) + 1e-12

    def test_far_known_optimum(self, small_dataset):
        # its gradient is read at margins past +-745, with no warning
        problem = dataclasses.replace(logreg_l2(small_dataset, l2=1e-3),
                                      reference_opt=(far_logistic_start(small_dataset), 0.0))
        assert np.isfinite(reference_solution(problem).grad_norm)

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError, match="not convex"):
            reference_solution(rosenbrock())

    @pytest.mark.parametrize(
        "dataset, l2",
        [("small_dataset", 0.0), ("small_dataset", 1e-3), ("wide_dataset", 1e-3)],
    )
    def test_newton_matches_gradient_descent_oracle(self, request, dataset, l2):
        problem = logreg_l2(request.getfixturevalue(dataset), l2=l2)
        assert problem.hessian is not None
        newton = reference_solution(problem)
        plain = gradient_descent_reference(problem)
        assert newton.certified and plain.certified
        assert newton.grad_norm <= 1e-10 and plain.grad_norm <= 1e-10
        assert newton.f == pytest.approx(plain.f, rel=1e-12)

    def test_newton_certifies_below_rounding_level_of_value(self, small_dataset):
        # At 1e-14 the last Newton step changes f by less than its rounding
        # error; Newton alone must still reach the certificate.
        problem = logreg_l2(small_dataset, l2=1e-3)
        ref = reference_solution(problem, grad_tol=1e-14)
        assert ref.certified and ref.grad_norm <= 1e-14

    @pytest.mark.parametrize("hessian", ["zero", "minus_identity"])
    def test_failed_newton_returns_uncertified(self, small_dataset, hessian):
        # A singular Hessian and a non-descent direction each stop Newton
        # at once; nothing else runs behind it.
        ref, calls = reference_from_failed_newton(logreg_l2(small_dataset, l2=1e-3), hessian)
        assert ref.certified is False
        assert ref.grad_norm > 1e-10
        assert np.all(np.isfinite(ref.x))
        objective_calls = calls["value"] + calls["gradient"] + calls["value_and_grad"]
        assert objective_calls <= agghb.harness.NEWTON_MAX_ITERS + 1

    def test_iteration_cap_leaves_reference_uncertified(self, small_dataset):
        ref, calls = reference_from_failed_newton(logreg_l2(small_dataset, l2=0.0), "timid")
        assert calls["hessian"] == agghb.harness.NEWTON_MAX_ITERS
        assert not ref.certified
        assert ref.grad_norm > 1e-10

    # Each way the line search can end, on logreg-l2 with the Hessian scaled
    # and the value of each trial point, every ``value_and_grad`` call after
    # the first (the start), passed through ``value``; gradients stay exact.
    def _newton_with(self, dataset, value=lambda f: f, hessian_scale=1.0, grad_tol=1e-10):
        problem = logreg_l2(dataset, l2=1e-3)
        calls = collections.Counter()

        def objective(x):
            f, g = problem.value_and_grad(x)
            if not calls["start"]:
                calls["start"] += 1
                return f, g
            calls["trials"] += 1
            return value(f), g

        def hessian(x):
            calls["hessian"] += 1
            return hessian_scale * problem.hessian(x)

        altered = dataclasses.replace(problem, value_and_grad=objective, hessian=hessian)
        return reference_solution(altered, grad_tol=grad_tol), calls

    def test_newton_backtracks_a_step_too_long(self, small_dataset):
        # A quarter of the Hessian makes each Newton step four times too long.
        ref, calls = self._newton_with(small_dataset, hessian_scale=0.25)
        assert ref.certified
        assert calls["trials"] > calls["hessian"]  # some steps were halved

    def test_newton_gives_up_when_no_trial_point_decreases(self, small_dataset):
        ref, calls = self._newton_with(small_dataset, value=lambda f: f + 1.0)
        assert not ref.certified
        np.testing.assert_array_equal(ref.x, np.zeros(small_dataset.n))
        # t = 1, 1/2, ..., 2^-33 (the last above 1e-10), all from x = 0
        assert (calls["hessian"], calls["trials"]) == (1, 34)

    def test_newton_accepts_a_rise_within_rounding(self, small_dataset):
        # Each trial point reads one ulp higher than the one before, so once
        # the true decrease is below an ulp the Armijo test fails; only the
        # rounding-noise rule accepts those steps and reaches the certificate.
        drift = itertools.count(1)
        ref, _ = self._newton_with(small_dataset, grad_tol=1e-14,
                                   value=lambda f: f + next(drift) * np.spacing(f))
        assert ref.certified and ref.grad_norm <= 1e-14

    @pytest.mark.parametrize("l2", [0.0, "auto"])
    def test_newton_evaluates_each_point_once(self, australian_dataset, l2):
        # One value_and_grad call at the start and one per trial point: no
        # point is evaluated twice, every point where a Hessian is taken was
        # evaluated, and value is never read.
        data = australian_dataset
        problem = logreg_l2(data, data.logistic_L / 1e5 if l2 == "auto" else l2)
        points = collections.defaultdict(list)  # each callable's arguments, in call order

        def counted(name):
            def fn(x):
                points[name].append(x.copy())
                return getattr(problem, name)(x)
            return fn

        altered = dataclasses.replace(problem, **{
            name: counted(name) for name in ("value", "value_and_grad", "hessian")})
        ref, plain = reference_solution(altered), reference_solution(problem)
        assert ref.certified and not points["value"]
        evaluated = {x.tobytes() for x in points["value_and_grad"]}
        assert len(evaluated) == len(points["value_and_grad"]) > len(points["hessian"]) > 0
        assert not points["value_and_grad"][0].any()  # the start, x = 0
        assert {x.tobytes() for x in points["hessian"]} <= evaluated
        assert (ref.x.tobytes(), ref.f, ref.grad_norm) == (plain.x.tobytes(), plain.f,
                                                          plain.grad_norm)

    def test_convex_problem_without_optimum_or_hessian_rejected(self):
        problem = quadratic(np.diag([0.0, 1.0]), np.array([0.0, 1.0]))
        assert problem.reference_opt is None and problem.hessian is None
        with pytest.raises(ValueError, match="'quadratic' has neither a closed-form"):
            reference_solution(problem)


class TestVerifyBounds:
    def test_checkpoints(self):
        assert bound_checkpoints(10_000) == [10, 100, 1000, 10_000]
        assert bound_checkpoints(500) == [10, 100, 500]
        assert bound_checkpoints(5) == [5]
        assert bound_checkpoints(10) == [10]

    def test_convex_bound_holds_on_quadratic(self):
        problem = quadratic(np.diag([1.0, 3.0]), np.array([1.0, 3.0]))
        cfg = RunConfig(
            problem="quadratic", optimizer="hb", betas=(0.9,),
            stepsize_mode="theory-cvx", iters=1000, seed=2,
        )
        report = verify_bounds(run(cfg, problem), problem)
        assert report.passed
        assert report.mode == "theory-cvx"
        assert [r.K for r in report.rows] == [10, 100, 1000]
        assert report.certificate is not None and report.certified

    def test_uncertified_reference_fails_convex_report(self, small_dataset):
        problem = logreg_l2(small_dataset, l2=1e-3)
        cfg = RunConfig(
            problem=problem.name, optimizer="hb", betas=(0.9,),
            stepsize_mode="theory-cvx", iters=100,
        )
        trace = run(cfg, problem)
        good = verify_bounds(trace, problem)
        assert good.passed and good.certified
        cut, _ = reference_from_failed_newton(problem, "zero")
        assert not cut.certified
        report = verify_bounds(trace, problem, reference=cut)
        assert not report.passed
        assert report.certified is False
        assert report.certificate == cut.grad_norm

    def test_nonconvex_bound_holds_on_quadratic(self):
        problem = quadratic(np.diag(np.arange(1.0, 6.0)), np.zeros(5))
        cfg = RunConfig(
            problem="quadratic", optimizer="agghb", betas=(0.9, 0.95),
            stepsize_mode="theory-ncvx", iters=1000, seed=4,
        )
        report = verify_bounds(run(cfg, problem), problem)
        assert report.passed
        assert report.certificate is None and report.certified is None
        for row in report.rows:
            assert row.observed <= row.bound

    @pytest.mark.parametrize("mode", ["theory-ncvx", "theory-cvx"])
    def test_prefix_missing_from_trace_fails(self, mode):
        # A trace whose rows stop short of its budget without a divergence
        # flag (a cut file) cannot vouch for the prefixes it lacks.
        problem = quadratic(np.diag(np.arange(1.0, 6.0)), np.ones(5))
        cfg = RunConfig(
            problem="quadratic", optimizer="agghb", betas=(0.9, 0.95),
            stepsize_mode=mode, iters=1000, seed=4,
        )
        trace = run(cfg, problem)
        cut = dataclasses.replace(trace, **{
            name: getattr(trace, name)[:500]
            for name in ("f", "grad_norm", "dist_opt", "f_avg")
            if getattr(trace, name) is not None
        })
        assert not cut.diverged
        full, report = verify_bounds(trace, problem), verify_bounds(cut, problem)
        assert full.passed and not report.passed
        assert report.rows[:2] == full.rows[:2]
        assert report.rows[2].K == 1000 and report.rows[2].observed == float("inf")

    @staticmethod
    def _with_recorded(key, recorded):
        """A passing theory-cvx trace on a quadratic with L = 4 and mu = 1, its
        recorded ``key`` replaced by ``recorded(value)`` or, for None, dropped."""
        problem = quadratic(np.diag([1.0, 4.0]), np.ones(2))
        cfg = RunConfig(problem="quadratic", betas=(0.9,), stepsize_mode="theory-cvx", iters=20)
        trace = run(cfg, problem)
        constants = dict(trace.constants)
        if recorded is None:
            del constants[key]
        else:
            constants[key] = recorded(getattr(problem, key))
        return dataclasses.replace(trace, constants=constants), problem

    @pytest.mark.parametrize("key", ["L", "mu"])
    @pytest.mark.parametrize("recorded", [
        None, str, bool, lambda v: math.inf, lambda v: math.nan, lambda v: v * (1 + 2e-12),
    ], ids=["missing", "text", "bool", "inf", "nan", "off-by-2e-12"])
    def test_recorded_problem_constant_must_match(self, key, recorded):
        trace, problem = self._with_recorded(key, recorded)
        value = getattr(problem, key)
        message = (f"the trace records {key}={trace.constants.get(key)!r}, "
                   f"but problem 'quadratic' has {key}={value!r}")
        with pytest.raises(VerificationRefused, match=f"^{re.escape(message)}$"):
            verify_bounds(trace, problem)

    @pytest.mark.parametrize("key", ["L", "mu"])
    def test_recorded_problem_constant_within_1e12_passes(self, key):
        # the allowance for BLAS differences between machines
        trace, problem = self._with_recorded(key, lambda v: v * (1 + 5e-13))
        assert verify_bounds(trace, problem).passed

    def test_tuned_trace_refused(self):
        problem = identity_quadratic()
        best, _ = tune(
            RunConfig(
                problem="quadratic", optimizer="gd", betas=(0.0,),
                stepsize_mode="tune", iters=10, problem_params={"x0": [1.0]},
            ),
            problem,
        )
        trace = run(best, problem)
        with pytest.raises(VerificationRefused, match="tuned"):
            verify_bounds(trace, problem)

    def test_explicit_trace_refused(self):
        problem = identity_quadratic()
        cfg = RunConfig(
            problem="quadratic", optimizer="gd", betas=(0.0,),
            stepsize_mode="explicit", gammas=(0.5,), iters=10,
            problem_params={"x0": [1.0]},
        )
        with pytest.raises(VerificationRefused):
            verify_bounds(run(cfg, problem), problem)

    def test_zero_momentum_nonconvex_refused(self):
        cfg = RunConfig(
            problem="quadratic", optimizer="gd", betas=(0.0,),
            stepsize_mode="theory-ncvx", iters=10, problem_params={"x0": [1.0]},
        )
        problem = identity_quadratic()
        with pytest.raises(VerificationRefused, match=r"A=0\.0 must be > 0"):
            verify_bounds(run(cfg, problem), problem)

    def test_start_at_optimum_trivially_passes(self):
        problem = quadratic(np.diag([2.0, 2.0]), np.zeros(2))
        cfg = RunConfig(
            problem="quadratic", optimizer="hb", betas=(0.9,),
            stepsize_mode="theory-ncvx", iters=100,
            problem_params={"x0": [0.0, 0.0]},
        )
        report = verify_bounds(run(cfg, problem), problem)
        assert report.passed
        assert all(r.bound == 0.0 and r.observed == 0.0 for r in report.rows)


class TestTraceExport:
    def _trace(self, iters=3, mode="theory-cvx"):
        problem = quadratic(np.diag([1.0, 3.0]), np.array([1.0, 3.0]))
        cfg = RunConfig(
            problem="quadratic", optimizer="hb", betas=(0.9,),
            stepsize_mode=mode, iters=iters, seed=0,
        )
        return run(cfg, problem)

    @staticmethod
    def _columns(values):
        """The trace columns of a dict such as ``vars(trace)``, as lists."""
        return [None if (c := values[name]) is None else c.tolist()
                for name in agghb.harness.TRACE_COLUMNS]

    def test_row_count_and_header(self, tmp_path):
        trace = self._trace(3)
        csv_path, meta_path = export_trace(trace, tmp_path / "t.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "k,f,grad_norm,dist_opt,f_avg"
        assert len(lines) == 5  # header + k = 0..3
        assert meta_path.name == "t.meta.json"

    def test_byte_determinism(self, tmp_path):
        trace = self._trace(5)
        p1, m1 = export_trace(trace, tmp_path / "a.csv")
        p2, m2 = export_trace(trace, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
        assert m1.read_bytes() == m2.read_bytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_read_peak_memory(self, tmp_path, newline):
        # read_trace's block reader reads 16 K characters at a time and turns
        # each block's rows into float64 arrays before it reads the next:
        # 0.54 MiB on this 0.8 MB trace with LF or CRLF newlines, mostly the
        # four columns' arrays, each held twice while it is joined.  Holding the
        # whole text and all its lines peaked at 2.55 MiB, and splitting all
        # rows at once, as one list of cells, at 6.24 MiB.
        csv_path, _ = export_trace(self._trace(10_000), tmp_path / "t.csv")
        csv_path.write_bytes(csv_path.read_bytes().replace(b"\n", newline.encode()))
        tracemalloc.start()
        try:
            read_trace(csv_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.7 * 2**20

    @pytest.mark.parametrize("chars", [1, 7, agghb.harness._READ_CHARS])
    @pytest.mark.parametrize("brk", ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    def test_every_splitlines_break_ends_a_row(self, tmp_path, monkeypatch, chars, brk):
        # a CSV's lines are those str.splitlines cuts, at whatever block size
        trace = self._trace(40)
        csv_path, _ = export_trace(trace, tmp_path / "t.csv")
        text = csv_path.read_text()
        at = text.index("\n20,")  # rows 19 and 20 (lines 21 and 22)
        csv_path.write_text(text[:at] + brk + text[at + 1:], newline="")
        monkeypatch.setattr(agghb.harness, "_READ_CHARS", chars)
        assert self._columns(vars(read_trace(csv_path))) == self._columns(vars(trace))

    @pytest.mark.parametrize("chars", [1, 7, agghb.harness._READ_CHARS])
    @pytest.mark.parametrize("mode", ["theory-cvx", "theory-ncvx"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_block_reader_reads_valid_traces(self, tmp_path, monkeypatch, chars, mode, newline):
        # a valid trace in any newline form or column layout never falls back
        # to the row reader, which holds every row's cells at once
        trace = self._trace(40, mode)
        csv_path, _ = export_trace(trace, tmp_path / "t.csv")
        csv_path.write_bytes(csv_path.read_bytes().replace(b"\n", newline.encode()))
        monkeypatch.setattr(agghb.harness, "_READ_CHARS", chars)

        def refuse(path):
            raise AssertionError("the row reader was asked")

        monkeypatch.setattr(agghb.harness, "_read_rows", refuse)
        assert self._columns(vars(read_trace(csv_path))) == self._columns(vars(trace))

    @pytest.mark.parametrize("chars", [7, agghb.harness._READ_CHARS])
    def test_read_matches_the_row_reader_on_corrupted_traces(self, tmp_path, monkeypatch, chars):
        # The row reader is the oracle: on every corrupted CSV read_trace gives
        # its columns, or its exception and message.  The sidecars take any
        # row count from 1 to 101, so only the CSV is judged.
        rng = np.random.default_rng(38)
        texts = []
        for mode in ("theory-cvx", "theory-ncvx"):
            csv_path, meta_path = export_trace(self._trace(12, mode), tmp_path / f"{mode}.csv")
            meta = json.loads(meta_path.read_text())
            meta["config"]["iters"], meta["diverged"] = 100, True
            meta_path.write_text(json.dumps(meta))
            texts.append((csv_path, csv_path.read_text()))
        monkeypatch.setattr(agghb.harness, "_READ_CHARS", chars)
        outcomes = collections.Counter()
        for _ in range(300):
            csv_path, text = texts[rng.integers(2)]
            lines = text.splitlines()
            at = rng.integers(len(lines))
            cells = lines[at].split(",")
            match rng.integers(6):
                case 0:  # a line break or a junk character
                    cut = rng.integers(len(lines[at]) + 1)
                    junk = str(rng.choice(["\r", "\x0c", "\x85", "\u2028", "x", ",", " ", "-"]))
                    lines[at] = lines[at][:cut] + junk + lines[at][cut:]
                case 1:  # a blank cell
                    cells[rng.integers(len(cells))] = ""
                    lines[at] = ",".join(cells)
                case 2:  # a dropped line
                    del lines[at]
                case 3:  # a repeated line
                    lines.insert(at, lines[rng.integers(len(lines))])
                case 4:  # another k
                    lines[at] = ",".join([str(rng.integers(-1, 14)), *cells[1:]])
                case 5:  # a filled cell
                    cells[rng.integers(len(cells))] = "0.5"
                    lines[at] = ",".join(cells)
            raw = "\n".join(lines).encode() + b"\n"
            if rng.random() < 0.1:
                at = rng.integers(len(raw) + 1)
                raw = raw[:at] + b"\xff" + raw[at:]
            csv_path.write_bytes(raw)
            try:
                want = agghb.harness._read_rows(csv_path)
            except ValueError as exc:
                with pytest.raises(type(exc)) as got:
                    read_trace(csv_path)
                assert str(got.value) == str(exc)
                outcomes["refused"] += 1
            else:
                assert self._columns(vars(read_trace(csv_path))) == self._columns(want)
                outcomes["read"] += 1
        assert min(outcomes["refused"], outcomes["read"]) >= 20, outcomes

    @pytest.mark.parametrize("chars", [7, 100])
    def test_small_blocks_read_back_and_refuse_alike(self, tmp_path, monkeypatch, chars):
        csv_path, _ = export_trace(self._trace(40), tmp_path / "t.csv")
        want = read_trace(csv_path)
        text = csv_path.read_text()
        monkeypatch.setattr(agghb.harness, "_READ_CHARS", chars)
        got = read_trace(csv_path)
        assert all(np.array_equal(getattr(got, c), getattr(want, c))
                   for c in agghb.harness.TRACE_COLUMNS)
        lines = text.splitlines()
        lines[30] = lines[30].rsplit(",", 1)[0] + ","  # f_avg blank at line 31
        for i in (35, 36):  # dist_opt blank at lines 36 and 37
            lines[i] = ",".join(lines[i].split(",")[:3] + ["", lines[i].split(",")[4]])
        csv_path.write_text("\n".join(lines) + "\n")
        # both columns turn blank; dist_opt comes first in the table
        with pytest.raises(ValueError, match=r"^line 36: dist_opt is empty on some rows"):
            read_trace(csv_path)
        lines[38] = "37,1.0,2.0"
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"^line 39: expected 5 fields, got 3$"):
            read_trace(csv_path)

    def test_undecodable_bytes_refused_before_a_bad_row(self, tmp_path, monkeypatch):
        # as reading the whole text refuses them: at their offset in the file,
        # though a malformed row comes first, and the file is long enough
        # that the reader's buffer meets them only after that row
        csv_path, _ = export_trace(self._trace(1000), tmp_path / "t.csv")
        raw = csv_path.read_bytes().replace(b"\n1,", b"\n1,x", 1) + b"\xff\n"
        csv_path.write_bytes(raw)
        monkeypatch.setattr(agghb.harness, "_READ_CHARS", 16)
        with pytest.raises(UnicodeDecodeError, match=f"in position {len(raw) - 2}:"):
            read_trace(csv_path)

    def test_empty_trace_header_only(self, tmp_path):
        cfg = RunConfig(
            problem="quadratic", optimizer="gd", betas=(0.0,),
            stepsize_mode="explicit", gammas=(0.1,), iters=1,
        )
        empty = Trace(
            f=np.array([]), grad_norm=np.array([]),
            dist_opt=None, f_avg=None, config=cfg, gammas=(0.1,), constants={},
            x0=np.zeros(1), wall_time=0.0, diverged=False,
            max_virtual_residual=0.0,
        )
        csv_path, _ = export_trace(empty, tmp_path / "e.csv")
        assert csv_path.read_text() == "k,f,grad_norm,dist_opt,f_avg\n"

    @pytest.mark.parametrize("problem, mode, empty", [
        ("quadratic", "theory-cvx", set()),
        ("quadratic", "theory-ncvx", {"f_avg"}),
        ("logreg-ncvx", "theory-ncvx", {"dist_opt", "f_avg"}),
    ], ids=["quadratic-cvx", "quadratic-ncvx", "logreg-ncvx"])
    def test_read_back_roundtrip(self, tmp_path, problem, mode, empty):
        # every Trace field, over the three column layouts run writes
        params = {}
        if problem == "logreg-ncvx":
            params = {"data": str(tmp_path / "d.libsvm"), "lambda": "auto"}
            (tmp_path / "d.libsvm").write_text(synthetic_libsvm_text(M=30, n=5, seed=2))
        cfg = RunConfig(problem=problem, betas=(0.9, 0.95), stepsize_mode=mode, iters=4,
                        problem_params=params)
        trace = run(cfg, build_problem(problem, params))
        assert {c for c in agghb.harness.TRACE_COLUMNS if getattr(trace, c) is None} == empty
        csv_path, meta_path = export_trace(trace, tmp_path / "t.csv")
        loaded = read_trace(csv_path)
        for field in dataclasses.fields(Trace):
            want, got = getattr(trace, field.name), getattr(loaded, field.name)
            assert type(got) is type(want), field.name
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.tolist() == want.tolist(), field.name
            else:
                assert got == want, field.name
        assert set(json.loads(meta_path.read_text())) == {
            "schema", "config", *agghb.harness._SIDECAR_VALUES}

    def test_tables_name_every_trace_field_once(self):
        # a Trace field missing from both tables would silently drop out of the files
        tables = [{"config"}, set(agghb.harness.TRACE_COLUMNS), set(agghb.harness._SIDECAR_VALUES)]
        fields = [field.name for field in dataclasses.fields(Trace)]
        assert set().union(*tables) == set(fields)
        assert sum(map(len, tables)) == len(fields)
        assert agghb.harness.CSV_HEADER == ",".join(["k", *agghb.harness.TRACE_COLUMNS])

    def test_read_refuses_a_kind_its_betas_do_not_make(self, tmp_path):
        _, meta_path = export_trace(self._trace(3), tmp_path / "t.csv")
        meta = json.loads(meta_path.read_text())
        assert meta["config"]["optimizer"] == "hb"
        meta["config"]["optimizer"] = "agghb"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=r"^metadata sidecar .*t\.meta\.json is malformed: "
                                             r"optimizer 'agghb' does not match betas"):
            read_trace(tmp_path / "t.csv")

    @pytest.mark.parametrize("mode", ["theory-ncvx", "theory-cvx"])
    def test_diverged_trace_short_of_its_budget_reads_back(self, tmp_path, mode):
        # A run that diverges writes fewer than iters + 1 rows; read back, it
        # verifies as the run did, failing the prefix it lacks.
        problem = dataclasses.replace(_hand_built(lambda x: x), f_lower=0.0)
        diverging = _hand_built(_turning_bad(50, lambda x: x, np.nan))
        cfg = RunConfig(problem="hand", betas=(0.9,), stepsize_mode=mode, iters=100,
                        problem_params={"x0": [1.0, -2.0]})
        trace = run(cfg, diverging)
        assert trace.diverged and len(trace.f) == 51
        export_trace(trace, tmp_path / "t.csv")
        loaded = read_trace(tmp_path / "t.csv")
        assert loaded.diverged and len(loaded.f) == 51
        report = verify_bounds(loaded, problem)
        assert report == verify_bounds(trace, problem)
        assert [(r.K, r.observed, r.passed) for r in report.rows[1:]] == [(100, math.inf, False)]

    def test_read_corrupted_reports_line(self, tmp_path):
        trace = self._trace(3)
        csv_path, _ = export_trace(trace, tmp_path / "t.csv")
        text = csv_path.read_text().splitlines()
        text[2] = "1,not_a_number,0,,"
        csv_path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            read_trace(csv_path)

    def test_verify_from_reloaded_trace(self, tmp_path):
        problem = quadratic(np.diag(np.arange(1.0, 11.0)), np.zeros(10))
        cfg = RunConfig(
            problem="quadratic", optimizer="hb", betas=(0.9,),
            stepsize_mode="theory-ncvx", iters=200, seed=0,
            problem_params={"dim": 10},
        )
        export_trace(run(cfg, problem), tmp_path / "t.csv")
        loaded = read_trace(tmp_path / "t.csv")
        rebuilt = build_problem(loaded.config.problem, loaded.config.problem_params)
        assert verify_bounds(loaded, rebuilt).passed


class TestBuildProblem:
    def test_quadratic_default(self):
        p = build_problem("quadratic", {"dim": 4})
        assert p.dim == 4
        assert p.L == pytest.approx(4.0)

    def test_rosenbrock(self):
        assert build_problem("rosenbrock", {}).name == "rosenbrock"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown problem"):
            build_problem("simplex", {})

    def test_logreg_from_file_with_auto_regularization(self, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text(synthetic_libsvm_text(M=30, n=5, seed=2))
        p = build_problem("logreg-l2", {"data": str(path), "l2": "auto"})
        assert p.mu > 0
        assert p.mu == pytest.approx((p.L - p.mu) / 1e5, rel=1e-6)

    @pytest.mark.parametrize(
        "name, params",
        [("logreg-l2", {"l2": "auto"}), ("logreg-l2", {"l2": 0.0}),
         ("logreg-ncvx", {"lambda": "auto"})],
    )
    def test_logreg_build_computes_spectral_norm_once(
        self, tmp_path, monkeypatch, name, params
    ):
        path = tmp_path / "d.libsvm"
        path.write_text(synthetic_libsvm_text(M=30, n=5, seed=2))
        original = agghb.problems.spectral_norm
        calls = []

        def counting(A, *args, **kwargs):
            calls.append(A.shape)
            return original(A, *args, **kwargs)

        monkeypatch.setattr(agghb.problems, "spectral_norm", counting)
        p = build_problem(name, {"data": str(path), **params})
        assert calls == [(30, 5)]
        sn, _ = original(to_dataset(load_libsvm(path)).features)
        base = 1.01 * sn / (4.0 * 30)
        # logreg-l2's regularizer is its mu; logreg-ncvx's lambda is "auto", base / 1e3
        reg = p.mu if name == "logreg-l2" else 2.0 * (base / 1e3)
        assert p.L == base + reg  # bit-identical to the uncached formula

    @pytest.mark.parametrize("name, stray", [
        ("logreg-l2", "L2"), ("logreg-l2", "lambda"), ("logreg-ncvx", "l2"),
        ("quadratic", "data"), ("rosenbrock", "dim"),
    ])
    def test_parameter_the_problem_does_not_take_refused(self, tmp_path, name, stray):
        path = tmp_path / "d.libsvm"
        path.write_text(synthetic_libsvm_text(M=30, n=5, seed=2))
        params = {"data": str(path)} if name.startswith("logreg") else {}
        with pytest.raises(ProblemParamError) as refused:
            build_problem(name, {**params, stray: 1e-3})
        assert str(refused.value) == f"{stray!r} makes no sense with problem {name!r}"
        assert refused.value.param == stray

    @pytest.mark.parametrize("name", sorted(PROBLEM_PARAMS))
    def test_every_problem_takes_x0_and_its_defaults(self, tmp_path, name):
        path = tmp_path / "d.libsvm"
        path.write_text(synthetic_libsvm_text(M=30, n=5, seed=2))
        params = {"data": str(path)} if name.startswith("logreg") else {}
        plain = build_problem(name, params)
        explicit = {**PROBLEM_PARAMS[name], **params}  # every default spelled out
        same = build_problem(name, {**explicit, "x0": [0.0] * plain.dim})
        assert (same.dim, same.L, same.mu) == (plain.dim, plain.L, plain.mu)

    @pytest.mark.parametrize("name, key, value, message", [
        ("logreg-l2", "l2", None, "'l2' must be a number or 'auto', got None"),
        ("logreg-l2", "l2", True, "'l2' must be a number or 'auto', got True"),
        ("logreg-ncvx", "lambda", [1], "'lambda' must be a number or 'auto', got [1]"),
        ("logreg-ncvx", "lambda", "abc", "'lambda' must be a number or 'auto', got 'abc'"),
        ("logreg-l2", "n_features", "x", "'n_features' must be an integer, got 'x'"),
        ("logreg-l2", "n_features", 6.5, "'n_features' must be an integer, got 6.5"),
        ("logreg-l2", "data", 5, "'data' must be a non-empty string, got 5"),
        ("logreg-l2", "data", "", "'data' must be a non-empty string, got ''"),
        ("quadratic", "dim", None, "'dim' must be an integer, got None"),
        ("quadratic", "dim", 2.7, "'dim' must be an integer, got 2.7"),
        ("quadratic", "dim", True, "'dim' must be an integer, got True"),
        ("quadratic", "dim", "2.0", "'dim' must be an integer, got '2.0'"),
        ("quadratic", "dim", "0", "quadratic dimension must be >= 1, got 0"),
        ("quadratic", "dim", -3.0, "quadratic dimension must be >= 1, got -3"),
    ])
    def test_value_its_parser_refuses(self, tmp_path, name, key, value, message):
        path = tmp_path / "d.libsvm"
        path.write_text(synthetic_libsvm_text(M=30, n=5, seed=2))
        params = {"data": str(path)} if name.startswith("logreg") else {}
        with pytest.raises(ProblemParamError) as refused:
            build_problem(name, {**params, key: value})
        assert str(refused.value) == message
        assert refused.value.param == key

    @pytest.mark.parametrize("params", [None, [], "dim=4"])
    def test_params_that_are_not_a_dict_refused(self, params):
        with pytest.raises(ProblemParamError, match="'problem_params' must be a dict"):
            build_problem("quadratic", params)

    def test_flag_text_and_json_values_build_the_same_problem(self, tmp_path):
        # a flag's text, as meta.json records it, and the JSON value it reads as
        path = tmp_path / "d.libsvm"
        path.write_text(synthetic_libsvm_text(M=30, n=5, seed=2))
        assert build_problem("quadratic", {"dim": "4"}).dim == 4
        assert build_problem("quadratic", {"dim": 4.0}).dim == 4
        text = build_problem("logreg-l2", {"data": str(path), "n_features": "7", "l2": "1e-3"})
        value = build_problem("logreg-l2", {"data": str(path), "n_features": 7, "l2": 1e-3})
        assert (text.dim, text.L, text.mu) == (value.dim, value.L, value.mu) == (7, value.L, 1e-3)

    def test_logreg_requires_data(self):
        with pytest.raises(ValueError, match="data"):
            build_problem("logreg-ncvx", {})
        with pytest.raises(ProblemParamError, match="requires 'data'"):
            build_problem("logreg-l2", {"data": None})  # as a sidecar's null reads

    def test_data_dir_env_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "set.libsvm"
        path.write_text("1 1:1.0\n-1 1:2.0\n")
        monkeypatch.setenv("AGGHB_DATA_DIR", str(tmp_path))
        assert resolve_data_path("set.libsvm") == path
        monkeypatch.delenv("AGGHB_DATA_DIR")
        with pytest.raises(FileNotFoundError):
            resolve_data_path("set.libsvm")
