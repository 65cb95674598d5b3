"""Acceptance suite: each numbered criterion at its stated tolerance.

Every test prints one line:  [acceptance] criterion N (name): PASS/FAIL.
The heavy runs are shared through module fixtures so the suite stays inside
the stated runtime budgets.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they complete.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from agghb.harness import (
    RunConfig,
    reference_solution,
    run,
    tune,
    verify_bounds,
)
from agghb.libsvm import LibsvmFormatError, LibsvmRecord, load_libsvm, parse_libsvm, serialize_libsvm
from agghb.optim import init, step
from agghb.problems import (
    logreg_l2,
    logreg_nonconvex,
    quadratic,
    rosenbrock,
    spectral_norm,
)
from agghb.theory import effective_betas

from conftest import AUSTRALIAN_M, AUSTRALIAN_N
from oracles import finite_diff_gradient, hb_init, hb_step

BETA_SETS = ((0.9,), (0.9, 0.95), (0.9, 0.95, 0.99))
CONVERGENCE_FLOOR = 1e-12  # objective values below this are float residue


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"\n[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"\n[acceptance] criterion {num} ({name}): PASS")


def _kind(betas):
    return "hb" if len(betas) == 1 else "agghb"


# ---------------------------------------------------------------------------
# Shared expensive fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def base_smoothness(australian_dataset):
    sn, converged = spectral_norm(australian_dataset.features)
    assert converged
    return 1.01 * sn / (4.0 * australian_dataset.M)


@pytest.fixture(scope="module")
def quad10():
    return quadratic(np.diag(np.arange(1.0, 11.0)), np.zeros(10))


@pytest.fixture(scope="module")
def ncvx_problem(australian_dataset, base_smoothness):
    return logreg_nonconvex(australian_dataset, base_smoothness / 1e3)


@pytest.fixture(scope="module")
def cvx_problems(australian_dataset, base_smoothness):
    return {
        "convex": logreg_l2(australian_dataset, 0.0),
        "strongly_convex": logreg_l2(australian_dataset, base_smoothness / 1e5),
    }


@pytest.fixture(scope="module")
def references(cvx_problems):
    t0 = time.perf_counter()
    refs = {name: reference_solution(p) for name, p in cvx_problems.items()}
    return refs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def thm1_traces(quad10, ncvx_problem):
    """Non-convex theory-stepsize runs: 2 problems x 3 beta sets, K = 10^4."""
    t0 = time.perf_counter()
    out = []
    for problem in (quad10, ncvx_problem):
        for betas in BETA_SETS:
            cfg = RunConfig(
                problem=problem.name, optimizer=_kind(betas), betas=betas,
                stepsize_mode="theory-ncvx", iters=10_000, seed=0,
            )
            trace = run(cfg, problem)
            assert not trace.diverged
            out.append((problem, trace))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def thm2_traces(cvx_problems, references):
    """Convex theory-stepsize runs: 2 regularizations x 3 beta sets, K = 10^4."""
    refs, _ = references
    t0 = time.perf_counter()
    out = []
    for name, problem in cvx_problems.items():
        for betas in BETA_SETS:
            cfg = RunConfig(
                problem=problem.name, optimizer=_kind(betas), betas=betas,
                stepsize_mode="theory-cvx", iters=10_000, seed=0,
            )
            trace = run(cfg, problem)
            assert not trace.diverged
            out.append((name, problem, trace, refs[name]))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fig_results(cvx_problems, references):
    """Tuned-stepsize comparison runs behind the qualitative reproduction."""
    refs, _ = references
    results = {"traces": []}

    ros = rosenbrock()
    tuned = {}
    for label, betas in (("agghb", (0.9, 0.95, 0.99, 0.999)), ("hb", (0.95,))):
        base = RunConfig(
            problem="rosenbrock", optimizer=_kind(betas), betas=betas,
            stepsize_mode="tune", iters=5000, seed=0,
        )
        best, _ = tune(base, ros)
        trace = run(best, ros)
        tuned[label] = float(trace.f[-1])
        results["traces"].append(trace)
    results["rosenbrock"] = tuned

    for name, problem in cvx_problems.items():
        target = refs[name].f + 1e-6
        iters_to_target = {}
        for label, betas in (
            ("agghb", (0.9, 0.95, 0.99)), ("hb09", (0.9,)), ("hb095", (0.95,)),
        ):
            base = RunConfig(
                problem=problem.name, optimizer=_kind(betas), betas=betas,
                stepsize_mode="tune", iters=6000, seed=0,
            )
            best, _ = tune(base, problem)
            trace = run(best, problem)
            hits = np.nonzero(trace.f <= target)[0]
            iters_to_target[label] = int(hits[0]) if len(hits) else None
            results["traces"].append(trace)
        results[name] = iters_to_target
    return results


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_m1_reduction():
    with criterion(1, "m=1 reduction"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(20):
            beta = float(rng.uniform(0.0, 0.99))
            dim = int(rng.integers(2, 8))
            diag = rng.uniform(0.5, 5.0, dim)
            # keep inside the stability region so 500 steps stay finite
            gamma = float(rng.uniform(0.05, 0.9)) * 2 * (1 + beta) / diag.max()
            x0 = rng.standard_normal(dim)
            x, V = init(1, x0)
            betas, weights = np.array([[beta]]), np.array([[[gamma]]])
            hb = hb_init(x0, beta, gamma)
            for _ in range(500):
                step(x, V, diag * x, betas, weights)
                hb = hb_step(hb, diag * hb.x)
                assert np.linalg.norm(x - hb.x) <= 1e-12 * (
                    1.0 + np.linalg.norm(hb.x)
                )
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_2_virtual_iterate_recursion(thm1_traces, thm2_traces, fig_results):
    with criterion(2, "virtual-iterate recursion"):
        traces = [t for _, t in thm1_traces[0]]
        traces += [t for _, _, t, _ in thm2_traces[0]]
        traces += fig_results["traces"]
        assert len(traces) >= 20
        for trace in traces:
            assert trace.max_virtual_residual <= 1e-10


def test_criterion_3_effective_betas():
    with criterion(3, "effective-beta correctness"):
        from test_theory import bisect_beta_tilde

        rng = np.random.default_rng(77)
        for _ in range(100):
            m = int(rng.integers(1, 17))
            betas = rng.uniform(0.0, 0.995, m)
            eb = effective_betas(betas)
            s = float(np.mean(betas / (1.0 - betas) ** 2))
            assert abs(eb.beta_tilde - bisect_beta_tilde(s)) <= 1e-12
            hat_lhs = 1.0 / (1.0 - eb.beta_hat)
            hat_rhs = float(np.mean(1.0 / (1.0 - betas)))
            assert abs(hat_lhs - hat_rhs) <= 1e-12 * hat_rhs
            assert betas.min() - 1e-12 <= eb.beta_tilde <= betas.max() + 1e-12
            assert betas.min() - 1e-12 <= eb.beta_hat <= betas.max() + 1e-12


def test_criterion_4_nonconvex_bound(thm1_traces):
    with criterion(4, "non-convex guarantee holds"):
        traces, elapsed = thm1_traces
        for problem, trace in traces:
            report = verify_bounds(trace, problem)
            assert [r.K for r in report.rows] == [10, 100, 1000, 10_000]
            failures = [r for r in report.rows if not r.passed]
            assert not failures, (problem.name, trace.config.betas, failures)
        assert elapsed < 60.0, f"runs took {elapsed:.1f}s"


def test_criterion_5_convex_bounds(thm2_traces, references, cvx_problems):
    with criterion(5, "convex guarantees hold"):
        traces, run_elapsed = thm2_traces
        refs, ref_elapsed = references
        for name, problem, trace, ref in traces:
            report = verify_bounds(trace, problem, reference=ref)
            assert [r.K for r in report.rows] == [10, 100, 1000, 10_000]
            failures = [r for r in report.rows if not r.passed]
            assert not failures, (name, trace.config.betas, failures)

            # independent re-evaluation of the claimed ceilings
            F = sum(
                g / (1.0 - b) for b, g in zip(trace.config.betas, trace.gammas)
            ) / len(trace.gammas)
            r0_sq = float(np.linalg.norm(trace.x0 - ref.x) ** 2)
            slack = 2.0 * ref.grad_norm
            for K in (10, 100, 1000, 10_000):
                observed = float(trace.f_avg[K]) - ref.f
                if problem.mu == 0.0:
                    ceiling = 4.0 * r0_sq / (F * K)
                else:
                    ceiling = (1.0 - problem.mu * F / 2.0) ** K * 4.0 * r0_sq / F
                assert observed <= ceiling + slack, (name, K, observed, ceiling)
        elapsed = run_elapsed + ref_elapsed
        assert elapsed < 120.0, f"runs + references took {elapsed:.1f}s"


def test_criterion_6_gradient_correctness(quad10, ncvx_problem, cvx_problems):
    with criterion(6, "gradient correctness"):
        rng = np.random.default_rng(123)
        problems = [quad10, rosenbrock(), cvx_problems["strongly_convex"], ncvx_problem]
        assert len({p.name for p in problems}) == 4
        for problem in problems:
            for _ in range(10):
                x = rng.standard_normal(problem.dim)
                h = 1e-6 * (1.0 + np.linalg.norm(x))
                approx = finite_diff_gradient(problem, x, h)
                exact = problem.gradient(x)
                err = np.linalg.norm(approx - exact)
                assert err <= 1e-5 * max(np.linalg.norm(exact), 1e-8), problem.name


def test_criterion_7_smoothness_constants(cvx_problems, ncvx_problem):
    with criterion(7, "smoothness constants"):
        rng = np.random.default_rng(321)
        for problem in (cvx_problems["convex"], cvx_problems["strongly_convex"], ncvx_problem):
            for _ in range(100):
                x = rng.standard_normal(problem.dim)
                y = rng.standard_normal(problem.dim)
                lhs = np.linalg.norm(problem.gradient(x) - problem.gradient(y))
                assert lhs <= 1.01 * problem.L * np.linalg.norm(x - y) + 1e-12

        for seed in range(10):
            A = np.random.default_rng(seed).standard_normal((50, 20))
            est, converged = spectral_norm(A)
            exact = float(np.linalg.eigvalsh(A.T @ A)[-1])
            assert converged
            assert abs(est - exact) <= 1e-4 * exact


def test_criterion_8_qualitative_reproduction(fig_results):
    with criterion(8, "qualitative trajectory reproduction"):
        ros = fig_results["rosenbrock"]
        # Below the double-precision floor both trajectories have found the
        # optimum; ordering there is float residue, not method quality.
        assert ros["agghb"] <= max(ros["hb"], CONVERGENCE_FLOOR), ros

        for name in ("convex", "strongly_convex"):
            iters = fig_results[name]
            hb_best = min(
                v for v in (iters["hb09"], iters["hb095"]) if v is not None
            )
            assert iters["agghb"] is not None, (name, iters)
            assert iters["agghb"] <= 1.1 * hb_best, (name, iters)


def test_criterion_9_parser_robustness(australian_file):
    with criterion(9, "parser robustness"):
        rng = np.random.default_rng(55)

        records = []
        for _ in range(1000):
            k = int(rng.integers(0, 9))
            idxs = sorted(rng.choice(np.arange(1, 120), size=k, replace=False))
            entries = tuple(
                (int(i), float(rng.standard_normal() * 10 ** rng.uniform(-3, 3)))
                for i in idxs
            )
            label = float(rng.choice([-1.0, 1.0, 0.0, 3.5]))
            records.append(LibsvmRecord(label=label, entries=entries))
        assert parse_libsvm(serialize_libsvm(records)).records == tuple(records)

        for _ in range(400):
            blob = rng.bytes(int(rng.integers(0, 300)))
            try:
                parse_libsvm(blob)
            except LibsvmFormatError:
                pass  # structured rejection is the point

        result = load_libsvm(australian_file)
        assert len(result.records) == AUSTRALIAN_M
        assert result.n_features == AUSTRALIAN_N
