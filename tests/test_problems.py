"""Tests for the objective constructors and their constants."""

import dataclasses
import tracemalloc
import weakref
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import agghb.problems
from agghb.libsvm import parse_libsvm, to_dataset
from agghb.problems import (
    _DENSE_FALLBACK_COLS,
    Dataset,
    Problem,
    logreg_l2,
    logreg_nonconvex,
    quadratic,
    rosenbrock,
    spectral_norm,
)

from conftest import synthetic_libsvm_text
from oracles import as_dense, finite_diff_gradient, logistic_oracle


def shipped_problem(name, data):
    """One of the four built problems, the logistic ones on ``data``."""
    return {
        "quadratic": lambda: quadratic(np.diag([1.0, 2.0, 3.0]), np.ones(3)),
        "rosenbrock": rosenbrock,
        "logreg-l2": lambda: logreg_l2(data, 1e-3),
        "logreg-ncvx": lambda: logreg_nonconvex(data, 1e-2),
    }[name]()


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def fd_hessian_check(problem, x, rel=1e-5):
    """Compare the Hessian with central differences of the gradient."""
    h = 1e-5 * (1.0 + np.linalg.norm(x))
    approx = np.column_stack([
        (problem.gradient(x + h * e) - problem.gradient(x - h * e)) / (2.0 * h)
        for e in np.eye(problem.dim)
    ])
    exact = problem.hessian(x)
    assert exact.shape == (problem.dim, problem.dim)
    np.testing.assert_allclose(exact, exact.T, rtol=0, atol=1e-15)
    assert np.linalg.norm(approx - exact) <= rel * np.linalg.norm(exact)


def fd_check(problem, x, rel=1e-5):
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    approx = finite_diff_gradient(problem, x, h)
    exact = problem.gradient(x)
    scale = np.linalg.norm(exact)
    assert np.linalg.norm(approx - exact) <= rel * max(scale, 1e-8)


class TestQuadratic:
    def test_identity(self):
        p = quadratic(np.eye(3), np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(p.gradient(x), x)
        assert p.L == pytest.approx(1.0)
        assert p.mu == pytest.approx(1.0)
        x_star, f_star = p.reference_opt
        np.testing.assert_allclose(x_star, np.zeros(3), atol=1e-14)
        assert f_star == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_spectrum(self):
        p = quadratic(np.diag([1.0, 3.0]), np.zeros(2))
        assert p.L == pytest.approx(3.0)
        assert p.mu == pytest.approx(1.0)

    def test_known_optimum(self):
        p = quadratic(np.diag([1.0, 3.0]), np.array([1.0, 3.0]))
        x_star, f_star = p.reference_opt
        np.testing.assert_allclose(x_star, [1.0, 1.0], rtol=1e-12)
        assert f_star == pytest.approx(-2.0, rel=1e-12)
        assert p.f_lower == pytest.approx(-2.0, rel=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            quadratic(np.diag([1.0, -1.0]), np.zeros(2))

    def test_convex_flag(self):
        assert quadratic(np.eye(2), np.zeros(2)).convex

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="got dimension 0"):
            quadratic(np.zeros((0, 0)), np.zeros(0))


class TestProblem:
    @pytest.mark.parametrize("field, value", [
        ("L", 0.0), ("L", -1.0), ("L", float("inf")), ("L", float("nan")),
        ("mu", -1.0), ("mu", float("inf")), ("mu", float("nan")),
    ])
    def test_constants_checked_when_made(self, field, value):
        # as theory checks them: tune divides by L before any theory call
        p = quadratic(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match=f"^{field} must be "):
            dataclasses.replace(p, **{field: value})

    def test_replace_derives_anew_from_a_new_value_and_grad(self):
        p = quadratic(np.diag([1.0, 2.0]), np.zeros(2))

        def halved(X):
            f, G = p.value_and_grad(X)
            return f, 0.5 * G

        kept = lambda x: np.zeros(2)
        h = dataclasses.replace(p, value_and_grad=halved, value=p.value, gradient=kept)
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert same_bits(h.finite_and_grad(X)[1], 0.5 * p.value_and_grad(X)[1])
        assert same_bits(h.value(X), p.value(X)) and h.gradient is kept
        # an unchanged value_and_grad keeps the derived fields as they are
        again = dataclasses.replace(h, L=3.0)
        assert (again.value, again.finite_and_grad) == (h.value, h.finite_and_grad)

    @pytest.mark.parametrize("name", ["quadratic", "rosenbrock", "logreg-l2", "logreg-ncvx"])
    def test_derived_objectives_are_value_and_grads(self, small_dataset, name):
        p = shipped_problem(name, small_dataset)
        rng = np.random.default_rng(46)
        for x in (rng.standard_normal(p.dim), 1e3 * rng.standard_normal(p.dim)):
            with np.errstate(over="ignore"):  # the sigmoid's exp(z) at z > 709.78
                assert same_bits(p.gradient(x), p.value_and_grad(x)[1])
            if name in ("quadratic", "rosenbrock"):  # the logistic ones give their own value
                X = rng.standard_normal((p.dim, 7))
                assert same_bits(p.value(x), p.value_and_grad(x)[0])
                assert same_bits(p.value(X), p.value_and_grad(X)[0])

    def test_hand_built_problem_needs_only_value_and_grad(self):
        def value_and_grad(X):
            return 0.5 * (X * X).sum(axis=0), X

        p = Problem(name="bowl", dim=2, value_and_grad=value_and_grad, L=1.0)
        x, X = np.array([3.0, -4.0]), np.array([[1.0, 0.0], [2.0, 3.0]])
        assert p.value(x) == 12.5
        np.testing.assert_array_equal(p.value(X), [2.5, 4.5])
        np.testing.assert_array_equal(p.gradient(x), x)
        own = Problem(name="bowl", dim=2, value_and_grad=value_and_grad, L=1.0,
                      value=np.sum, gradient=np.negative)
        assert own.value is np.sum and own.gradient is np.negative


class TestRosenbrock:
    def test_global_minimum(self):
        p = rosenbrock()
        assert p.value(np.array([1.0, 1.0])) == 0.0
        np.testing.assert_array_equal(p.gradient(np.array([1.0, 1.0])), [0.0, 0.0])

    def test_origin(self):
        p = rosenbrock()
        assert p.value(np.zeros(2)) == pytest.approx(1.0)
        np.testing.assert_allclose(p.gradient(np.zeros(2)), [-2.0, 0.0])

    def test_gradient_vs_finite_differences(self):
        p = rosenbrock()
        fd_check(p, np.array([-1.5, 2.0]))
        fd_check(p, np.array([0.5, 0.5]))

    def test_local_smoothness_estimate(self):
        p = rosenbrock()
        assert p.L >= 200.0  # at least the constant curvature of the y direction
        assert np.isfinite(p.L)
        assert not p.convex
        assert p.L_is_local_estimate

    def test_local_L_is_the_grid_maximum(self):
        # Largest Hessian spectral norm over an 81 x 81 grid on [-2, 2]^2,
        # whose corners are where the closed form places the maximum.
        X, Y = np.meshgrid(np.linspace(-2.0, 2.0, 81), np.linspace(-2.0, 2.0, 81))
        hxx = 2.0 - 400.0 * Y + 1200.0 * X * X
        hxy = -400.0 * X
        hyy = np.full_like(hxx, 200.0)
        mean = (hxx + hyy) / 2.0
        radius = np.sqrt(((hxx - hyy) / 2.0) ** 2 + hxy ** 2)
        grid_max = float(np.max(np.maximum(np.abs(mean + radius), np.abs(mean - radius))))
        assert rosenbrock().L == grid_max == 5717.984380503378


def tiny_dataset():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.5, -1.0], [0.0, 2.0]]))
    y = np.array([1.0, -1.0, 1.0])
    return Dataset(features=A, labels=y)


class TestDataset:
    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(features=sp.eye(2, format="csr"), labels=np.array([1.0, 2.0]))

    def test_nan_features_rejected(self):
        A = sp.csr_matrix(np.array([[np.nan]]))
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(features=A, labels=np.array([1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            Dataset(features=sp.eye(3, format="csr"), labels=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("n", [3, _DENSE_FALLBACK_COLS + 1], ids=["dense", "csr"])
    def test_zero_samples_rejected(self, n):
        # refused when built, not later as a division by M = 0 in logistic_L
        with pytest.raises(ValueError, match="^cannot build a dataset from zero records$"):
            Dataset(features=np.zeros((0, n)), labels=np.zeros(0))

    @pytest.mark.parametrize("n", [0, 1, _DENSE_FALLBACK_COLS, _DENSE_FALLBACK_COLS + 1])
    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_held_dense_up_to_the_cutoff(self, kind, n):
        A = np.random.default_rng(n).standard_normal((5, n))
        A[1] = 0.0
        data = Dataset(features=A if kind == "dense" else sp.csr_matrix(A), labels=np.ones(5))
        if n <= _DENSE_FALLBACK_COLS:
            assert type(data.features) is np.ndarray and data.features.flags.c_contiguous
        else:
            assert data.features.format == "csr"
        np.testing.assert_array_equal(as_dense(data.features), A)
        assert as_dense(data.features).dtype == np.float64

    @pytest.mark.parametrize("n", [2, _DENSE_FALLBACK_COLS + 1], ids=["dense", "csr"])
    def test_checks_read_either_form(self, n):
        A = np.zeros((2, n))
        A[1, 1] = np.inf
        with pytest.raises(ValueError, match="^feature matrix contains non-finite values$"):
            Dataset(features=A, labels=np.array([1.0, -1.0]))
        # stored zeros only, on the CSR form as well
        data = to_dataset(parse_libsvm("1 1:0\n-1 2:0\n"), n_features=n)
        with pytest.raises(ValueError, match="^the data has no nonzero feature value"):
            logreg_l2(data, 0.0)

    def test_not_a_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"must be 2-D, got shape \(3,\)"):
            Dataset(features=np.ones(3), labels=np.ones(1))

    def test_unallocatable_feature_count_rejected(self):
        A = sp.csr_matrix((np.array([1.0]), np.array([0]), np.array([0, 1])), shape=(1, 2**62))
        with pytest.raises(ValueError, match=f"feature count {2**62} "):
            Dataset(features=A, labels=np.array([1.0]))


class TestLogregL2:
    def test_value_at_zero_is_log_two(self):
        p = logreg_l2(tiny_dataset(), l2=0.0)
        assert p.value(np.zeros(2)) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_gradient_at_zero(self):
        data = tiny_dataset()
        p = logreg_l2(data, l2=0.0)
        expected = -data.features.T @ data.labels / (2.0 * data.M)
        np.testing.assert_allclose(p.gradient(np.zeros(2)), expected, rtol=1e-12)

    def test_single_sample_scalar(self):
        data = Dataset(features=sp.csr_matrix([[1.0]]), labels=np.array([1.0]))
        p = logreg_l2(data, l2=0.0)
        assert p.value(np.array([10.0])) == pytest.approx(
            np.log1p(np.exp(-10.0)), rel=1e-12
        )

    def test_numerically_stable_for_extreme_margins(self):
        data = Dataset(features=sp.csr_matrix([[1.0]]), labels=np.array([-1.0]))
        p = logreg_l2(data, l2=0.0)
        assert p.value(np.array([1000.0])) == pytest.approx(1000.0, rel=1e-12)
        assert p.value(np.array([-1000.0])) == pytest.approx(0.0, abs=1e-300)
        assert np.all(np.isfinite(p.gradient(np.array([1000.0]))))

    def test_constants(self):
        data = tiny_dataset()
        sn, converged = spectral_norm(data.features)
        assert converged
        p = logreg_l2(data, l2=0.01)
        assert p.L == pytest.approx(1.01 * sn / (4.0 * data.M) + 0.01, rel=1e-9)
        assert p.mu == 0.01
        assert p.convex
        assert p.f_lower == 0.0

    def test_negative_l2_rejected(self):
        with pytest.raises(ValueError):
            logreg_l2(tiny_dataset(), l2=-1.0)

    @pytest.mark.parametrize("l2", [float("nan"), float("inf")])
    def test_non_finite_l2_rejected(self, l2):
        with pytest.raises(ValueError, match="l2 must be finite"):
            logreg_l2(tiny_dataset(), l2=l2)

    @pytest.mark.parametrize("dataset", ["small_dataset", "wide_dataset"])
    @pytest.mark.parametrize("l2", [0.0, 0.05])
    def test_hessian_matches_finite_differences(self, request, dataset, l2):
        # small_dataset takes the dense fallback, wide_dataset the CSR branch.
        p = logreg_l2(request.getfixturevalue(dataset), l2=l2)
        x = 0.3 * np.random.default_rng(1).standard_normal(p.dim)
        fd_hessian_check(p, np.zeros(p.dim))
        fd_hessian_check(p, x)

    def test_hessian_where_the_sigmoid_saturates(self):
        # s(1 - s) of the sigmoid rounds to 0 at z = 40; e / (1 + e)^2 does not
        data = Dataset(features=sp.csr_matrix([[40.0]]), labels=np.array([1.0]))
        H = logreg_l2(data, l2=0.0).hessian(np.array([1.0]))
        e = np.exp(-40.0)
        assert H[0, 0] == pytest.approx(1600.0 * e / (1.0 + e) ** 2, rel=1e-12, abs=0.0)

    def test_data_without_a_nonzero_feature_needs_a_regularizer(self):
        # stored zeros only: the loss is the constant log 2 and L would be 0
        data = to_dataset(parse_libsvm("1 1:0\n-1 2:0\n"))
        for build, name, L in ((logreg_l2, "l2", 0.1), (logreg_nonconvex, "lambda", 0.2)):
            with pytest.raises(ValueError, match=f"^the data has no nonzero feature value, "
                                                 f"so with {name} = 0 "):
                build(data, 0.0)
            assert build(data, 0.1).L == L

    def test_strong_convexity_audit(self):
        data = tiny_dataset()
        l2 = 0.5
        p = logreg_l2(data, l2=l2)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, z = rng.standard_normal(2), rng.standard_normal(2)
            lhs = p.value(z)
            rhs = (
                p.value(x)
                + p.gradient(x) @ (z - x)
                + 0.5 * l2 * np.linalg.norm(z - x) ** 2
            )
            assert lhs >= rhs - 1e-10 * (1.0 + abs(lhs))


@pytest.mark.parametrize("build", [logreg_l2, logreg_nonconvex])
@pytest.mark.parametrize("n", [6, 80], ids=["dense", "sparse"])
def test_logistic_problem_does_not_keep_its_dataset(build, n):
    # The problem keeps its own signed copy of the features; the Dataset, and
    # with it the unsigned matrix, must be free to go once only the problem is left.
    data = to_dataset(parse_libsvm(synthetic_libsvm_text(M=40, n=n, seed=3)))
    gone = weakref.ref(data)
    problem = build(data, 0.01)
    del data
    assert gone() is None
    assert np.isfinite(problem.value(np.zeros(problem.dim)))


class TestLogregNonconvex:
    def test_penalty_vanishes_at_zero(self):
        p0 = logreg_nonconvex(tiny_dataset(), lam=0.7)
        q0 = logreg_l2(tiny_dataset(), l2=0.0)
        assert p0.value(np.zeros(2)) == pytest.approx(q0.value(np.zeros(2)), rel=1e-12)
        np.testing.assert_allclose(
            p0.gradient(np.zeros(2)), q0.gradient(np.zeros(2)), rtol=1e-12
        )

    def test_penalty_at_one(self):
        lam = 0.8
        plain = logreg_nonconvex(tiny_dataset(), lam=0.0)
        pen = logreg_nonconvex(tiny_dataset(), lam=lam)
        x = np.array([1.0, 0.0])
        # x_j = 1 contributes lam/2 to the value and lam/2 to that gradient entry
        assert pen.value(x) - plain.value(x) == pytest.approx(lam / 2.0, rel=1e-12)
        diff = pen.gradient(x) - plain.gradient(x)
        np.testing.assert_allclose(diff, [lam / 2.0, 0.0], rtol=1e-12, atol=1e-15)

    def test_penalty_bounded(self):
        lam = 0.3
        pen = logreg_nonconvex(tiny_dataset(), lam=lam)
        plain = logreg_nonconvex(tiny_dataset(), lam=0.0)
        x = np.full(2, 1e8)
        assert pen.value(x) - plain.value(x) <= lam * 2 + 1e-9

    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite and nonnegative"):
            logreg_nonconvex(tiny_dataset(), lam=lam)

    def test_constants(self):
        data = tiny_dataset()
        sn, _ = spectral_norm(data.features)
        p = logreg_nonconvex(data, lam=0.2)
        assert p.L == pytest.approx(1.01 * sn / (4.0 * data.M) + 0.4, rel=1e-9)
        assert p.mu == 0.0
        assert not p.convex


class TestSparseDenseAgreement:
    def test_wide_matrix_uses_sparse_path_and_matches_dense_formula(self):
        # n > 64 forces the sparse matvec path; compare against a dense
        # reference computed straight from the definition.
        rng = np.random.default_rng(4)
        M, n = 30, 80
        dense = rng.standard_normal((M, n)) * (rng.random((M, n)) < 0.2)
        y = np.where(rng.random(M) < 0.5, 1.0, -1.0)
        data = Dataset(features=sp.csr_matrix(dense), labels=y)
        p = logreg_l2(data, l2=0.05)
        x = rng.standard_normal(n)
        z = y * (dense @ x)
        ref_val = float(np.mean(np.logaddexp(0.0, -z))) + 0.025 * float(x @ x)
        sig = 1.0 / (1.0 + np.exp(z))
        ref_grad = -dense.T @ (y * sig) / M + 0.05 * x
        assert p.value(x) == pytest.approx(ref_val, rel=1e-12)
        np.testing.assert_allclose(p.gradient(x), ref_grad, rtol=1e-12, atol=1e-15)


class TestSpectralNorm:
    def test_identity(self):
        est, converged = spectral_norm(np.eye(4))
        assert converged
        assert est == pytest.approx(1.0, rel=1e-6)

    def test_diagonal(self):
        est, converged = spectral_norm(np.diag([1.0, 2.0, 3.0]))
        assert converged
        assert est == pytest.approx(9.0, rel=1e-6)

    def test_zero_matrix(self):
        est, converged = spectral_norm(sp.csr_matrix((3, 3)))
        assert est == 0.0 and converged

    def test_stored_zeros_are_the_zero_matrix(self):
        parsed = parse_libsvm("1 1:0 2:0\n-1 3:0.0\n")
        stored = sp.csr_matrix((parsed.values, parsed.indices, parsed.indptr))
        assert stored.nnz == 3  # the CSR form keeps the three zeros the file stores
        assert spectral_norm(stored) == (0.0, True)
        data = to_dataset(parsed)
        assert np.count_nonzero(as_dense(data.features)) == 0
        assert spectral_norm(data.features) == (0.0, True)
        assert data.logistic_L == 0.0

    def test_start_in_the_nullspace_restarts_and_converges(self):
        v = np.random.default_rng(agghb.problems._POWER_SEED).standard_normal(2)
        v /= np.linalg.norm(v)
        A = sp.csr_matrix([[v[1], -v[0]]])
        assert not (A @ v).any()  # the seeded start vector is in A's nullspace
        est, converged = spectral_norm(A)
        assert converged
        assert est == pytest.approx(1.0, rel=1e-6)

    def test_unconverged_estimate_refused_as_L(self, monkeypatch):
        monkeypatch.setattr(agghb.problems, "_POWER_MAX_ITERS", 1)
        A = np.diag([1.0, 2.0, 3.0])
        est, converged = spectral_norm(A)
        assert not converged and 0.0 < est < 9.0
        data = Dataset(features=sp.csr_matrix(A), labels=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError, match="did not converge within 1 power iterations"):
            data.logistic_L

    def test_random_rectangular_vs_dense_eigensolve(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((20, 5))
        est, converged = spectral_norm(A)
        exact = float(np.linalg.eigvalsh(A.T @ A)[-1])
        assert converged
        assert est == pytest.approx(exact, rel=1e-4)

    def test_sparse_input(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((15, 7)) * (rng.random((15, 7)) < 0.4)
        est_sp, _ = spectral_norm(sp.csr_matrix(dense))
        est_d, _ = spectral_norm(dense)
        assert est_sp == pytest.approx(est_d, rel=1e-9)

    @pytest.mark.parametrize("k", [260, -260, 460, -460])
    @pytest.mark.parametrize("form", ["dense", "csr"])
    def test_power_of_two_scale_is_exact(self, form, k):
        # each product A'Av has entries near 2^(2k) times the unscaled ones:
        # their squares overflow at k = 260 and 460, and fall below the
        # normal range at -260 and -460
        A = np.random.default_rng(5).standard_normal((5, 4))
        if form == "csr":
            A = sp.csr_matrix(A)
        est, converged = spectral_norm(A)
        assert converged
        assert spectral_norm(A * 2.0 ** k) == (np.ldexp(est, 2 * k), True)

    def test_dense_peak_memory_is_linear_in_rows(self):
        # tall and narrow, rank one plus small noise so that a few steps
        # converge: the products need a few vectors of M values, no copy of A
        rng = np.random.default_rng(0)
        M, n = 100_000, 16
        A = np.outer(rng.standard_normal(M), rng.standard_normal(n))
        A += 1e-3 * rng.standard_normal((M, n))
        tracemalloc.start()
        try:
            _, converged = spectral_norm(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert converged
        assert peak <= 4 * 8 * M


class TestDenseSpectralNormMatchesCsr:
    """:func:`spectral_norm` on a dense matrix, through BLAS products, against
    its CSR form, the oracle: the products add their terms in other orders,
    so the estimates agree within 1e-12 relative, the allowance ``verify``
    gives a recorded L, with the same ``converged`` flag; the zero matrix
    gives (0.0, True) exactly in every form."""

    @staticmethod
    def _assert_matches(dense, A):
        est, converged = spectral_norm(dense)
        est_csr, converged_csr = spectral_norm(A)
        assert converged == converged_csr
        assert abs(est - est_csr) <= 1e-12 * est_csr

    @staticmethod
    def _csr(rng, M, n, density):
        """A random M x n CSR matrix with zero rows, zero columns and stored zeros."""
        stored = rng.random((M, n)) < density
        stored[rng.random(M) < 0.1] = False
        stored[:, rng.random(n) < 0.1] = False
        values = np.where(rng.random((M, n)) < 0.1, 0.0, rng.standard_normal((M, n)))
        rows, cols = np.nonzero(stored)
        indptr = np.searchsorted(rows, np.arange(M + 1))
        return sp.csr_matrix((values[rows, cols], cols, indptr), shape=(M, n))

    def test_seeded_sweep(self):
        rng = np.random.default_rng(27)
        shapes = [(1, 1), (1, 2), (2, 1), (1, 64), (200, 1), (200, 64)]
        shapes += [(int(rng.integers(1, 201)), int(rng.integers(1, 65))) for _ in range(250)]
        stored_zeros = zero_rows = zero_cols = 0
        for M, n in shapes:
            A = self._csr(rng, M, n, rng.random())
            dense = A.toarray()
            self._assert_matches(dense, A)
            stored_zeros += A.nnz > np.count_nonzero(A.data)
            zero_rows += not dense.any(axis=1).all()
            zero_cols += not dense.any(axis=0).all()
        assert min(stored_zeros, zero_rows, zero_cols) >= 50

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (200, 64)])
    def test_all_zero_matrix(self, shape):
        empty = sp.csr_matrix(shape)
        stored_zeros = sp.csr_matrix((np.zeros(shape[0]), np.zeros(shape[0], dtype=int),
                                      np.arange(shape[0] + 1)), shape=shape)
        for A in (empty, stored_zeros, np.zeros(shape)):
            assert spectral_norm(A) == (0.0, True)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_benchmark_row_orders(self, seed):
        # the australian-shaped benchmark data: the suite's set, its rows in
        # an order drawn from the seed
        lines = synthetic_libsvm_text().splitlines()
        order = np.random.default_rng(seed).permutation(len(lines))
        parsed = parse_libsvm("\n".join(lines[i] for i in order))
        data = to_dataset(parsed)
        A = sp.csr_matrix((parsed.values, parsed.indices, parsed.indptr), shape=data.features.shape)
        assert type(data.features) is np.ndarray
        self._assert_matches(data.features, A)


class TestFiniteDiffGradient:
    def test_parabola(self):
        p = quadratic(np.array([[2.0]]), np.zeros(1))  # f = x^2
        out = finite_diff_gradient(p, np.array([1.0]), 1e-5)
        assert out[0] == pytest.approx(2.0, abs=1e-8)

    def test_constant_function(self):
        p = Problem(
            name="flat", dim=2, value=lambda x: 3.0,
            gradient=lambda x: np.zeros(2), L=1.0,
            value_and_grad=lambda x: (3.0, np.zeros(2)),
        )
        np.testing.assert_array_equal(
            finite_diff_gradient(p, np.ones(2), 1e-6), np.zeros(2)
        )

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(rosenbrock(), np.zeros(2), 0.0)


class TestShippedProblemAudits:
    """The audits every shipped objective must pass."""

    def _problems(self):
        text = synthetic_libsvm_text(M=60, n=8, seed=23)
        data = to_dataset(parse_libsvm(text))
        return [
            quadratic(np.diag(np.arange(1.0, 6.0)), np.arange(5.0)),
            rosenbrock(),
            logreg_l2(data, l2=1e-3),
            logreg_nonconvex(data, lam=1e-2),
        ]

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(100)
        for p in self._problems():
            for _ in range(10):
                fd_check(p, rng.standard_normal(p.dim))

    def test_lipschitz_audit(self):
        rng = np.random.default_rng(101)
        for p in self._problems():
            for _ in range(100):
                x = rng.standard_normal(p.dim)
                x /= max(1.0, np.linalg.norm(x))
                ydir = rng.standard_normal(p.dim)
                ydir /= max(1.0, np.linalg.norm(ydir))
                lhs = np.linalg.norm(p.gradient(x) - p.gradient(ydir))
                assert lhs <= 1.01 * p.L * np.linalg.norm(x - ydir) + 1e-12


class TestBatchObjective:
    """``value_and_grad`` on blocks X (dim, P) against ``value`` and
    ``gradient`` of each column, which take the single-vector kernels
    (matrix-vector products; the CSR copy of B.T on the sparse branch)."""

    @staticmethod
    def _assert_matches_columns(p, X):
        with np.errstate(over="ignore"):  # the sigmoid's exp(z) at z > 709.78
            f, G = p.value_and_grad(X)
            gs = [p.gradient(X[:, j]) for j in range(X.shape[1])]
        assert f.shape == (X.shape[1],) and G.shape == X.shape
        for j, gj in enumerate(gs):
            fj = p.value(X[:, j])
            assert abs(f[j] - fj) <= 1e-12 * abs(fj)
            assert np.linalg.norm(G[:, j] - gj) <= 1e-12 * np.linalg.norm(gj)

    @staticmethod
    def _points(dim, P, seed):
        X = np.random.default_rng(seed).standard_normal((dim, P))
        X[:, 1::3] *= 1e3  # margins |z| >= 700, where exp(-|z|) underflows
        return X

    def test_quadratic_and_rosenbrock(self):
        rng = np.random.default_rng(31)
        B = rng.standard_normal((6, 6))
        for p in (quadratic(B @ B.T + np.eye(6), np.arange(6.0)), rosenbrock()):
            self._assert_matches_columns(p, self._points(p.dim, 15, seed=32))

    @pytest.mark.parametrize("P", [1, 3, 64])
    def test_quadratic_block_is_its_columns_bit_for_bit(self, P):
        # so theory-cvx's block f_avg and each tuning column keep the bits of
        # single-point calls; f crosses zero on the way to this optimum
        rng = np.random.default_rng(36)
        B = rng.standard_normal((40, 40))
        p = quadratic(B @ B.T + np.eye(40), rng.standard_normal(40))
        X = rng.standard_normal((40, P))
        f, G = p.value_and_grad(X)
        values = p.value(X)
        assert f.shape == values.shape == (P,) and G.shape == X.shape
        for j in range(P):
            fj, gj = p.value_and_grad(X[:, j].copy())
            assert f[j] == fj and values[j] == fj and p.value(X[:, j].copy()) == fj
            assert np.array_equal(G[:, j], gj)

    @pytest.mark.parametrize("dataset", ["small_dataset", "wide_dataset"])
    @pytest.mark.parametrize("build", [
        lambda d: logreg_l2(d, 0.0),
        lambda d: logreg_l2(d, 1e-3),
        lambda d: logreg_nonconvex(d, 1e-2),
    ], ids=["l2-zero", "l2", "ncvx"])
    def test_logistic_on_both_feature_branches(self, request, dataset, build):
        data = request.getfixturevalue(dataset)
        p = build(data)
        X = self._points(p.dim, 15, seed=33)
        z = data.labels[:, None] * (data.features @ X)
        assert np.abs(z).max() >= 700.0
        self._assert_matches_columns(p, X)

    @pytest.mark.parametrize("P", [1, 11])
    @pytest.mark.parametrize("dataset", ["small_dataset", "wide_dataset"])
    def test_logistic_row_chunks_with_remainder(self, request, dataset, P, monkeypatch):
        data = request.getfixturevalue(dataset)
        rows = 7  # 40 = 5 * 7 + 5 and 200 = 28 * 7 + 4 samples
        assert data.M > 3 * rows and data.M % rows
        monkeypatch.setattr(agghb.problems, "_BLOCK_BYTES", 8 * P * rows)
        for p in (logreg_l2(data, 1e-3), logreg_nonconvex(data, 1e-2)):
            self._assert_matches_columns(p, self._points(p.dim, P, seed=34))

    def test_logistic_without_features(self):
        data = Dataset(features=sp.csr_matrix((3, 0)), labels=[1.0, -1.0, 1.0])
        for p in (logreg_l2(data, 0.1), logreg_nonconvex(data, 0.1)):
            f, g = p.value_and_grad(np.zeros(0))
            assert f == pytest.approx(np.log(2.0), rel=1e-15) and g.shape == (0,)
            f, G = p.value_and_grad(np.zeros((0, 15)))
            np.testing.assert_allclose(f, np.log(2.0), rtol=1e-15)
            assert G.shape == (0, 15)

    def test_one_call_holds_one_margin_block(self):
        """A call's allocation peak is one M x P block plus a few chunk-sized
        temporaries, not the logistic's temporaries over all M x P margins."""
        M, n, P = 20000, 80, 15
        rng = np.random.default_rng(35)
        data = Dataset(
            features=sp.random(M, n, density=0.1, format="csr", random_state=rng),
            labels=np.where(rng.random(M) < 0.5, -1.0, 1.0),
        )
        p = logreg_l2(data, 1e-3)
        X = rng.standard_normal((n, P))
        p.value_and_grad(X)  # warm up scipy's one-time allocations
        tracemalloc.start()
        try:
            p.value_and_grad(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * M * P + 8 * agghb.problems._BLOCK_BYTES

    def test_one_value_call_holds_one_column_group(self):
        """A block ``value`` forms the margins of one column group at a time:
        its peak is one group's margins plus chunk-sized temporaries, not the
        M x P margins of the whole block (41 MB here)."""
        M, n, P = 20000, 80, 256
        rng = np.random.default_rng(35)
        data = Dataset(
            features=sp.random(M, n, density=0.1, format="csr", random_state=rng),
            labels=np.where(rng.random(M) < 0.5, -1.0, 1.0),
        )
        p = logreg_l2(data, 1e-3)
        X = rng.standard_normal((n, P))
        p.value(X)  # warm up the scratch and scipy's one-time allocations
        tracemalloc.start()
        try:
            f = p.value(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.shape == (P,)
        assert peak <= agghb.problems._GROUP_BYTES + 4 * agghb.problems._BLOCK_BYTES


class TestLogisticScratch:
    """The logistic kernel in its scratch buffer, followed by ``_sigmoid``
    for the gradient: bit for bit against ``logistic_oracle``, which
    allocates fresh temporaries; no result is a view into the scratch; and
    a warmed single-point call allocates little beyond the margins."""

    SPECIAL = {
        "finite": [0.0, -0.0, 700.0, -700.0, 745.5, -745.5, 1e4, -1e4],
        "nonfinite": [0.0, -0.0, np.inf, -np.inf, np.nan, 700.0, -745.5, 1e308],
    }

    @classmethod
    def _margins(cls, shape, kind, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(shape) * rng.choice([1.0, 30.0, 1e3], size=shape)
        flat = z.reshape(-1)
        special = cls.SPECIAL[kind]
        flat[rng.choice(flat.size, len(special), replace=False)] = special
        return z

    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "value"])
    @pytest.mark.parametrize("kind", ["finite", "nonfinite"])
    @pytest.mark.parametrize("shape", [(690,), (2184, 15), (5, 15)],
                             ids=["x", "block", "remainder"])
    def test_kernel_matches_oracle_bit_for_bit(self, shape, kind, grad):
        size = int(np.prod(shape))
        # views into one flat buffer at an odd offset, as the objectives cut
        # them, filled with NaN so that no step can lean on stale contents
        flat = np.full(2 * size + 1, np.nan)
        work = (*(flat[1 + i * size:1 + (i + 1) * size].reshape(shape) for i in range(2)),
                np.ones(shape[0]))
        for seed in (51, 52):  # the second pass reuses the dirtied scratch
            z = self._margins(shape, kind, seed)
            z_ref = z.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                loss = agghb.problems._logistic(z, work)
                if grad:
                    agghb.problems._sigmoid(z)
                loss_ref = logistic_oracle(z_ref, grad)
            assert np.shape(loss) == np.shape(loss_ref) == shape[1:]
            assert np.array_equal(loss, loss_ref, equal_nan=True)
            assert np.array_equal(z, z_ref, equal_nan=True)
            if kind == "finite":
                assert np.all(np.isfinite(loss)) and np.all(np.isfinite(z))
                assert np.array_equal(np.signbit(z), np.signbit(z_ref))

    @pytest.mark.parametrize("one_row_chunks", [False, True], ids=["default", "rows-1"])
    @pytest.mark.parametrize("dataset", ["small_dataset", "wide_dataset"])
    def test_reused_scratch_leaves_earlier_results_alone(
        self, request, dataset, one_row_chunks, monkeypatch
    ):
        data = request.getfixturevalue(dataset)
        if one_row_chunks:
            monkeypatch.setattr(agghb.problems, "_BLOCK_BYTES", 8)  # rows = 1
        rng = np.random.default_rng(53)
        for p in (logreg_l2(data, 1e-3), logreg_nonconvex(data, 1e-2)):
            x = rng.standard_normal(p.dim)
            blocks = [rng.standard_normal((p.dim, P)) for P in (15, 3)]
            results = [p.value_and_grad(x)] + [p.value_and_grad(X) for X in blocks]
            results.append((p.value(x), None))
            kept = [(np.copy(f), None if G is None else G.copy()) for f, G in results]
            for X, (f, G) in zip([x[:, None]] + blocks, results):
                for j in range(X.shape[1]):
                    fj, gj = p.value(X[:, j]), p.gradient(X[:, j])
                    assert abs(np.atleast_1d(f)[j] - fj) <= 1e-12 * abs(fj)
                    gcol = G[:, j] if G.ndim == 2 else G
                    assert np.linalg.norm(gcol - gj) <= 1e-12 * np.linalg.norm(gj)
            assert abs(results[-1][0] - results[0][0]) <= 1e-12 * abs(results[0][0])
            for (f, G), (f0, G0) in zip(results, kept):
                assert np.array_equal(f, f0)
                assert G is None or np.array_equal(G, G0)

    def test_single_point_calls_allocate_only_the_margins(self):
        """Warmed ``value_and_grad(x)`` and ``value(x)`` on the data of
        ``TestBatchObjective.test_one_call_holds_one_margin_block`` peak near
        the M margins: the kernel allocates nothing of their size."""
        M, n = 20000, 80
        rng = np.random.default_rng(35)
        data = Dataset(
            features=sp.random(M, n, density=0.1, format="csr", random_state=rng),
            labels=np.where(rng.random(M) < 0.5, -1.0, 1.0),
        )
        p = logreg_l2(data, 1e-3)
        x = rng.standard_normal(n)
        for call in (p.value_and_grad, p.value):
            call(x)  # warm up the scratch and scipy's one-time allocations
            tracemalloc.start()
            try:
                call(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * 8 * M


class TestFiniteAndGrad:
    """``finite_and_grad`` against ``value_and_grad``: the same gradient bit
    for bit and a ``finite`` mask equal to ``np.isfinite`` of its values, on
    blocks whose entries reach 1e308, +-inf and NaN.  The logistic pass skips
    the loss where its certificate holds and falls back to ``value_and_grad``
    where not; ``_logistic`` runs only in the fallback."""

    SCALES = (1.0, 1e3, 1e150, 1e152, 1e160, 1e300, 1e308, np.inf, -np.inf, np.nan)

    @staticmethod
    def _logistic_calls(monkeypatch):
        calls = []

        def counted(*args, _fn=agghb.problems._logistic):
            calls.append(1)
            return _fn(*args)
        monkeypatch.setattr(agghb.problems, "_logistic", counted)
        return calls

    @staticmethod
    def _assert_exact(p, X):
        with np.errstate(over="ignore", invalid="ignore"):
            finite, G = p.finite_and_grad(X)
            f, G_ref = p.value_and_grad(X)
        assert same_bits(finite, np.isfinite(f))
        assert same_bits(G, G_ref)
        return finite

    @classmethod
    def _blocks(cls, dim, seed):
        """Single points and blocks: one column per scale, each a random
        direction times it, and columns with one entry set to each scale."""
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            dense = rng.standard_normal((dim, len(cls.SCALES))) * np.array(cls.SCALES)
        spiked = rng.standard_normal((dim, len(cls.SCALES)))
        spiked[rng.integers(dim, size=len(cls.SCALES)), np.arange(len(cls.SCALES))] = cls.SCALES
        blocks = [dense, spiked, dense[:, :3], np.hstack([dense, spiked])]
        return blocks + [X[:, j].copy() for X in (dense, spiked) for j in range(X.shape[1])]

    @pytest.mark.parametrize("reg", [0.0, 1e-12, 1.0])
    @pytest.mark.parametrize("kind", ["l2", "ncvx"])
    @pytest.mark.parametrize("dataset", ["small_dataset", "wide_dataset"])
    def test_logistic_matches_value_and_grad(self, request, dataset, kind, reg, monkeypatch):
        data = request.getfixturevalue(dataset)
        p = logreg_l2(data, reg) if kind == "l2" else logreg_nonconvex(data, reg)
        calls = self._logistic_calls(monkeypatch)
        fell_back = []
        for X in self._blocks(p.dim, seed=61):
            before = len(calls)
            with np.errstate(over="ignore", invalid="ignore"):
                p.finite_and_grad(X)
            fell_back.append(len(calls) > before)
            self._assert_exact(p, X)
        assert any(fell_back) and not all(fell_back)

    @pytest.mark.parametrize("one_row_chunks", [False, True], ids=["default", "rows-1"])
    @pytest.mark.parametrize("dataset", ["small_dataset", "wide_dataset"])
    def test_certified_block_skips_the_loss(self, request, dataset, one_row_chunks,
                                            monkeypatch):
        if one_row_chunks:
            monkeypatch.setattr(agghb.problems, "_BLOCK_BYTES", 8)  # rows = 1
        p = logreg_l2(request.getfixturevalue(dataset), 1.0)
        calls = self._logistic_calls(monkeypatch)
        X = np.random.default_rng(62).standard_normal((p.dim, 15))
        X[:, 1::2] *= 1e3
        with np.errstate(over="ignore"):  # the sigmoid's exp(z) at z > 709.78
            assert p.finite_and_grad(X)[0].all() and not calls
        self._assert_exact(p, X)

    @pytest.mark.parametrize("dataset", ["small_dataset", "wide_dataset"])
    def test_only_the_penalty_overflows(self, request, dataset, monkeypatch):
        # margins near 1e160 keep the certificate; the l2 penalty of 1e160 is
        # inf, so that column is not finite, and the loss is never computed
        p = logreg_l2(request.getfixturevalue(dataset), 1.0)
        calls = self._logistic_calls(monkeypatch)
        X = np.random.default_rng(63).standard_normal((p.dim, 4))
        X[:, 2] *= 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            finite, _ = p.finite_and_grad(X)
        assert finite.tolist() == [True, True, False, True] and not calls
        self._assert_exact(p, X)

    @pytest.mark.parametrize("scale", [1e151, 1e300, np.nan], ids=["penalty", "margins", "nan"])
    @pytest.mark.parametrize("dataset", ["small_dataset", "wide_dataset"])
    def test_fallback(self, request, dataset, scale, monkeypatch):
        # a finite penalty near overflow (1e302 here), margins too large to
        # bound the loss sum, or a NaN margin: the loss is computed
        p = logreg_l2(request.getfixturevalue(dataset), 1.0)
        calls = self._logistic_calls(monkeypatch)
        X = np.random.default_rng(64).standard_normal((p.dim, 4))
        X[:, 1] *= scale
        with np.errstate(over="ignore", invalid="ignore"):
            p.finite_and_grad(X)
        assert calls
        finite = self._assert_exact(p, X)
        assert finite.tolist() == [True, scale == 1e151, True, True]

    @pytest.mark.parametrize("name", ["quadratic", "rosenbrock", "logreg-l2", "logreg-ncvx"])
    def test_who_supplies_the_pass(self, small_dataset, name):
        # the logistic problems give their own; the others take the one
        # Problem derives from value_and_grad, which matches it trivially
        p = shipped_problem(name, small_dataset)
        owner = p.finite_and_grad.__qualname__.split(".")[0]
        assert owner == ("_logistic_objectives" if name.startswith("logreg") else "Problem")
        for X in self._blocks(p.dim, seed=65):
            self._assert_exact(p, X)


class TestSigmoidAccuracy:
    """The shared sigmoid s(-z) = 1 / (1 + exp(z)) against mpmath at 50
    digits, on z in [-745, 745] and 0, -0, +-inf and NaN: within 4 ulp
    where s(-z) is a normal double, within the smallest normal where it is
    not, exactly 0 and 1 at +inf and -inf, NaN for NaN.  The formula it
    replaced, e / (1 + e) for z >= 0 and 1 / (1 + e) otherwise with
    e = exp(-|z|), passes the same test."""

    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])

    @staticmethod
    def _shared(z):
        z = z.copy()
        with np.errstate(over="ignore"):  # exp(z) past 709.78 is inf, s(-z) 0
            agghb.problems._sigmoid(z)
        return z

    @staticmethod
    def _replaced(z):
        e = np.exp(-np.abs(z))
        return np.where(z >= 0.0, e, 1.0) / (1.0 + e)

    @staticmethod
    def _finite_inputs():
        rng = np.random.default_rng(71)
        overflow = np.log(np.finfo(float).max)  # 709.78..., where exp(z) overflows
        return np.concatenate([
            np.linspace(-745.0, 745.0, 2981),
            rng.uniform(-745.0, 745.0, 1000),
            rng.uniform(-40.0, 40.0, 500),  # where 1 + exp(z) rounds most
            rng.standard_normal(200) * 10.0 ** rng.uniform(-300.0, 0.0, 200),
            overflow + np.linspace(-2.0, 2.0, 81),
            np.nextafter(overflow, [-np.inf, np.inf]),
        ])

    @pytest.mark.parametrize("formula", ["_shared", "_replaced"])
    def test_against_mpmath(self, formula):
        sigmoid = getattr(self, formula)
        z = self._finite_inputs()
        got = sigmoid(z)
        tiny = np.finfo(float).tiny
        with mpmath.workdps(50):
            for zi, gi in zip(z.tolist(), got.tolist()):
                exact = 1 / (1 + mpmath.exp(mpmath.mpf(zi)))
                nearest = float(exact)
                err = abs(mpmath.mpf(gi) - exact)
                if nearest >= tiny:
                    assert err <= 4 * mpmath.mpf(np.spacing(nearest)), (zi, gi, nearest)
                else:
                    assert err <= tiny, (zi, gi, nearest)
        special = sigmoid(self.SPECIAL)
        assert special[:4].tolist() == [0.5, 0.5, 0.0, 1.0]
        assert np.isnan(special[4])


class TestCertificate:
    """The logistic ``finite_and_grad`` certifies a block from
    M (r_B max|X| + 1) <= 1e300 alone.  The bound never certifies a block
    whose loss is non-finite: wherever the loss is skipped, the kernel's
    loss of the same margins is finite, and the mask and gradients are
    those of ``value_and_grad``; on dense and CSR data, with X's entries at
    scales from 1 to 1e308, +-inf and NaN, and with columns aligned to a
    row's signs, where the bound is attained."""

    SCALES = (1.0, 1e3, 1e100, 1e150, 1e200, 1e290, 1e295, 1e297, 1e298, 1e299, 1e300,
              1e302, 1e305, 1e308, np.inf, -np.inf, np.nan)

    @staticmethod
    def _data(rng, sparse, M, feature_scale):
        n = _DENSE_FALLBACK_COLS + 6 if sparse else 5
        A = rng.standard_normal((M, n)) * feature_scale
        A *= rng.random((M, n)) < (0.1 if sparse else 0.7)
        A[0, 0] = feature_scale  # some nonzero, so l2 = 0 has a positive L
        labels = np.where(rng.random(M) < 0.5, -1.0, 1.0)
        return Dataset(features=sp.csr_matrix(A) if sparse else A, labels=labels)

    @staticmethod
    def _check(p, data, X):
        """Whether the loss was skipped; the property holds either way."""
        with mock.patch.object(agghb.problems, "_logistic",
                               wraps=agghb.problems._logistic) as kernel:
            with np.errstate(over="ignore", invalid="ignore"):
                finite, G = p.finite_and_grad(X)
        certified = not kernel.called
        with np.errstate(over="ignore", invalid="ignore"):
            f, G_ref = p.value_and_grad(X)
            if certified:
                matvec = agghb.problems._feature_operator(data)[0]
                assert np.isfinite(logistic_oracle(matvec(X), grad=False)).all()
        assert same_bits(finite, np.isfinite(f)) and same_bits(G, G_ref)
        return certified

    @given(seed=st.integers(0, 2 ** 32 - 1), sparse=st.booleans(), M=st.integers(1, 6),
           feature_scale=st.sampled_from([1e-3, 1.0, 1e3, 1e50]),
           scales=st.lists(st.sampled_from(SCALES), min_size=1, max_size=4),
           aligned=st.booleans(), reg=st.sampled_from([("l2", 0.0), ("l2", 1.0),
                                                       ("ncvx", 1e-12), ("ncvx", 1.0)]))
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_never_certifies_a_non_finite_loss(self, seed, sparse, M, feature_scale, scales,
                                               aligned, reg):
        rng = np.random.default_rng(seed)
        data = self._data(rng, sparse, M, feature_scale)
        p = (logreg_l2 if reg[0] == "l2" else logreg_nonconvex)(data, reg[1])
        if aligned:  # each column the signs of the largest row, so |z| = r_B max|x|
            A = as_dense(data.features)
            row = np.sign(data.labels[:, None] * A)[np.abs(A).sum(axis=1).argmax()]
            X = row[:, None] * np.ones(len(scales))
        else:
            X = rng.standard_normal((p.dim, len(scales)))
        with np.errstate(over="ignore", invalid="ignore"):
            X = X * np.array(scales)
        self._check(p, data, X)
        self._check(p, data, X[:, 0].copy())

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_bound_is_attained_at_the_cap(self, sparse):
        # aligned columns reach |z| = r_B s; the block is certified just
        # below the cap, falls back just above it, and its loss stays finite
        rng = np.random.default_rng(72)
        data = self._data(rng, sparse, 4, 1.0)
        p = logreg_l2(data, 0.0)
        A = as_dense(data.features)
        row_sums = np.abs(A).sum(axis=1)
        row = np.sign(data.labels[:, None] * A)[row_sums.argmax()]
        s = (agghb.problems._FINITE_CAP / data.M - 1.0) / row_sums.max()
        assert self._check(p, data, row[:, None] * s * np.array([1.0 - 1e-12, 0.5]))
        assert not self._check(p, data, row[:, None] * s * np.array([1.0 + 1e-9, 0.5]))


class TestValueAndGrad:
    """``value_and_grad`` against the objectives written out here: Qx - b,
    the Rosenbrock gradient, and logaddexp/expit for the logistic ones,
    whose gradient-free ``value`` is also checked against it."""

    @staticmethod
    def _assert_matches(p, x):
        with np.errstate(over="ignore"):  # the sigmoid's exp(z) at z > 709.78
            f, g = p.value_and_grad(x)
            f_ref, g_ref = p.value(x), p.gradient(x)
        assert isinstance(f, float) and g.shape == x.shape
        assert abs(f - f_ref) <= 1e-12 * abs(f_ref)
        assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)
        return f, g

    @staticmethod
    def _points(dim, seed):
        rng = np.random.default_rng(seed)
        # the large points give margins |z| >= 700, where exp(-|z|) underflows
        return [rng.standard_normal(dim) * scale for scale in (0.1, 1.0, 1e3, 1e3)]

    def test_quadratic_and_rosenbrock(self):
        rng = np.random.default_rng(41)
        B = rng.standard_normal((6, 6))
        Q, b = B @ B.T + np.eye(6), np.arange(6.0)

        def rosenbrock_ref(p):
            x, y = p
            return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2, np.array(
                [-2.0 * (1.0 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)]
            )

        for p, ref in (
            (quadratic(Q, b), lambda x: (0.5 * x @ Q @ x - b @ x, Q @ x - b)),
            (rosenbrock(), rosenbrock_ref),
        ):
            for x in self._points(p.dim, seed=42):
                f, g = self._assert_matches(p, x)
                f_ref, g_ref = ref(x)
                assert abs(f - f_ref) <= 1e-12 * abs(f_ref)
                assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)

    @pytest.mark.parametrize("name", ["quadratic", "rosenbrock", "logreg-l2", "logreg-ncvx"])
    def test_shapes_of_every_shipped_problem(self, small_dataset, name):
        p = shipped_problem(name, small_dataset)
        rng = np.random.default_rng(44)
        f, g = p.value_and_grad(rng.standard_normal(p.dim))
        assert isinstance(f, float) and g.shape == (p.dim,)
        for P in (1, 15):
            f, G = p.value_and_grad(rng.standard_normal((p.dim, P)))
            assert f.shape == (P,) and G.shape == (p.dim, P)
        # value on a block, up to one wider than the logistic's column group
        group = agghb.problems._GROUP_BYTES // (8 * small_dataset.M)
        for P in (1, 15, 64, group + 5):
            X = rng.standard_normal((p.dim, P))
            f = p.value(X)
            assert f.shape == (P,)
            single = np.array([p.value(X[:, j].copy()) for j in range(P)])
            np.testing.assert_allclose(f, single, rtol=1e-12, atol=0.0)
        if name == "rosenbrock":
            with np.errstate(over="ignore", invalid="ignore"):
                f, g = p.value_and_grad([1e200, 0.0])
                assert f == np.inf and p.value([1e200, 0.0]) == np.inf
            assert g.shape == (2,)

    @pytest.mark.parametrize("dataset", ["small_dataset", "wide_dataset"])
    @pytest.mark.parametrize("kind", ["l2-zero", "l2", "ncvx"])
    def test_logistic_on_both_feature_branches(self, request, dataset, kind):
        data = request.getfixturevalue(dataset)
        A, y, M = as_dense(data.features), data.labels, data.M
        reg = {"l2-zero": 0.0, "l2": 1e-3, "ncvx": 1e-2}[kind]
        p = logreg_nonconvex(data, reg) if kind == "ncvx" else logreg_l2(data, reg)
        big = 0.0
        for x in self._points(p.dim, seed=43):
            f, g = self._assert_matches(p, x)
            z = y * (A @ x)
            big = max(big, np.abs(z).max())
            f_ref = float(np.mean(np.logaddexp(0.0, -z)))
            g_ref = -A.T @ (y * expit(-z)) / M
            if kind == "ncvx":
                f_ref += reg * float(np.sum(x * x / (1.0 + x * x)))
                g_ref += 2.0 * reg * x / (1.0 + x * x) ** 2
            else:
                f_ref += 0.5 * reg * float(x @ x)
                g_ref += reg * x
            assert abs(f - f_ref) <= 1e-12 * abs(f_ref)
            assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)
        assert big >= 700.0
