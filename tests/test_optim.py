"""Unit and property tests for the aggregated heavy-ball kernels."""

import numpy as np
import pytest

from agghb.harness import RunConfig, run
from agghb.optim import (
    AggConfig,
    averaging_update,
    init,
    step,
    virtual_coefficients,
    virtual_iterate,
)
from agghb.problems import quadratic
from agghb.theory import constants

from oracles import hb_init, hb_step, momentum_expansion, weighted_sum


def advance(cfg, x, V, grad):
    """One in-place step of ``cfg`` on a single iterate, with the virtual
    coefficients as the second weight row, as the run loop does; returns the
    virtual iterate after the step."""
    weights = np.array([cfg.gammas, virtual_coefficients(cfg)])[:, :, None]
    (offset,) = step(x, V, grad, np.array(cfg.betas)[:, None], weights)
    return virtual_iterate(x, offset, np.empty_like(x))


def average(rho, points):
    """Weighted average of ``points`` folded in one at a time."""
    xbar, weight_sum = np.zeros_like(points[0]), 0.0
    for p in points:
        weight_sum = averaging_update(xbar, weight_sum, rho, p)
    return xbar, weight_sum


class TestAggConfig:
    def test_valid(self):
        cfg = AggConfig(betas=(0.9, 0.95), gammas=(0.1, 0.2))
        assert cfg.m == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            AggConfig(betas=(0.1, 0.2), gammas=(0.1, 0.1, 0.1))

    @pytest.mark.parametrize("beta", [1.0, 1.5, -0.1, float("nan")])
    def test_beta_outside_range_rejected(self, beta):
        with pytest.raises(ValueError):
            AggConfig(betas=(beta,), gammas=(0.1,))

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("inf")])
    def test_bad_gamma_rejected(self, gamma):
        with pytest.raises(ValueError):
            AggConfig(betas=(0.5,), gammas=(gamma,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AggConfig(betas=(), gammas=())


class TestInit:
    def test_zero_buffers(self):
        x0 = np.array([0.0])
        x, V = init(1, x0)
        assert V.shape == (1, 1)
        np.testing.assert_array_equal(V[0], [0.0])
        np.testing.assert_array_equal(x, x0)
        assert x is not x0

    def test_two_buffers_dim_one(self):
        _, V = init(2, np.array([1.0]))
        assert len(V) == 2
        for v in V:
            assert v.shape == (1,)
            np.testing.assert_array_equal(v, [0.0])

    def test_first_step_is_mean_gamma_gradient_step(self):
        # With zero buffers the first update is x0 - mean(gammas) * grad.
        cfg = AggConfig(betas=(0.3, 0.8), gammas=(0.1, 0.3))
        x0 = np.array([1.0, -2.0])
        g = np.array([0.5, 1.0])
        x, V = init(cfg.m, x0)
        advance(cfg, x, V, g)
        np.testing.assert_allclose(x, x0 - 0.2 * g, rtol=1e-15)


class TestStep:
    def test_hand_simulated_single_buffer(self):
        # f(x) = x^2 from x = 1 with beta 0.9, gamma 0.1.
        cfg = AggConfig(betas=(0.9,), gammas=(0.1,))
        x, V = init(cfg.m, np.array([1.0]))
        advance(cfg, x, V, np.array([2.0]))
        np.testing.assert_allclose(V[0], [2.0])
        np.testing.assert_allclose(x, [0.8])
        advance(cfg, x, V, np.array([1.6]))
        np.testing.assert_allclose(V[0], [3.4])
        np.testing.assert_allclose(x, [0.46])

    def test_hand_simulated_two_buffers(self):
        # f(x) = x^2/2 from x = 1 with betas (0, 0.5), gammas (0.1, 0.1).
        cfg = AggConfig(betas=(0.0, 0.5), gammas=(0.1, 0.1))
        x, V = init(cfg.m, np.array([1.0]))
        advance(cfg, x, V, np.array([1.0]))
        np.testing.assert_allclose(x, [0.9])
        np.testing.assert_allclose(V[0], [1.0])
        np.testing.assert_allclose(V[1], [1.0])
        advance(cfg, x, V, np.array([0.9]))
        np.testing.assert_allclose(V[0], [0.9])
        np.testing.assert_allclose(V[1], [1.4])
        np.testing.assert_allclose(x, [0.785])

    def test_zero_gradient_at_fresh_state_is_fixed_point(self):
        cfg = AggConfig(betas=(0.9, 0.5), gammas=(0.1, 0.2))
        x0 = np.array([3.0, -1.0])
        x, V = init(cfg.m, x0)
        advance(cfg, x, V, np.zeros(2))
        np.testing.assert_array_equal(x, x0)

    def test_zero_gradient_decays_buffers(self):
        cfg = AggConfig(betas=(0.5,), gammas=(0.1,))
        x, V = init(cfg.m, np.array([1.0]))
        advance(cfg, x, V, np.array([1.0]))
        advance(cfg, x, V, np.zeros(1))
        np.testing.assert_allclose(V[0], [0.5])
        np.testing.assert_allclose(x, [0.9 - 0.1 * 0.5])

    def test_gradient_may_be_a_view_of_the_iterate(self):
        # grad f(x) = x on f(x) = |x|^2/2 is x itself.
        cfg = AggConfig(betas=(0.9, 0.5), gammas=(0.1, 0.2))
        x, V = init(cfg.m, np.array([1.0, -2.0]))
        y, W = init(cfg.m, np.array([1.0, -2.0]))
        for _ in range(5):
            advance(cfg, x, V, x)
            advance(cfg, y, W, y.copy())
        np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(V, W)


class TestStepMatchesIndexOrderLoop:
    """The fused buffer sums against :func:`oracles.weighted_sum`, bit for
    bit.  With one value per buffer numpy's reduction would add the m terms
    pairwise from m = 8 on, so shapes (1,) and (1, 1) at m >= 8 check that
    the kernel keeps index order there too."""

    SHAPES = [(1,), (2,), (15,), (123,), (1, 1), (2, 15), (15, 15)]

    @staticmethod
    def _draws(seed, m, k, shape):
        """x, V, grad, betas (m, 1[, 1]) and weights (k, m, 1) for x (d,) or
        per-column weights (k, m, 1, P) for the columns of x (d, P), as in
        tune; magnitudes span six decades, so that the order of adding shows."""
        rng = np.random.default_rng(seed)

        def spread(size):
            return rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)

        for _ in range(10):
            yield (
                spread(shape), spread((m,) + shape), spread(shape),
                rng.uniform(0.0, 0.99, (m,) + (1,) * len(shape)),
                rng.uniform(0.001, 1.0, (k, m, 1) + shape[1:]),
            )

    @staticmethod
    def _assert_matches_loop(x, V, grad, betas, weights):
        k, m = weights.shape[:2]
        V_want = betas * V + grad
        means = [weighted_sum(weights[r], V_want) / m for r in range(k)]
        x_want = x - means[0]

        rows = step(x, V, grad, betas, weights)
        assert np.array_equal(V, V_want)
        assert np.array_equal(x, x_want)
        assert rows.shape == (k - 1,) + x.shape
        for r in range(1, k):
            assert np.array_equal(rows[r - 1], means[r]), r

    @pytest.mark.parametrize("shape", SHAPES, ids=["x".join(map(str, s)) for s in SHAPES])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("m", range(1, 13))
    def test_bit_identical(self, m, k, shape):
        for arrays in self._draws([m, k, *shape], m, k, shape):
            self._assert_matches_loop(*arrays)

    @pytest.mark.parametrize("d", [1, 2, 15])
    @pytest.mark.parametrize("m", range(1, 13))
    def test_bit_identical_after_a_column_drop(self, m, d):
        # tune drops diverged columns with a boolean mask, which leaves the
        # column axis outermost in memory and, at d = 1, the buffer axis
        # innermost
        keep = np.arange(16) != 3
        for x, V, grad, betas, weights in self._draws([m, d], m, 1, (d, 16)):
            V, weights = V[:, :, keep], weights[..., keep]
            self._assert_matches_loop(x[:, keep], V, grad[:, keep], betas, weights)


class TestVirtualIterate:
    def test_fresh_state_returns_start(self):
        # A zero gradient from the fresh state leaves every buffer zero.
        cfg = AggConfig(betas=(0.9, 0.5), gammas=(0.1, 0.2))
        x, V = init(cfg.m, np.array([2.0, -1.0]))
        np.testing.assert_array_equal(advance(cfg, x, V, np.zeros(2)), [2.0, -1.0])

    def test_writes_into_out(self):
        x, offset, out = np.array([1.0, 2.0]), np.array([0.5, -0.5]), np.empty(2)
        assert virtual_iterate(x, offset, out) is out
        np.testing.assert_array_equal(out, [0.5, 2.5])

    def test_hand_value_after_one_step(self):
        cfg = AggConfig(betas=(0.0, 0.5), gammas=(0.1, 0.1))
        x, V = init(cfg.m, np.array([1.0]))
        np.testing.assert_allclose(advance(cfg, x, V, np.array([1.0])), [0.85])

    def test_recursion_matches_pure_gradient_form(self):
        # One step must move the virtual iterate by exactly
        # (1/m) sum gamma_i/(1-beta_i) times the gradient; on the fresh state
        # the virtual iterate is x itself.
        cfg = AggConfig(betas=(0.0, 0.5), gammas=(0.1, 0.1))
        x, V = init(cfg.m, np.array([1.0]))
        expected = x - constants(cfg).F * np.array([1.0])
        x_tilde = advance(cfg, x, V, np.array([1.0]))
        np.testing.assert_allclose(x_tilde, expected)
        np.testing.assert_allclose(x_tilde, [0.85])

    def test_recursion_residual_along_random_runs(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            m = int(rng.integers(1, 5))
            cfg = AggConfig(
                betas=tuple(rng.uniform(0, 0.99, m)),
                gammas=tuple(rng.uniform(0.001, 0.05, m)),
            )
            dim = int(rng.integers(1, 6))
            Q = np.diag(rng.uniform(0.5, 3.0, dim))
            x, V = init(cfg.m, rng.standard_normal(dim))
            vstep = constants(cfg).F
            xt = x.copy()
            for _ in range(200):
                g = Q @ x
                xt_next = advance(cfg, x, V, g)
                resid = np.linalg.norm(xt_next - (xt - vstep * g))
                assert resid <= 1e-10 * (1.0 + np.linalg.norm(xt))
                xt = xt_next


class TestMomentumExpansion:
    def test_single_gradient(self):
        g = np.array([3.0, -1.0])
        np.testing.assert_array_equal(momentum_expansion([g], 0.7), g)

    def test_hand_value(self):
        out = momentum_expansion([np.array([2.0]), np.array([1.6])], 0.9)
        np.testing.assert_allclose(out, [3.4])

    def test_zero_beta_returns_last(self):
        hist = [np.array([1.0]), np.array([5.0]), np.array([-2.0])]
        np.testing.assert_array_equal(momentum_expansion(hist, 0.0), [-2.0])

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            momentum_expansion([], 0.9)

    def test_buffers_match_expansion_of_recorded_history(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            m = int(rng.integers(1, 4))
            betas = tuple(rng.uniform(0, 0.95, m))
            cfg = AggConfig(betas=betas, gammas=tuple(rng.uniform(0.01, 0.1, m)))
            dim = 3
            Q = np.diag(rng.uniform(0.5, 2.0, dim))
            x, V = init(cfg.m, rng.standard_normal(dim))
            history = []
            for _ in range(60):
                g = Q @ x
                history.append(g.copy())
                advance(cfg, x, V, g)
            for i, beta in enumerate(betas):
                expected = momentum_expansion(history, beta)
                np.testing.assert_allclose(
                    V[i], expected, rtol=1e-10, atol=1e-14
                )


class TestAveraging:
    def test_plain_mean_when_rho_one(self):
        xbar, _ = average(1.0, [np.array([p]) for p in (1.0, 2.0, 3.0)])
        np.testing.assert_allclose(xbar, [2.0])

    def test_weighted_mean_rho_two(self):
        xbar, _ = average(2.0, [np.array([0.0]), np.array([3.0])])
        np.testing.assert_allclose(xbar, [2.0])

    def test_single_point(self):
        xbar, weight_sum = average(1.5, [np.array([4.0, -1.0])])
        np.testing.assert_allclose(xbar, [4.0, -1.0])
        assert weight_sum > 0

    def test_rho_below_one_rejected(self, monkeypatch):
        # The kernel trusts its rho; run refuses a weight ratio
        # rho = 1/(1 - mu*F/2) below 1 before the first iterate.  A stepsize
        # far past the theory's makes mu*F/2 = 10 on this mu = 1 quadratic.
        monkeypatch.setattr("agghb.theory.stepsize_convex", lambda betas, L, mu: 10.0)
        problem = quadratic(np.diag(np.arange(1.0, 6.0)), np.zeros(5))
        cfg = RunConfig(
            problem="quadratic", optimizer="hb", betas=(0.5,),
            stepsize_mode="theory-cvx", iters=10,
        )
        with pytest.raises(ValueError, match="rho"):
            run(cfg, problem)

    @pytest.mark.parametrize("rho", [1.0, 1.000001, 1.01])
    def test_online_matches_direct_recomputation(self, rho):
        # Direct recomputation with raw rho**k weights, K = 10^4.
        rng = np.random.default_rng(3)
        K = 10_000
        points = rng.standard_normal((K + 1, 3))
        xbar, _ = average(rho, points)
        weights = rho ** np.arange(K + 1)
        direct = (weights[:, None] * points).sum(axis=0) / weights.sum()
        assert np.all(np.isfinite(xbar))
        np.testing.assert_allclose(xbar, direct, rtol=1e-10)


class TestReductions:
    def test_single_buffer_matches_heavy_ball(self):
        rng = np.random.default_rng(17)
        for trial in range(8):
            beta = float(rng.uniform(0, 0.99))
            dim = int(rng.integers(1, 6))
            diag = rng.uniform(0.5, 4.0, dim)
            gamma = float(rng.uniform(0.05, 0.95)) * 2 * (1 + beta) / diag.max()
            x0 = rng.standard_normal(dim)
            cfg = AggConfig(betas=(beta,), gammas=(gamma,))
            x, V = init(cfg.m, x0)
            hb = hb_init(x0, beta, gamma)
            for _ in range(200):
                advance(cfg, x, V, diag * x)
                hb = hb_step(hb, diag * hb.x)
                scale = 1.0 + np.linalg.norm(hb.x)
                assert np.linalg.norm(x - hb.x) <= 1e-12 * scale

    def test_zero_momentum_matches_gradient_descent(self):
        rng = np.random.default_rng(5)
        gammas = (0.05, 0.15, 0.1)
        cfg = AggConfig(betas=(0.0, 0.0, 0.0), gammas=gammas)
        diag = rng.uniform(0.5, 2.0, 4)
        x_gd = rng.standard_normal(4)
        x, V = init(cfg.m, x_gd)
        mean_gamma = sum(gammas) / len(gammas)
        for _ in range(100):
            advance(cfg, x, V, diag * x)
            x_gd = x_gd - mean_gamma * (diag * x_gd)
            np.testing.assert_allclose(x, x_gd, rtol=1e-12, atol=1e-300)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(9)
        betas = (0.9, 0.5, 0.0)
        gammas = (0.01, 0.05, 0.03)
        perm = (2, 0, 1)
        cfg_a = AggConfig(betas=betas, gammas=gammas)
        cfg_b = AggConfig(
            betas=tuple(betas[i] for i in perm), gammas=tuple(gammas[i] for i in perm)
        )
        diag = rng.uniform(0.5, 2.0, 3)
        x0 = rng.standard_normal(3)
        (xa, Va), (xb, Vb) = init(cfg_a.m, x0), init(cfg_b.m, x0)
        for _ in range(300):
            advance(cfg_a, xa, Va, diag * xa)
            advance(cfg_b, xb, Vb, diag * xb)
            scale = 1.0 + np.linalg.norm(xa)
            assert np.linalg.norm(xa - xb) <= 1e-12 * scale
