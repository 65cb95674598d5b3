"""Unit and property tests for the momentum state machines."""

import numpy as np
import pytest

from agghb.optim import (
    AggConfig,
    AveragingState,
    DivergenceError,
    averaging_update,
    init,
    step,
    virtual_iterate,
    virtual_step_size,
)

from oracles import hb_init, hb_step, momentum_expansion


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
        cfg = AggConfig(betas=(0.9,), gammas=(0.1,))
        state = init(cfg, np.array([0.0]))
        assert state.k == 0
        assert len(state.buffers) == 1
        np.testing.assert_array_equal(state.buffers[0], [0.0])

    def test_two_buffers_dim_one(self):
        cfg = AggConfig(betas=(0.0, 0.5), gammas=(0.1, 0.1))
        state = init(cfg, np.array([1.0]))
        assert len(state.buffers) == 2
        for v in state.buffers:
            assert v.shape == (1,)
            np.testing.assert_array_equal(v, [0.0])

    def test_nonfinite_start_rejected(self):
        cfg = AggConfig(betas=(0.9,), gammas=(0.1,))
        with pytest.raises(ValueError, match="non-finite"):
            init(cfg, np.array([np.nan]))

    def test_first_step_is_mean_gamma_gradient_step(self):
        # With zero buffers the first update is x0 - mean(gammas) * grad.
        cfg = AggConfig(betas=(0.3, 0.8), gammas=(0.1, 0.3))
        x0 = np.array([1.0, -2.0])
        g = np.array([0.5, 1.0])
        state = step(init(cfg, x0), g)
        np.testing.assert_allclose(state.x, x0 - 0.2 * g, rtol=1e-15)


class TestStep:
    def test_hand_simulated_single_buffer(self):
        # f(x) = x^2 from x = 1 with beta 0.9, gamma 0.1.
        cfg = AggConfig(betas=(0.9,), gammas=(0.1,))
        s = init(cfg, np.array([1.0]))
        s = step(s, np.array([2.0]))
        np.testing.assert_allclose(s.buffers[0], [2.0])
        np.testing.assert_allclose(s.x, [0.8])
        s = step(s, np.array([1.6]))
        np.testing.assert_allclose(s.buffers[0], [3.4])
        np.testing.assert_allclose(s.x, [0.46])

    def test_hand_simulated_two_buffers(self):
        # f(x) = x^2/2 from x = 1 with betas (0, 0.5), gammas (0.1, 0.1).
        cfg = AggConfig(betas=(0.0, 0.5), gammas=(0.1, 0.1))
        s = init(cfg, np.array([1.0]))
        s = step(s, np.array([1.0]))
        np.testing.assert_allclose(s.x, [0.9])
        np.testing.assert_allclose(s.buffers[0], [1.0])
        np.testing.assert_allclose(s.buffers[1], [1.0])
        s = step(s, np.array([0.9]))
        np.testing.assert_allclose(s.buffers[0], [0.9])
        np.testing.assert_allclose(s.buffers[1], [1.4])
        np.testing.assert_allclose(s.x, [0.785])

    def test_zero_gradient_at_fresh_state_is_fixed_point(self):
        cfg = AggConfig(betas=(0.9, 0.5), gammas=(0.1, 0.2))
        s = init(cfg, np.array([3.0, -1.0]))
        s2 = step(s, np.zeros(2))
        np.testing.assert_array_equal(s2.x, s.x)

    def test_zero_gradient_decays_buffers(self):
        cfg = AggConfig(betas=(0.5,), gammas=(0.1,))
        s = init(cfg, np.array([1.0]))
        s = step(s, np.array([1.0]))
        s = step(s, np.zeros(1))
        np.testing.assert_allclose(s.buffers[0], [0.5])
        np.testing.assert_allclose(s.x, [0.9 - 0.1 * 0.5])

    def test_nonfinite_gradient_raises_with_state(self):
        cfg = AggConfig(betas=(0.9,), gammas=(0.1,))
        s = init(cfg, np.array([1.0]))
        with pytest.raises(DivergenceError) as exc:
            step(s, np.array([np.inf]))
        assert exc.value.state is s

    def test_overflowing_update_raises_with_last_finite_state(self):
        cfg = AggConfig(betas=(0.9,), gammas=(1e300,))
        s = init(cfg, np.array([1.0]))
        with pytest.raises(DivergenceError) as exc:
            with np.errstate(over="ignore"):
                step(s, np.array([1e300]))
        assert np.all(np.isfinite(exc.value.state.x))

    def test_dimension_mismatch_rejected(self):
        cfg = AggConfig(betas=(0.9,), gammas=(0.1,))
        s = init(cfg, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="shape"):
            step(s, np.array([1.0]))

    def test_counter_increments(self):
        cfg = AggConfig(betas=(0.9,), gammas=(0.1,))
        s = init(cfg, np.array([1.0]))
        assert step(s, np.array([1.0])).k == 1


class TestVirtualIterate:
    def test_fresh_state_returns_start(self):
        cfg = AggConfig(betas=(0.9, 0.5), gammas=(0.1, 0.2))
        s = init(cfg, np.array([2.0, -1.0]))
        np.testing.assert_array_equal(virtual_iterate(s), s.x)

    def test_hand_value_after_one_step(self):
        cfg = AggConfig(betas=(0.0, 0.5), gammas=(0.1, 0.1))
        s = step(init(cfg, np.array([1.0])), np.array([1.0]))
        np.testing.assert_allclose(virtual_iterate(s), [0.85])

    def test_recursion_matches_pure_gradient_form(self):
        # One step must move the virtual iterate by exactly
        # (1/m) sum gamma_i/(1-beta_i) times the gradient.
        cfg = AggConfig(betas=(0.0, 0.5), gammas=(0.1, 0.1))
        s0 = init(cfg, np.array([1.0]))
        s1 = step(s0, np.array([1.0]))
        expected = virtual_iterate(s0) - virtual_step_size(cfg) * np.array([1.0])
        np.testing.assert_allclose(virtual_iterate(s1), expected)
        np.testing.assert_allclose(virtual_iterate(s1), [0.85])

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
            s = init(cfg, rng.standard_normal(dim))
            vstep = virtual_step_size(cfg)
            xt = virtual_iterate(s)
            for _ in range(200):
                g = Q @ s.x
                s = step(s, g)
                xt_next = virtual_iterate(s)
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
            s = init(cfg, rng.standard_normal(dim))
            history = []
            for _ in range(60):
                g = Q @ s.x
                history.append(g.copy())
                s = step(s, g)
            for i, beta in enumerate(betas):
                expected = momentum_expansion(history, beta)
                np.testing.assert_allclose(
                    s.buffers[i], expected, rtol=1e-10, atol=1e-14
                )


class TestAveraging:
    def test_plain_mean_when_rho_one(self):
        avg = AveragingState.fresh(1.0, 1)
        for p in (1.0, 2.0, 3.0):
            avg = averaging_update(avg, np.array([p]))
        np.testing.assert_allclose(avg.xbar, [2.0])

    def test_weighted_mean_rho_two(self):
        avg = AveragingState.fresh(2.0, 1)
        avg = averaging_update(avg, np.array([0.0]))
        avg = averaging_update(avg, np.array([3.0]))
        np.testing.assert_allclose(avg.xbar, [2.0])

    def test_single_point(self):
        avg = averaging_update(AveragingState.fresh(1.5, 2), np.array([4.0, -1.0]))
        np.testing.assert_allclose(avg.xbar, [4.0, -1.0])
        assert avg.weight_sum > 0

    def test_rho_below_one_rejected(self):
        with pytest.raises(ValueError, match="rho"):
            AveragingState.fresh(0.99, 1)

    @pytest.mark.parametrize("rho", [1.0, 1.000001, 1.01])
    def test_online_matches_direct_recomputation(self, rho):
        # Direct recomputation with raw rho**k weights, K = 10^4.
        rng = np.random.default_rng(3)
        K = 10_000
        points = rng.standard_normal((K + 1, 3))
        avg = AveragingState.fresh(rho, 3)
        for p in points:
            avg = averaging_update(avg, p)
        weights = rho ** np.arange(K + 1)
        direct = (weights[:, None] * points).sum(axis=0) / weights.sum()
        assert np.all(np.isfinite(avg.xbar))
        np.testing.assert_allclose(avg.xbar, direct, rtol=1e-10)


class TestReductions:
    def test_single_buffer_matches_heavy_ball(self):
        rng = np.random.default_rng(17)
        for trial in range(8):
            beta = float(rng.uniform(0, 0.99))
            dim = int(rng.integers(1, 6))
            diag = rng.uniform(0.5, 4.0, dim)
            gamma = float(rng.uniform(0.05, 0.95)) * 2 * (1 + beta) / diag.max()
            x0 = rng.standard_normal(dim)
            agg = init(AggConfig(betas=(beta,), gammas=(gamma,)), x0)
            hb = hb_init(x0, beta, gamma)
            for _ in range(200):
                agg = step(agg, diag * agg.x)
                hb = hb_step(hb, diag * hb.x)
                scale = 1.0 + np.linalg.norm(hb.x)
                assert np.linalg.norm(agg.x - hb.x) <= 1e-12 * scale

    def test_zero_momentum_matches_gradient_descent(self):
        rng = np.random.default_rng(5)
        gammas = (0.05, 0.15, 0.1)
        cfg = AggConfig(betas=(0.0, 0.0, 0.0), gammas=gammas)
        diag = rng.uniform(0.5, 2.0, 4)
        x_gd = rng.standard_normal(4)
        s = init(cfg, x_gd)
        mean_gamma = sum(gammas) / len(gammas)
        for _ in range(100):
            g = diag * s.x
            s = step(s, g)
            x_gd = x_gd - mean_gamma * (diag * x_gd)
            np.testing.assert_allclose(s.x, x_gd, rtol=1e-12, atol=1e-300)

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
        sa, sb = init(cfg_a, x0), init(cfg_b, x0)
        for _ in range(300):
            sa = step(sa, diag * sa.x)
            sb = step(sb, diag * sb.x)
            scale = 1.0 + np.linalg.norm(sa.x)
            assert np.linalg.norm(sa.x - sb.x) <= 1e-12 * scale
