"""Tests for the constants, stepsizes, conditions, and bounds."""

import itertools
import math

import numpy as np
import pytest

from agghb.optim import AggConfig
from agghb.theory import (
    bound_convex,
    bound_nonconvex,
    check_convex_conditions,
    check_nonconvex_condition,
    constants,
    effective_betas,
    stepsize_convex,
    stepsize_nonconvex,
)

BETA_GRID = (0.0, 0.5, 0.9, 0.99)
L_GRID = (0.1, 1.0, 100.0)


def bisect_beta_tilde(s: float, tol: float = 1e-14) -> float:
    """Independent root-finder for b/(1-b)^2 = s on [0, 1)."""
    if s == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0 - 1e-16
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid / (1.0 - mid) ** 2 < s:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestConstants:
    def test_zero_momentum(self):
        cfg = AggConfig(betas=(0.0,), gammas=(0.3,))
        c = constants(cfg)
        assert c.A == 0.0
        assert c.C == pytest.approx(0.3)
        assert c.D == pytest.approx(0.3)
        assert c.E == pytest.approx(1.0)
        assert c.F == pytest.approx(0.3)
        assert c.B == 0.0

    def test_two_buffer_values(self):
        cfg = AggConfig(betas=(0.9, 0.95), gammas=(0.01, 0.01))
        c = constants(cfg)
        assert c.A == pytest.approx(0.14, rel=1e-12)
        assert c.C == pytest.approx(5.0, rel=1e-12)
        assert c.D == pytest.approx(0.2, rel=1e-12)
        assert c.E == pytest.approx(30.0, rel=1e-12)
        assert c.F == pytest.approx(0.15, rel=1e-12)

    def test_buffer_constant_open_horizon_cap(self):
        # beta*gamma/(1-beta)^2 = 0.5*0.1/0.25
        cfg = AggConfig(betas=(0.5,), gammas=(0.1,))
        assert constants(cfg).B == pytest.approx(0.2, rel=1e-12)

    def test_open_horizon_is_the_old_closed_form_exactly(self):
        # The open horizon sets the tail beta^(K+1) to 0; b*g*(1 - 0.0) == b*g
        # in floats, so B matches the tail-free expression bit for bit.
        rng = np.random.default_rng(14)
        for _ in range(50):
            m = int(rng.integers(1, 8))
            betas = tuple(rng.uniform(0, 0.999, m))
            gammas = tuple(rng.uniform(1e-4, 1.0, m))
            expected = sum(b * g / (1.0 - b) ** 2 for b, g in zip(betas, gammas)) / m
            assert constants(AggConfig(betas=betas, gammas=gammas)).B == expected

    def test_buffer_constant_finite_horizon(self):
        cfg = AggConfig(betas=(0.5,), gammas=(0.1,))
        # B(K) = 0.2 * (1 - 0.5^(K+1))
        assert constants(cfg, horizon=1).B == pytest.approx(0.2 * 0.75, rel=1e-12)
        assert constants(cfg, horizon=0).B == pytest.approx(0.1, rel=1e-12)

    def test_finite_horizon_below_cap(self):
        cfg = AggConfig(betas=(0.9, 0.3), gammas=(0.2, 0.05))
        assert constants(cfg, horizon=5).B < constants(cfg).B

    def test_negative_horizon_rejected(self):
        cfg = AggConfig(betas=(0.5,), gammas=(0.1,))
        with pytest.raises(ValueError):
            constants(cfg, horizon=-1)

    def test_unit_momentum_rejected_at_config(self):
        with pytest.raises(ValueError):
            AggConfig(betas=(1.0,), gammas=(0.1,))

    def test_structural_invariants_on_random_configs(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = int(rng.integers(1, 8))
            betas = tuple(rng.uniform(0, 0.999, m))
            gammas = tuple(rng.uniform(1e-4, 1.0, m))
            c = constants(AggConfig(betas=betas, gammas=gammas))
            assert min(c.A, c.C, c.D, c.E, c.F, c.B) >= 0
            assert c.E >= m
            assert c.F >= sum(gammas) / m
            assert (c.A == 0) == all(b == 0 for b in betas)


class TestEffectiveBetas:
    def test_equal_betas_collapse(self):
        for b in (0.0, 0.3, 0.9):
            eb = effective_betas([b, b, b])
            assert eb.beta_tilde == pytest.approx(b, abs=1e-13)
            assert eb.beta_hat == pytest.approx(b, abs=1e-13)

    def test_hat_closed_form_value(self):
        eb = effective_betas([0.9, 0.95, 0.99])
        assert eb.beta_hat == pytest.approx(127.0 / 130.0, rel=1e-14)

    def test_tilde_matches_bisection(self):
        betas = [0.9, 0.95, 0.99]
        s = sum(b / (1 - b) ** 2 for b in betas) / 3  # = 10370/3
        assert s == pytest.approx(10370.0 / 3.0, rel=1e-14)
        eb = effective_betas(betas)
        assert eb.beta_tilde == pytest.approx(0.98314, abs=5e-6)
        assert abs(eb.beta_tilde - bisect_beta_tilde(s)) <= 1e-12

    def test_all_zero(self):
        eb = effective_betas([0.0, 0.0])
        assert eb.beta_tilde == 0.0
        assert eb.beta_hat == 0.0

    def test_single_beta_collapse_exact(self):
        for b in (0.0, 0.42, 0.9, 0.999):
            eb = effective_betas([b])
            assert eb.beta_hat == pytest.approx(b, abs=1e-15)
            assert eb.beta_tilde == pytest.approx(b, abs=1e-12)

    def test_defining_equations_and_range_random_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(1, 17))
            betas = rng.uniform(0, 0.995, m)
            eb = effective_betas(betas)
            assert betas.min() - 1e-12 <= eb.beta_tilde <= betas.max() + 1e-12
            assert betas.min() - 1e-12 <= eb.beta_hat <= betas.max() + 1e-12
            s = float(np.mean(betas / (1 - betas) ** 2))
            lhs_t = eb.beta_tilde / (1 - eb.beta_tilde) ** 2
            assert lhs_t == pytest.approx(s, rel=1e-12, abs=1e-12)
            h = float(np.mean(1.0 / (1 - betas)))
            assert 1.0 / (1 - eb.beta_hat) == pytest.approx(h, rel=1e-12)

    def test_monotonicity_under_pointwise_increase(self):
        base = [0.2, 0.5, 0.8]
        eb0 = effective_betas(base)
        for i in range(3):
            bumped = list(base)
            bumped[i] += 0.05
            eb1 = effective_betas(bumped)
            assert eb1.beta_tilde >= eb0.beta_tilde
            assert eb1.beta_hat >= eb0.beta_hat

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            effective_betas([1.0])
        with pytest.raises(ValueError):
            effective_betas([])


class TestNonconvexCondition:
    def test_tiny_stepsize_admissible_with_margin_near_one(self):
        cfg = AggConfig(betas=(0.9, 0.5), gammas=(1e-9, 1e-9))
        cond = check_nonconvex_condition(constants(cfg), L=1.0, m=2)
        assert cond.admissible and not cond.vacuous
        assert cond.margin == pytest.approx(1.0, abs=1e-6)

    def test_huge_stepsize_inadmissible(self):
        cfg = AggConfig(betas=(0.9,), gammas=(10.0,))
        cond = check_nonconvex_condition(constants(cfg), L=1.0, m=1)
        assert not cond.admissible
        assert cond.margin < 0

    def test_zero_momentum_is_vacuous(self):
        cfg = AggConfig(betas=(0.0,), gammas=(0.1,))
        cond = check_nonconvex_condition(constants(cfg), L=1.0, m=1)
        assert cond.vacuous and not cond.admissible

    def test_derived_stepsize_margin_at_least_half_on_grid(self):
        for m in (1, 2, 3, 4):
            for betas in itertools.product(BETA_GRID, repeat=m):
                if all(b == 0 for b in betas):
                    continue
                for L in L_GRID:
                    g = stepsize_nonconvex(betas, L)
                    cfg = AggConfig(betas=betas, gammas=(g,) * m)
                    cond = check_nonconvex_condition(constants(cfg), L=L, m=m)
                    assert cond.margin >= 0.5 - 1e-9, (betas, L, cond.margin)


class TestStepsizes:
    def test_nonconvex_hand_value(self):
        # m=1, beta=0.9: gamma = 1 / (L * (18 + sqrt(20000)))
        for L in (1.0, 3.5):
            expected = 1.0 / (L * (18.0 + math.sqrt(20000.0)))
            assert stepsize_nonconvex([0.9], L) == pytest.approx(expected, rel=1e-11)
            assert stepsize_nonconvex([0.9], L) == pytest.approx(0.0062727 / L, rel=1e-4)

    def test_nonconvex_zero_momentum_limit(self):
        assert stepsize_nonconvex([0.0], 1.0) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_convex_hand_value(self):
        # m=1, beta=0.9, mu=0: min(0.025/L, 0.01/(4*sqrt(3)*sqrt(0.9)*L))
        expected = 0.01 / (4.0 * math.sqrt(3.0) * math.sqrt(0.9))
        assert stepsize_convex([0.9], 1.0, 0.0) == pytest.approx(expected, rel=1e-11)
        assert stepsize_convex([0.9], 1.0, 0.0) == pytest.approx(0.0015215, rel=1e-4)

    def test_convex_zero_momentum(self):
        assert stepsize_convex([0.0, 0.0], 2.0, 0.0) == pytest.approx(1.0 / 8.0)

    def test_convex_stepsize_passes_its_own_conditions_on_grid(self):
        for m in (1, 2, 3, 4):
            for betas in itertools.product(BETA_GRID, repeat=m):
                for L in L_GRID:
                    for mu in (0.0, L / 100.0):
                        g = stepsize_convex(betas, L, mu)
                        cfg = AggConfig(betas=betas, gammas=(g,) * m)
                        checks = check_convex_conditions(cfg, constants(cfg), L, mu)
                        assert checks.ok, (betas, L, mu, checks)

    def test_convex_single_beta_never_exceeds_quarter_over_L_cap(self):
        for beta in BETA_GRID:
            for L in L_GRID:
                g = stepsize_convex([beta], L, 0.0)
                assert g <= (1.0 - beta) / (4.0 * L) + 1e-18


class TestConvexConditions:
    def test_tiny_stepsizes_pass(self):
        cfg = AggConfig(betas=(0.9, 0.5), gammas=(1e-9, 1e-9))
        checks = check_convex_conditions(cfg, constants(cfg), L=1.0, mu=0.1)
        assert checks.ok
        assert all(m > 0 for m in checks.stepsize_margins)

    def test_large_virtual_step_fails_with_margin(self):
        cfg = AggConfig(betas=(0.9,), gammas=(1.0,))
        checks = check_convex_conditions(cfg, constants(cfg), L=1.0, mu=0.0)
        assert not checks.ok
        assert checks.f_margin == pytest.approx(0.25 - 10.0, rel=1e-12)

    def test_mu_zero_per_buffer_margins_infinite(self):
        cfg = AggConfig(betas=(0.5,), gammas=(0.01,))
        checks = check_convex_conditions(cfg, constants(cfg), L=1.0, mu=0.0)
        assert checks.stepsize_margins == (math.inf,)


class TestBounds:
    def _admissible(self):
        betas = (0.9, 0.95)
        L = 1.0
        g = stepsize_nonconvex(betas, L)
        cfg = AggConfig(betas=betas, gammas=(g,) * 2)
        return cfg, constants(cfg), L

    def test_nonconvex_k_scaling(self):
        cfg, consts, L = self._admissible()
        b1 = bound_nonconvex(100, 2.0, L, consts, cfg.m)
        b2 = bound_nonconvex(200, 2.0, L, consts, cfg.m)
        assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)

    def test_nonconvex_zero_gap_gives_zero(self):
        cfg, consts, L = self._admissible()
        assert bound_nonconvex(10, 0.0, L, consts, cfg.m) == 0.0

    def test_nonconvex_formula_oracle(self):
        # Independent re-evaluation of the closed form.
        cfg, consts, L = self._admissible()
        K = 100
        a = sum(b * g / (1 - b) for b, g in zip(cfg.betas, cfg.gammas)) / cfg.m
        c = sum(g / (1 - b) ** 2 for b, g in zip(cfg.betas, cfg.gammas))
        d = max(g / (1 - b) for b, g in zip(cfg.betas, cfg.gammas))
        e = sum(1 / (1 - b) for b in cfg.betas)
        denom = a * (1 - c * d * e * L * L / cfg.m ** 2 - L * a)
        expected = (2.0 / K) * 1.0 / denom
        got = bound_nonconvex(K, 1.0, L, consts, cfg.m)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_nonconvex_rejects_inadmissible(self):
        cfg = AggConfig(betas=(0.9,), gammas=(10.0,))
        with pytest.raises(ValueError, match="inadmissible"):
            bound_nonconvex(10, 1.0, 1.0, constants(cfg), 1)

    def test_nonconvex_rejects_vacuous(self):
        cfg = AggConfig(betas=(0.0,), gammas=(0.1,))
        with pytest.raises(ValueError, match="zero momentum"):
            bound_nonconvex(10, 1.0, 1.0, constants(cfg), 1)

    def test_convex_flat_rate_hand_value(self):
        assert bound_convex(100, 1.0, 0.0, 0.1) == pytest.approx(0.4, rel=1e-12)

    def test_strongly_convex_zero_iterations(self):
        assert bound_convex(0, 2.0, 0.5, 0.1) == pytest.approx(80.0, rel=1e-12)

    def test_strongly_convex_geometric_decay(self):
        F = 0.2
        contraction = 1.0 - 0.5 * F / 2.0
        assert bound_convex(10, 1.0, 0.5, F) == pytest.approx(
            contraction ** 10 * 4.0 / F, rel=1e-12
        )

    def test_boundary_contraction_rejected(self):
        with pytest.raises(ValueError, match="must be < 1"):
            bound_convex(5, 1.0, 2.0 / 0.1, 0.1)

    def test_flat_rate_zero_iterations_rejected(self):
        with pytest.raises(ValueError, match="K >= 1"):
            bound_convex(0, 1.0, 0.0, 0.1)

    def test_bounds_monotone(self):
        cfg, consts, L = self._admissible()
        ks = [1, 3, 10, 50, 200]
        vals = [
            bound_nonconvex(k, 1, L, consts, cfg.m)
            for k in ks
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        gaps = [0.0, 0.5, 2.0, 10.0]
        vals2 = [
            bound_nonconvex(10, d, L, consts, cfg.m)
            for d in gaps
        ]
        assert all(a <= b for a, b in zip(vals2, vals2[1:]))
        vals3 = [bound_convex(k, 1, 0, 0.1) for k in ks]
        assert all(a >= b for a, b in zip(vals3, vals3[1:]))
        vals4 = [
            bound_convex(10, r, 0.2, 0.1)
            for r in gaps
        ]
        assert all(a <= b for a, b in zip(vals4, vals4[1:]))

    def test_bound_inputs_validation(self):
        cfg, consts, _ = self._admissible()
        with pytest.raises(ValueError):
            bound_nonconvex(10, 1.0, 0.0, consts, cfg.m)
        with pytest.raises(ValueError):
            bound_convex(10, 0.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            bound_nonconvex(10, -1.0, 1.0, consts, cfg.m)
        with pytest.raises(ValueError):
            bound_convex(10, -1.0, 0.0, 0.1)


def _entry_points_taking(L: float, mu: float):
    """Every calculus entry point that reads L or mu, called with these values."""
    cfg = AggConfig(betas=(0.9, 0.95), gammas=(1e-3, 1e-3))
    consts = constants(cfg)
    return {
        "stepsize_nonconvex": lambda: stepsize_nonconvex(cfg.betas, L),
        "stepsize_convex": lambda: stepsize_convex(cfg.betas, L, mu),
        "check_nonconvex_condition": lambda: check_nonconvex_condition(consts, L, cfg.m),
        "check_convex_conditions": lambda: check_convex_conditions(cfg, consts, L, mu),
        "bound_nonconvex": lambda: bound_nonconvex(10, 1.0, L, consts, cfg.m),
        "bound_convex": lambda: bound_convex(10, 1.0, mu, 1e-3),
    }


READS_L = (
    "stepsize_nonconvex", "stepsize_convex", "check_nonconvex_condition",
    "check_convex_conditions", "bound_nonconvex",
)
READS_MU = ("stepsize_convex", "check_convex_conditions", "bound_convex")


class TestProblemConstantsRefused:
    """L must lie in (0, inf) and mu in [0, inf) wherever either is read."""

    @pytest.mark.parametrize("entry", READS_L)
    @pytest.mark.parametrize("L", [0.0, -1.0, math.inf, math.nan], ids=str)
    def test_bad_L(self, entry, L):
        with pytest.raises(ValueError, match="L must be positive and finite"):
            _entry_points_taking(L, 0.0)[entry]()

    @pytest.mark.parametrize("entry", READS_MU)
    @pytest.mark.parametrize("mu", [-1.0, math.inf, -math.inf, math.nan], ids=str)
    def test_bad_mu(self, entry, mu):
        with pytest.raises(ValueError, match="mu must be nonnegative and finite"):
            _entry_points_taking(1.0, mu)[entry]()
