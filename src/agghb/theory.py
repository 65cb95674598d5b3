"""Closed-form constants, admissible stepsizes, and convergence bounds.

Everything here is a pure function of the momentum decays ``beta_i``, the
stepsizes ``gamma_i``, and the problem constants ``L`` (gradient Lipschitz)
and ``mu`` (strong convexity).  The run harness uses these to pick stepsizes
with provable guarantees and to compute the bounds that observed traces are
checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .optim import AggConfig

# Derived stepsizes sit exactly on their admissibility boundaries in real
# arithmetic; shave a relative hair so the strict float checks stay true.
# (Smaller stepsizes are always admissible, so this is in the safe direction.)
_STEPSIZE_SHADE = 1.0 - 1e-12


@dataclass(frozen=True)
class TheoryConstants:
    """Aggregate sums the guarantees are stated in.

    A  -- momentum-weighted mean stepsize  (1/m) sum beta_i*gamma_i/(1-beta_i)
    C  -- sum gamma_i/(1-beta_i)^2
    D  -- max_i gamma_i/(1-beta_i)
    E  -- sum 1/(1-beta_i)
    F  -- mean stepsize of the virtual recursion  (1/m) sum gamma_i/(1-beta_i)
    B  -- buffer-magnitude constant  (1/m) sum beta_i*gamma_i*(1-beta_i^(K+1))/(1-beta_i)^2
          (with the tail beta_i^(K+1) taken as 0 when no horizon is given)
    """

    A: float
    C: float
    D: float
    E: float
    F: float
    B: float


@dataclass(frozen=True)
class EffectiveBetas:
    """Scalar momenta that reproduce the aggregate's averaged quantities.

    ``beta_tilde`` solves (1/m) sum beta_i/(1-beta_i)^2 = b/(1-b)^2 and
    ``beta_hat`` solves (1/m) sum 1/(1-beta_i) = 1/(1-b); both lie between
    the smallest and largest beta_i.
    """

    beta_tilde: float
    beta_hat: float
    beta_max: float


@dataclass(frozen=True)
class NonconvexCondition:
    """Admissibility verdict for the non-convex guarantee.

    ``margin`` is 1 - C*D*E*L^2/m^2 - L*A; the guarantee needs it positive.
    ``vacuous`` flags the zero-momentum case (A = 0), where the bound
    degenerates and says nothing.
    """

    margin: float
    admissible: bool
    vacuous: bool


@dataclass(frozen=True)
class ConvexConditions:
    """Per-condition margins for the (strongly) convex guarantee.

    Margins are requirement minus actual value, so nonnegative means pass.
    ``stepsize_margins`` has one entry per buffer (infinite when mu = 0,
    where the per-buffer cap vanishes).
    """

    stepsize_margins: tuple[float, ...]
    f_margin: float     # 1/(4L) - F
    bf_margin: float    # (1 - max beta)/(48 L^2) - B*F
    ok: bool


def _check_L_mu(L: float = 1.0, mu: float = 0.0) -> None:
    """Refuse L outside (0, inf) and mu outside [0, inf); NaN is outside both.

    Every entry point that reads L or mu reaches this check, as does every
    ``Problem`` when it is made.  The defaults pass, so a caller that reads
    only one of them checks only that one.
    """
    if not 0.0 < L < math.inf:
        raise ValueError(f"L must be positive and finite, got {L!r}")
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be nonnegative and finite, got {mu!r}")


def constants(config: AggConfig, horizon: int | None = None) -> TheoryConstants:
    """Evaluate all aggregate constants for a configuration.

    ``horizon`` is the iteration count K entering B; ``None`` takes the
    tail beta_i^(K+1) as 0, the open-ended cap, which is conservative
    wherever B appears.
    """
    if horizon is not None and horizon < 0:
        raise ValueError("horizon must be nonnegative")
    m = config.m
    a = sum(b * g / (1.0 - b) for b, g in zip(config.betas, config.gammas)) / m
    c = sum(g / (1.0 - b) ** 2 for b, g in zip(config.betas, config.gammas))
    d = max(g / (1.0 - b) for b, g in zip(config.betas, config.gammas))
    e = sum(1.0 / (1.0 - b) for b in config.betas)
    f = sum(g / (1.0 - b) for b, g in zip(config.betas, config.gammas)) / m
    tails = [0.0 if horizon is None else b ** (horizon + 1) for b in config.betas]
    bconst = sum(
        b * g * (1.0 - t) / (1.0 - b) ** 2
        for b, g, t in zip(config.betas, config.gammas, tails)
    ) / m
    return TheoryConstants(A=a, C=c, D=d, E=e, F=f, B=bconst)


def effective_betas(betas) -> EffectiveBetas:
    """Collapse a set of momentum decays to the two equivalent scalars.

    beta_hat has the closed form 1 - m / sum(1/(1-beta_i)).  beta_tilde is
    the root in [0, 1) of s*(1-b)^2 = b with s = (1/m) sum beta_i/(1-beta_i)^2,
    i.e. b = ((2s+1) - sqrt(4s+1)) / (2s) for s > 0 and b = 0 at s = 0.
    """
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("need at least one beta")
    for b in betas:
        if not (0.0 <= b < 1.0):
            raise ValueError(f"momentum parameter {b} outside [0, 1)")
    m = len(betas)
    beta_hat = 1.0 - m / sum(1.0 / (1.0 - b) for b in betas)
    s = sum(b / (1.0 - b) ** 2 for b in betas) / m
    if s == 0.0:
        beta_tilde = 0.0
    else:
        beta_tilde = ((2.0 * s + 1.0) - math.sqrt(4.0 * s + 1.0)) / (2.0 * s)
    return EffectiveBetas(
        beta_tilde=beta_tilde, beta_hat=beta_hat, beta_max=max(betas)
    )


def check_nonconvex_condition(
    consts: TheoryConstants, L: float, m: int
) -> NonconvexCondition:
    """Admissibility of a configuration for the non-convex guarantee.

    Uses the stricter of the two published denominator forms
    (C*D*E*L^2/m^2 without the factor 1/2), so a positive margin here is
    valid under either reading.
    """
    _check_L_mu(L)
    margin = 1.0 - consts.C * consts.D * consts.E * L * L / (m * m) - L * consts.A
    if consts.A == 0.0:
        # Pure gradient descent: the bound divides by A and degenerates.
        return NonconvexCondition(margin=margin, admissible=False, vacuous=True)
    return NonconvexCondition(margin=margin, admissible=margin > 0.0, vacuous=False)


def stepsize_nonconvex(betas, L: float) -> float:
    """Uniform stepsize with a guaranteed non-convex admissibility margin >= 1/2.

    gamma = 1 / (L * (2*bh/(1-bh) + sqrt(2*(bt/(1-bt)^2 + 1/(1-bh))
                                         / ((1-beta_max)*(1-bh)))))
    with bt = beta_tilde, bh = beta_hat.
    """
    _check_L_mu(L)
    eb = effective_betas(betas)
    bt, bh, bmax = eb.beta_tilde, eb.beta_hat, eb.beta_max
    inner = (bt / (1.0 - bt) ** 2 + 1.0 / (1.0 - bh)) / ((1.0 - bmax) * (1.0 - bh))
    denom = 2.0 * bh / (1.0 - bh) + math.sqrt(2.0 * inner)
    return _STEPSIZE_SHADE / (L * denom)


def stepsize_convex(betas, L: float, mu: float) -> float:
    """Uniform stepsize satisfying every condition of the convex guarantee.

    The smallest of three caps; the strong-convexity cap drops out at mu = 0
    and the buffer-magnitude cap drops out when all decays are zero.
    """
    _check_L_mu(L, mu)
    eb = effective_betas(betas)
    bt, bh, bmax = eb.beta_tilde, eb.beta_hat, eb.beta_max
    terms = [(1.0 - bh) / (4.0 * L)]
    if mu > 0:
        terms.append((1.0 - bmax) ** 2 / (2.0 * mu))
    if bt > 0:
        terms.append(
            (1.0 - bt)
            * math.sqrt((1.0 - bh) * (1.0 - bmax))
            / (4.0 * math.sqrt(3.0) * L * math.sqrt(bt))
        )
    return _STEPSIZE_SHADE * min(terms)


def check_convex_conditions(
    config: AggConfig, consts: TheoryConstants, L: float, mu: float
) -> ConvexConditions:
    """Verify the three parameter conditions of the convex guarantee.

    Per buffer: gamma_i <= (1 - max beta)*(1 - beta_i)/(2 mu)  (vacuous at mu = 0).
    Globally:   F <= 1/(4L)  and  B*F <= (1 - max beta)/(48 L^2),
    with ``consts`` the :func:`constants` of ``config`` at the checked horizon.
    """
    _check_L_mu(L, mu)
    bmax = max(config.betas)
    if mu == 0.0:
        step_margins = tuple(math.inf for _ in config.betas)
    else:
        step_margins = tuple(
            (1.0 - bmax) * (1.0 - b) / (2.0 * mu) - g
            for b, g in zip(config.betas, config.gammas)
        )
    f_margin = 1.0 / (4.0 * L) - consts.F
    bf_margin = (1.0 - bmax) / (48.0 * L * L) - consts.B * consts.F
    ok = all(sm >= 0 for sm in step_margins) and f_margin >= 0 and bf_margin >= 0
    return ConvexConditions(
        stepsize_margins=step_margins, f_margin=f_margin, bf_margin=bf_margin, ok=ok
    )


def bound_nonconvex(
    K: int, delta0: float, L: float, consts: TheoryConstants, m: int
) -> float:
    """Guaranteed ceiling on min over k=1..K of ||grad f(x_k)||^2.

    Equals (2/K) * delta0 / (A * (1 - C*D*E*L^2/m^2 - L*A)), where delta0 is
    the initial suboptimality f(x0) - inf f; only valid for admissible
    configurations.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if delta0 < 0:
        raise ValueError("delta0 must be nonnegative")
    cond = check_nonconvex_condition(consts, L, m)
    if cond.vacuous:
        raise ValueError("zero momentum: the non-convex bound degenerates")
    if not cond.admissible:
        raise ValueError(f"inadmissible configuration (margin {cond.margin:.6g})")
    return (2.0 / K) * delta0 / (consts.A * cond.margin)


def bound_convex(K: int, r0_sq: float, mu: float, F: float) -> float:
    """Guaranteed ceiling on f(xbar_K) - f(x_*) for the weighted-average iterate.

    (1 - mu*F/2)^K * 4*r0_sq/F when mu > 0, and 4*r0_sq/(F*K) when mu = 0,
    where r0_sq = ||x0 - x_*||^2.  Requires mu*F/2 < 1.
    """
    _check_L_mu(mu=mu)
    if r0_sq < 0:
        raise ValueError("r0_sq must be nonnegative")
    if not (F > 0):
        raise ValueError("F must be positive")
    if K < 0:
        raise ValueError("K must be nonnegative")
    contraction = 1.0 - mu * F / 2.0
    if contraction <= 0.0:
        raise ValueError(f"mu*F/2 = {mu * F / 2:.6g} must be < 1")
    if mu > 0:
        return contraction ** K * 4.0 * r0_sq / F
    if K == 0:
        raise ValueError("the mu = 0 bound needs K >= 1")
    return 4.0 * r0_sq / (F * K)
