"""Power of the shipped checks: each test injects a known defect and records
which of the acceptance checks catches it.

The checks are the ones the acceptance suite ships:

- the virtual-iterate residual of ``harness.run`` at most 1e-10
  (criterion 2), on theory-stepsize runs with each of its beta sets;
- the m = 1 heavy-ball match to 1e-12 (criterion 1, called as written);
- the finite-difference gradient check (criterion 6, called as written).

The defects are two step kernels put in place of ``agghb.harness.step``
(and of the ``step`` that criterion 1 calls), and a problem whose gradient
is scaled by 0.5.
"""

import contextlib
import dataclasses
import io

import numpy as np
import pytest

import agghb.harness
import test_acceptance as acceptance
from agghb.harness import RunConfig, run
from agghb.optim import step
from agghb.problems import logreg_l2, logreg_nonconvex, quadratic

VIRTUAL_RESIDUAL_TOL = 1e-10  # criterion 2


def ema_step(x, V, grad, betas, weights):
    """The step with exponential-moving-average buffers V <- beta V + (1 - beta) g."""
    V *= betas
    V += (1.0 - betas) * grad
    sums = np.add.reduce(weights * V, axis=1) / len(V)
    x -= sums[0]
    return sums[1:]


def unaveraged_step(x, V, grad, betas, weights):
    """The step with the 1/m of the buffer mean dropped."""
    V *= betas
    V += grad
    sums = np.add.reduce(weights * V, axis=1)
    x -= sums[0]
    return sums[1:]


def halved(problem):
    """``problem`` with its gradient scaled by 0.5 and its value unchanged."""
    def value_and_grad(x):
        f, g = problem.value_and_grad(x)
        return f, 0.5 * g

    return dataclasses.replace(
        problem, gradient=lambda x: 0.5 * problem.gradient(x), value_and_grad=value_and_grad,
    )


def quad10():
    return quadratic(np.diag(np.arange(1.0, 11.0)), np.zeros(10))


def residual_catches(transform):
    """Whether some theory-stepsize run on the quadratic exceeds the residual bound."""
    problem = transform(quad10())
    for betas in acceptance.BETA_SETS:
        cfg = RunConfig(
            problem="quadratic", optimizer="hb" if len(betas) == 1 else "agghb", betas=betas,
            stepsize_mode="theory-ncvx", iters=300, seed=1,
        )
        if not run(cfg, problem).max_virtual_residual <= VIRTUAL_RESIDUAL_TOL:
            return True
    return False


def gradient_check_catches(transform, data):
    """Whether criterion 6 fails on the quadratic and the two logistic
    problems of ``data``, each passed through ``transform``."""
    return fails(
        acceptance.test_criterion_6_gradient_correctness,
        transform(quad10()),
        transform(logreg_nonconvex(data, 1e-2)),
        {"strongly_convex": transform(logreg_l2(data, 1e-3))},
    )


def fails(criterion, *args):
    """Whether an acceptance criterion fails its assertion; its PASS/FAIL line
    is swallowed, since here a FAIL is an expected outcome."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            criterion(*args)
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("kernel, transform, caught_by", [
    (ema_step, lambda p: p, {"residual", "heavy-ball"}),
    # At m = 1 the mean is the one buffer, so dropping 1/m changes nothing
    # that the heavy-ball match could see.
    (unaveraged_step, lambda p: p, {"residual"}),
    (step, halved, {"gradient"}),
], ids=["ema-buffers", "dropped-1/m", "half-gradient"])
def test_defect_caught_by(monkeypatch, small_dataset, kernel, transform, caught_by):
    monkeypatch.setattr(agghb.harness, "step", kernel)
    monkeypatch.setattr(acceptance, "step", kernel)
    caught = {
        "residual": residual_catches(transform),
        "heavy-ball": fails(acceptance.test_criterion_1_m1_reduction),
        "gradient": gradient_check_catches(transform, small_dataset),
    }
    assert {name for name, hit in caught.items() if hit} == caught_by


def test_shipped_kernel_passes_every_check(small_dataset):
    """The checks themselves pass on the shipped kernel and problems, so each
    catch above is the defect's."""
    assert not residual_catches(lambda p: p)
    assert not fails(acceptance.test_criterion_1_m1_reduction)
    assert not gradient_check_catches(lambda p: p, small_dataset)
