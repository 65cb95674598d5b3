"""The benchmark's tracer patches package functions at the module attributes
where their callers look them up.  An attribute that moves or is renamed
leaves the tracer silently blind to that layer, so each one must resolve.
It also rebuilds every built ``Problem`` with wrapped objectives, which
must keep working."""

import dataclasses
import importlib
import runpy
from pathlib import Path

import numpy as np
import pytest

from agghb.harness import build_problem

from conftest import synthetic_libsvm_text

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
# run_path compiles the source in memory: nothing is written under bench/.
TARGETS = runpy.run_path(str(TRACER), run_name="bench_tracer")["TARGETS"]


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attr, _, _ in TARGETS],
    ids=[f"{module}.{attr}" for module, attr, _, _ in TARGETS],
)
def test_tracer_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("name", ["quadratic", "rosenbrock", "logreg-l2", "logreg-ncvx"])
def test_built_problem_takes_tracer_wrappers(tmp_path, name):
    """The tracer swaps each built problem's ``value`` and ``gradient`` for
    timed wrappers with ``dataclasses.replace``, and the benchmark's
    heavy-ball oracle calls both on single points, so both must stay
    dataclass fields that map x (dim,) to a scalar and a (dim,) array."""
    params = {}
    if name.startswith("logreg"):
        path = tmp_path / "small.libsvm"
        path.write_text(synthetic_libsvm_text(M=40, n=6, seed=11))
        own = {"logreg-l2": {"l2": 1e-3}, "logreg-ncvx": {"lambda": 1e-2}}[name]
        params = {"data": str(path), **own}
    problem = build_problem(name, params)
    assert dataclasses.is_dataclass(problem)

    calls = []

    def wrap(field):
        fn = getattr(problem, field)

        def traced(x):
            calls.append(field)
            return fn(x)
        return traced

    traced = dataclasses.replace(problem, value=wrap("value"), gradient=wrap("gradient"))
    x = np.full(problem.dim, 0.5)
    f, g = traced.value(x), traced.gradient(x)
    assert np.ndim(f) == 0 and np.isfinite(f)
    assert g.shape == (problem.dim,) and np.all(np.isfinite(g))
    assert calls == ["value", "gradient"]
