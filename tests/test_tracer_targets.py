"""The benchmark's tracer patches package functions at the module attributes
where their callers look them up.  An attribute that moves or is renamed
leaves the tracer silently blind to that layer, so each one must resolve."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
# run_path compiles the source in memory: nothing is written under bench/.
TARGETS = runpy.run_path(str(TRACER), run_name="bench_tracer")["TARGETS"]


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attr, _, _ in TARGETS],
    ids=[f"{module}.{attr}" for module, attr, _, _ in TARGETS],
)
def test_tracer_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
