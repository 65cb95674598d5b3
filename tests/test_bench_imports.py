"""Every package name the benchmark imports must resolve.

The benchmark scripts under ``bench/`` are read as source with ``ast``,
never imported or run, so nothing is written there.  A package change that
removes or renames a name they import would otherwise first show as a
failing benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def package_imports():
    """(script, module, name) for each ``from agghb... import name`` and
    (script, module, None) for each ``import agghb...`` in ``bench/*.py``."""
    found = []
    for script in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(), filename=str(script))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "agghb" or node.module.startswith("agghb.")
            ):
                found += [(script.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (script.name, a.name, None) for a in node.names
                    if a.name == "agghb" or a.name.startswith("agghb.")
                ]
    return found


IMPORTS = package_imports()


def test_benchmark_imports_from_the_package():
    # checks.py drives the run/export/read cycle through these names
    assert {("checks.py", "agghb.harness", name) for name in (
        "RunConfig", "build_problem", "export_trace", "read_trace", "run",
    )} <= set(IMPORTS)


@pytest.mark.parametrize(
    "script, module, name", IMPORTS,
    ids=[f"{s}:{m}" + (f".{n}" if n else "") for s, m, n in IMPORTS],
)
def test_benchmark_import_resolves(script, module, name):
    mod = importlib.import_module(module)
    if name is not None:
        assert hasattr(mod, name), f"{script} imports {name!r} from {module}"
