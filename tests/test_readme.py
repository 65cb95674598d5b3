"""The README's library example runs as written against the package, its
CLI examples parse against the command's current flags, and the signatures
and dotted names it quotes are the package's own."""

import contextlib
import importlib
import inspect
import io
import re
import shlex
from pathlib import Path

from agghb import harness
from agghb.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    # f(x0) = (2^2 + 4 * 1^2) / 2 = 4; the theory stepsize makes progress
    assert 0.0 <= float(out.getvalue()) < 4.0
    # the value the example prints; weights of the wrong shape still broadcast
    # in ``step`` but end elsewhere (3.88 for a (gamma, gamma) tuple)
    assert abs(float(out.getvalue()) - 1.0663337929417849) <= 1e-12


def test_cli_examples_parse():
    # Parsed only, never run: a renamed or removed flag fails here.
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    commands = [
        shlex.split(line)[1:] for block in blocks for line in block.splitlines()
        if line.startswith("agghb ")
    ]
    assert commands
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def _package_functions():
    functions = {}
    for module in ("optim", "theory", "problems", "libsvm", "harness", "cli"):
        mod = importlib.import_module(f"agghb.{module}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                assert name not in functions, name
                functions[name] = obj
    return functions


def test_call_signatures_list_the_parameters():
    # A backticked call such as `step(x, V, grad, betas, weights)` that names
    # a package function lists that function's parameters, in order.
    functions = _package_functions()
    checked = set()
    for name, args in re.findall(r"`(\w+)\(([^`()]*)\)`", README.read_text()):
        if name in functions:
            given = [arg.split("=")[0].strip() for arg in args.split(",")]
            assert given == list(inspect.signature(functions[name]).parameters), name
            checked.add(name)
    assert checked >= {"init", "step", "virtual_iterate", "bound_nonconvex",
                       "bound_convex", "check_nonconvex_condition",
                       "check_convex_conditions", "to_dataset", "feature_count"}


def test_dotted_names_resolve():
    names = set(re.findall(r"`(agghb(?:\.\w+)+)`", README.read_text()))
    assert "agghb.harness.PROBLEM_PARAMS" in names
    for dotted in names:
        parts = dotted.split(".")
        obj = importlib.import_module(parts[0])
        for depth, part in enumerate(parts[1:], start=2):
            if hasattr(obj, part):
                obj = getattr(obj, part)
            else:
                obj = importlib.import_module(".".join(parts[:depth]))


def test_trace_header_is_the_package_header():
    section = README.read_text().split("### Trace files", 1)[1].split("\n## ", 1)[0]
    header = re.search(r"header `([^`]*)`", section)[1]
    assert header == harness.CSV_HEADER
