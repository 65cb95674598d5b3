"""The README's library example runs as written against the package, and
its CLI examples parse against the command's current flags."""

import contextlib
import io
import re
import shlex
from pathlib import Path

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
