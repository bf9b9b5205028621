import ast
import contextlib
import io
import random
from pathlib import Path
from typing import NamedTuple

import pytest

import trirail
from trirail.params import REFERENCE_PARAMS, JointInputs


def pytest_report_header(config):
    # pyproject.toml's pythonpath puts this checkout's src first, ahead of
    # PYTHONPATH, so name the tree under test
    return f"trirail imported from {Path(trirail.__file__).parent}"


@pytest.fixture
def params():
    return REFERENCE_PARAMS


def readers(module, name) -> set[str]:
    """The functions in ``module``'s source that read ``name``, as a variable
    or as an attribute (``fk.EPS_B``); ``"<module>"`` stands for a read outside
    every function.  A nested function's reads count for it and for every
    function around it."""
    found = set()

    def visit(node, scopes):
        if isinstance(node, ast.FunctionDef):
            scopes = (*scopes, node.name)
        if ((isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == name)):
            found.update(scopes or ("<module>",))
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(ast.parse(Path(module.__file__).read_text(encoding="utf-8")), ())
    return found


def random_feasible_inputs(rng: random.Random, p=REFERENCE_PARAMS) -> JointInputs:
    """Inputs with a closable planar loop and rail 3 within reach of y."""
    y_a1 = rng.uniform(-200.0, 200.0)
    magnitude = rng.uniform(10.0, 0.9 * 2.0 * p.l2)
    b_value = magnitude if rng.random() < 0.5 else -magnitude
    y_a2 = y_a1 - p.l3 - b_value
    y_mid = y_a1 - b_value / 2.0 - p.l3 / 2.0
    y_a3 = y_mid + rng.uniform(-0.9 * p.l6, 0.9 * p.l6)
    return JointInputs(y_a1, y_a2, y_a3)


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved as written
    exception: SystemExit | None  # set when exit_code is not 0


class _Tee(io.StringIO):
    """A stream that also copies what it is given into a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text):
        self.shared.write(text)
        return super().write(text)


class CliRunner:
    """Runs ``trirail.cli.main`` in process and captures its streams and exit."""

    def invoke(self, main, args) -> Result:
        output = io.StringIO()
        stdout, stderr = _Tee(output), _Tee(output)
        exception = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                main(list(args))
                exit_code = 0
            except SystemExit as exc:  # the CLI exits with an int code
                exit_code = exc.code or 0
                exception = exc if exit_code else None
        return Result(exit_code, stdout.getvalue(), stderr.getvalue(), output.getvalue(),
                      exception)
