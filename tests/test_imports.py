"""The import graph: numpy loads only with :mod:`trirail.workspace`.

The direct and inverse solutions and the singularity classes are
closed-form, so every command but ``workspace`` runs on the standard
library alone, and the CLI parses its arguments with :mod:`argparse`.  The
value types are named tuples, so no command but ``workspace`` loads
:mod:`dataclasses` either.  Each case starts a fresh interpreter, because
this test process has numpy loaded already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trirail
from trirail import workspace

ROOT = Path(__file__).resolve().parent.parent

#: Runs the ``trirail`` commands given as a JSON list of argument lists in one
#: interpreter, then prints their exit codes and which heavy or unwanted
#: modules loaded.
CHILD = """\
import json, sys
import trirail, trirail.cli
trirail.params.load_params("configs/reference_params.json")
codes = []
for args in json.loads(sys.argv[1]):
    try:
        trirail.cli.main(args)
    except SystemExit as exc:
        codes.append(exc.code)
loaded = [m for m in ("numpy", "trirail.workspace", "click", "dataclasses")
          if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}), file=sys.stderr)
"""

WORKED_RAILS = ["162.6907", "-143.3209", "-24.6776"]
WORKED_POSE = ["-15.4714", "9.6849", "456.3315"]


def run_python(*args):
    """stderr of a fresh interpreter run with the package's source on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                      env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60, check=True).stderr


def run_child(commands):
    return json.loads(run_python("-c", CHILD, json.dumps(commands)).strip().splitlines()[-1])


def test_scalar_commands_never_load_numpy():
    result = run_child([
        ["fk", *WORKED_RAILS],
        ["topology"],
        ["--help"],
        ["fk", "1.0"],  # usage error: two rails missing
        ["--params", "no-such-file.json", "ik", *WORKED_POSE],  # config error
    ])
    assert result == {"codes": [0, 0, 0, 1, 1], "loaded": []}


def test_query_commands_load_neither_numpy_nor_dataclasses():
    result = run_child([["ik", *WORKED_POSE], ["verify"], ["sweep"]])
    assert result == {"codes": [0, 0, 0], "loaded": []}


def test_workspace_loads_numpy(tmp_path):
    result = run_child([["--out", str(tmp_path / "w.csv"), "workspace", "--bounds",
                         "-110", "90", "-250", "250", "180", "480", "--resolution", "2"]])
    assert result == {"codes": [0], "loaded": ["numpy", "trirail.workspace", "dataclasses"]}


def test_only_the_workspace_module_imports_numpy():
    importers = set()
    for path in (ROOT / "src" / "trirail").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"workspace.py"}


def test_verify_module_loads_neither_numpy_nor_dataclasses():
    stderr = run_python("-c", "import sys, trirail.cli, trirail.verify; "
                              "print([m in sys.modules for m in ('numpy', 'dataclasses')], "
                              "file=sys.stderr)")
    assert stderr.strip() == "[False, False]"


def test_scan_types_are_the_workspace_classes():
    assert trirail.ScanSpec is workspace.ScanSpec
    assert trirail.ScanResult is workspace.ScanResult


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from trirail import *", namespace)
    assert set(trirail.__all__) <= namespace.keys()


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="'trirail' has no attribute 'no_such_name'"):
        trirail.no_such_name


#: Functions that run a solver, the classifier or the scan kernel.  A test
#: module that calls one at import turns a solver fault into a collection error
#: of every module that imports it, where it should fail only the tests that use
#: the result.
SOLVER_CALLS = {"scan", "cross_section", "sample_point", "labelled", "label"}


def import_time_calls(tree) -> set[str]:
    """The last name of each call in ``tree`` that runs when its module is
    imported: every call outside function and lambda bodies."""
    calls = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # decorators and default values run at import; the body does not
            children = [*node.decorator_list, node.args]
        elif isinstance(node, ast.Lambda):
            children = [node.args]
        else:
            children = ast.iter_child_nodes(node)
            if isinstance(node, ast.Call):
                calls.add(ast.unparse(node.func).rsplit(".", 1)[-1])
        for child in children:
            visit(child)

    visit(tree)
    return calls


@pytest.mark.parametrize("path", sorted((ROOT / "tests").glob("test_*.py")),
                         ids=lambda path: path.name)
def test_no_solver_runs_at_test_import(path):
    calls = import_time_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert {call for call in calls if call in SOLVER_CALLS or call.startswith("solve")} == set()
