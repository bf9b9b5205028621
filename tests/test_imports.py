"""The import graph: numpy loads only where a command scans or classifies.

The direct solution is closed-form, so ``trirail fk``, ``topology``,
``--help`` and every config or usage error run on ``math`` alone, and the
CLI parses its arguments with :mod:`argparse` alone.  The value types are
named tuples, so no command but ``workspace`` loads :mod:`dataclasses`.
Each case starts a fresh interpreter, because this test process has numpy
loaded already.
"""

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


def test_ik_loads_numpy_when_it_classifies():
    result = run_child([["ik", *WORKED_POSE]])
    assert result["codes"] == [0]
    assert "numpy" in result["loaded"]
    assert "trirail.workspace" not in result["loaded"]
    assert "click" not in result["loaded"]
    assert "dataclasses" not in result["loaded"]


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
