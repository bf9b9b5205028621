import ast
import hashlib
import json
import math
from pathlib import Path

import pytest

from conftest import SPACER_PARAMS, CliRunner
from trirail import cli, fk, ik, jacobian, verify, workspace
from trirail.cli import main
from trirail.errors import (
    GammaOutOfRange,
    IndeterminateGamma,
    InvalidAkc,
    InvalidParameter,
    NonComparable,
    OutOfRange,
    TrirailError,
)
from trirail.params import PARAM_KEYS, REFERENCE_PARAMS

REFERENCE_VALUES = {key: getattr(REFERENCE_PARAMS, key) for key in PARAM_KEYS}

# The commands that replaced the former experiment scripts, keyed by script.
EXPERIMENTS = {
    "scan_workspace.py": ["workspace", "--bounds", "-110", "90", "-250", "250", "180", "480",
                          "--resolution", "2"],
    "singularity_sweep.py": ["sweep"],
}


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, values, name="geometry.json"):
    path = tmp_path / name
    path.write_text(json.dumps(values))
    return str(path)


@pytest.mark.parametrize("command", [
    ["fk", "162.6907", "-143.3209", "-24.6776"],
    ["ik", "-15.4714", "9.6849", "456.3315"],
    ["workspace", "--bounds", "-110", "90", "-250", "250", "180", "480", "--resolution", "3"],
])
def test_overflowing_geometry_is_config_error(runner, tmp_path, command):
    config = write_config(tmp_path, dict(REFERENCE_VALUES, l2=1e200))
    out = tmp_path / "w.csv"
    result = runner.invoke(main, ["--params", config, "--out", str(out), *command])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: l2" in result.output
    assert result.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("option", ["--tol-closure", "--singularity-threshold", "--tol-table"])
def test_tolerances_must_be_finite_and_positive(runner, option, value):
    result = runner.invoke(main, [option, value, "ik", "-15.4714", "9.6849", "456.3315"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: {option} must be finite and > 0" in result.output
    assert result.stdout == ""


def test_output_schema_outlives_the_result_types(runner):
    ik_lines = runner.invoke(
        main, ["--format", "csv", "ik", "-15.4714", "9.6849", "456.3315"]
    ).stdout.splitlines()
    header = ik_lines[0].split(",")
    assert header[8:11] == ["M1", "M2", "M3"]
    assert len(ik_lines) == 9
    for line in ik_lines[1:]:
        row = line.split(",")
        assert row[9] == row[8]
    fk_payload = json.loads(runner.invoke(
        main, ["--format", "json", "fk", "162.6907", "-143.3209", "-24.6776"]
    ).stdout)
    for record in fk_payload["solutions"]:
        assert all(isinstance(record[key], float) for key in ("gamma", "alpha", "beta", "t"))


def test_number_shaped_arguments_are_values(runner, tmp_path):
    fk_result = runner.invoke(main, ["fk", "1", "-2", "-3e2"])
    assert fk_result.exit_code == 2
    assert fk_result.stdout.startswith("direct solutions for yA = (1, -2, -300) mm")
    ik_result = runner.invoke(main, ["ik", "-1e1", "9.6849", "456.3315"])
    assert ik_result.exit_code == 0
    assert ik_result.stdout.startswith("inverse solutions for O' = (-10, 9.6849, 456.332) mm")
    result = runner.invoke(main, ["ik", "-inf", "0", "300"])
    assert result.exit_code == 1
    assert result.stderr == "error: x: must be finite, got -inf\n"
    result = runner.invoke(main, ["fk", "-nan", "0", "0"])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: yA1: ")
    out = tmp_path / "scan.csv"
    result = runner.invoke(main, ["--out", str(out), "workspace",
                                  "--bounds", "-1.1e2", "90", "-2.5e2", "250", "180", "480",
                                  "--resolution", "2"])
    assert result.exit_code == 0
    assert out.read_text().splitlines()[1].startswith("-110.0,-250.0,180.0,")


VALID_CALLS = {
    "fk": ["fk", "1", "2", "3"],
    "ik": ["ik", "-15.4714", "9.6849", "456.3315"],
    "workspace": ["workspace", "--bounds", "-110", "90", "-250", "250", "180", "480",
                  "--resolution", "2"],
    "verify": ["verify"],
    "sweep": ["sweep"],
    "topology": ["topology"],
}
# (arguments, the name the usage error must give) beyond the unknown-option,
# angle-unit and format errors that every command gets
USAGE_ERRORS = {
    "fk": [(["fk", "1"], "yA2"), (["fk", "1", "two", "3"], "yA2")],
    "ik": [(["ik", "1", "2"], "z"), (["ik", "x", "2", "3"], "x")],
    "workspace": [(["workspace"], "--bounds"),
                  (["workspace", "--bounds", "-110", "90"], "--bounds"),
                  ([*VALID_CALLS["workspace"], "--resolution", "fine"], "--resolution"),
                  ([*VALID_CALLS["workspace"], "--workers", "0"], "--workers")],
    "verify": [],
    "sweep": [],
    "topology": [(["topology", "--loops"], "--loops")],
}


def assert_usage_error(runner, tmp_path, args, name):
    result = runner.invoke(main, ["--out", str(tmp_path / "report"), *args])
    assert result.exit_code == 1, args
    assert result.stdout == "", args
    assert name.lower() in result.stderr.lower(), (args, result.stderr)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", list(VALID_CALLS))
def test_usage_errors_exit_1_naming_the_argument(runner, tmp_path, command):
    call = VALID_CALLS[command]
    for args, name in [*USAGE_ERRORS[command],
                       ([*call, "--bogus"], "--bogus"),
                       (["--angle-unit", "grad", *call], "--angle-unit"),
                       (["--format", "bogus", *call], "--format")]:
        assert_usage_error(runner, tmp_path, args, name)


@pytest.mark.parametrize("args, name", [([], "command"), (["bogus", "1"], "bogus")],
                         ids=["no-command", "unknown-command"])
def test_missing_or_unknown_command_exits_1(runner, tmp_path, args, name):
    assert_usage_error(runner, tmp_path, args, name)


@pytest.mark.parametrize("content", [b'{"a": "\xff"}', b"[" * 100000],
                         ids=["not-utf8", "deeply-nested"])
def test_undecodable_params_file_is_config_error(runner, tmp_path, content):
    config = tmp_path / "geometry.json"
    config.write_bytes(content)
    result = runner.invoke(main, ["--params", str(config), "fk", "0", "0", "0"])
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: <file>: {config}: ")
    assert result.stdout == ""


DEEP_LIST = "[" * 900 + "]" * 900
DEEP_DICT = '{"k": ' * 300 + "0" + "}" * 300
#: a JSON integer past the interpreter's default limit of 4300 digits for int()
LONG_INT = "1" * 5000


@pytest.mark.parametrize("value, key, reason", [
    (DEEP_LIST, "a", "must be a real number, got [[[["),
    ("1" + "0" * 400, "b", "must be finite, got 1000"),  # an int past the float range
    (LONG_INT, "l2", "must be finite, got 1111"),
    ("-" + LONG_INT, "l7", "must be finite, got -1111"),
], ids=["deep-list", "huge-int", "long-int", "long-negative-int"])
def test_params_error_echoes_a_clipped_value(runner, tmp_path, value, key, reason):
    config = tmp_path / "geometry.json"
    config.write_text(json.dumps(REFERENCE_VALUES).replace(f'"{key}": {REFERENCE_VALUES[key]}',
                                                           f'"{key}": {value}'))
    result = runner.invoke(main, ["--params", str(config), "fk", "0", "0", "0"])
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: {key}: {reason}")
    assert result.stderr.endswith("...\n") and result.stderr.count("\n") == 1
    assert len(result.stderr) < 200
    assert result.stdout == ""


# Where each command is made to fail: an entry point it calls outside any
# handler of its own.  topology is not here: its every package error passes
# through its "loop specification:" handler.
ENTRY_POINTS = {
    "fk": (fk, "solve"),
    "ik": (ik, "solve"),
    "workspace": (workspace, "scan"),
    "verify": (verify, "run_builtin_checks"),
    "sweep": (verify, "rail_spacing_sweep"),
}


@pytest.mark.parametrize("error, code", [
    pytest.param(IndeterminateGamma("yA1 - l3 - yA2 = 0 mm"), 3, id="IndeterminateGamma"),
    pytest.param(InvalidParameter("l2", "must be > 0, got 0.0"), 1, id="InvalidParameter"),
    pytest.param(InvalidAkc("constraint degrees (1,) sum to 1, expected 0"), 1, id="InvalidAkc"),
    pytest.param(OutOfRange("z = 90 outside scan range [180, 480]"), 1, id="OutOfRange"),
    pytest.param(OSError("writing report: no space left"), 1, id="OSError"),
    pytest.param(GammaOutOfRange("|yA1 - l3 - yA2| = 860 mm"), 2, id="GammaOutOfRange"),
    pytest.param(NonComparable("tracked branch vanished"), 2, id="NonComparable"),
    pytest.param(TrirailError("no solutions to match against"), 2, id="TrirailError"),
])
@pytest.mark.parametrize("command", list(ENTRY_POINTS))
def test_an_error_let_through_exits_by_the_one_table(runner, tmp_path, monkeypatch,
                                                     command, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(*ENTRY_POINTS[command], fail)
    # only workspace needs --out; the others would print their report
    out = ["--out", str(tmp_path / "scan.csv")] if command == "workspace" else []
    result = runner.invoke(main, [*out, *VALID_CALLS[command]])
    assert result.exit_code == code
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: {error}\n"
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_only_main_exits():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    exiting = {function.name for function in functions for node in ast.walk(function)
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.exit"
               or isinstance(node, ast.Raise) and node.exc is not None
               and "SystemExit" in ast.unparse(node.exc)}
    commands = {function.name for function in functions if function.name.startswith("cmd_")}
    assert len(commands) == 6
    assert exiting == {"main"}


def test_only_the_renderer_writes_reports():
    # a command builds its records; it neither dumps JSON nor writes the report itself
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    writers = {function.name for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef) for node in ast.walk(function)
               if isinstance(node, ast.Call) and ast.unparse(node.func) in ("json.dumps", "_emit")}
    assert writers == {"_report"}


WORKED_FK = ["fk", "162.6907", "-143.3209", "-24.6776"]
WORKED_IK = ["ik", "-15.4714", "9.6849", "456.3315"]
# The SHA-256 of each invocation's report: its stdout, or its file where the
# arguments give "--out" (stdout is then empty), with the exit code.  An
# intended change of the output must update these and say why.
OUTPUT_DIGESTS = {
    "fk-text-rad": (WORKED_FK, 0, "734985ec07a52996ee4ac359d97308705e7fa4f88cd5d463ca4aebbdaebf8403"),
    "ik-text-rad": (WORKED_IK, 0, "01852039a2e42b2d7a40d5780b66bb6419798a352f0a4723d5251660e3c5d221"),
    "fk-text-deg": (["--angle-unit", "deg", *WORKED_FK], 0,
                    "981eb2d75f919546008bd25b5480a257bb6c5b465245ac4186a793e997a561f3"),
    "ik-text-deg": (["--angle-unit", "deg", *WORKED_IK], 0,
                    "25c643091455b3aee59e4046676a9e06a98b7c94f3c83e3529fd74b4b2b98900"),
    "fk-json-rad": (["--format", "json", *WORKED_FK], 0,
                    "24962faa4d34c06295bcc4bd6e9126da487b917c4fd4427d1658c3716bb9d2fa"),
    "ik-json-rad": (["--format", "json", *WORKED_IK], 0,
                    "b6e394fc5f59955d24fe7bc81c5f4d955afdbeef50ee2e48efb42c95c5219da5"),
    "fk-json-deg": (["--format", "json", "--angle-unit", "deg", *WORKED_FK], 0,
                    "1b655bae37fdd039f7142b36ceebd0da170e91c5c5fe372b1c5f6ab793cbfcb4"),
    "ik-json-deg": (["--format", "json", "--angle-unit", "deg", *WORKED_IK], 0,
                    "5755183ef82a96b57aedda1d9db97227810fc4bbe7fdbb53ceee5753845150eb"),
    "fk-csv-rad": (["--format", "csv", *WORKED_FK], 0,
                   "dfaedcf0c0350c5b9bd5cb1d358a1f6f1442634df52d26a6fc441295c4977119"),
    "ik-csv-rad": (["--format", "csv", *WORKED_IK], 0,
                   "62a62516b05c0350317bc54dce068feb8c12fb4f778ff62f562ba14450d2b5bb"),
    "fk-csv-deg": (["--format", "csv", "--angle-unit", "deg", *WORKED_FK], 0,
                   "4a2bba4e5aa89b157abe7a61526a47cf4619444b24a21fc3b49b13f1c6ad4fc5"),
    "ik-csv-deg": (["--format", "csv", "--angle-unit", "deg", *WORKED_IK], 0,
                   "314c5ab71422f9dc4045d129a2eafb150953782b41a50a5dd753b7d9721a9bdd"),
    "verify-text": (["verify"], 0,
                    "23e33b8ca469ee134627871ed91e4bddcc5ac26f0d18d893588eaa6cb37527c9"),
    "verify-json": (["--format", "json", "verify"], 0,
                    "7bb117371b566f11305e2b2deea4c9f97b939cffe69b7fc5bc416c6d65e6a253"),
    "verify-csv": (["--format", "csv", "verify"], 0,
                   "23e33b8ca469ee134627871ed91e4bddcc5ac26f0d18d893588eaa6cb37527c9"),
    "sweep-text": (["sweep"], 0, "6c91a36567c39a4a5d4c19fafcae0fd12b4967681875e8ee0a21efc8a70ba35f"),
    "sweep-json": (["--format", "json", "sweep"], 0,
                   "d7f3f518441bb56ec564debb6e9d9284912d1a55d86416ce0a03049fc497d75f"),
    "sweep-csv": (["--format", "csv", "sweep"], 0,
                  "6c91a36567c39a4a5d4c19fafcae0fd12b4967681875e8ee0a21efc8a70ba35f"),
    "topology-text": (["topology"], 0,
                      "4fc008a2480ce60aec0f814ee8c48a8920050b0cbe21d612548fe1abaede4519"),
    "topology-json": (["--format", "json", "topology"], 0,
                      "29ffae9b2e2b9020a751dec467ac71d1bd5a6b2694506b10776c8efd876914d0"),
    "topology-csv": (["--format", "csv", "topology"], 0,
                     "4fc008a2480ce60aec0f814ee8c48a8920050b0cbe21d612548fe1abaede4519"),
    # empty tables: the rails are out of reach, or every radicand is negative
    "fk-empty-text": (["fk", "0", "-150", "500"], 2,
                      "392dad25a071efcbdbc35f0105ecd3280305fe774a2e938c160fd5fc8285944f"),
    "ik-empty-text": (["ik", "0", "0", "1000"], 2,
                      "a268f319f15d274cb6ea8e8bcb3ec1e62d4483f8a05c62af916cdb881eb175d4"),
    "fk-empty-json": (["--format", "json", "fk", "0", "-150", "500"], 2,
                      "fc7f289f903b1fcd3a36f6ccb3f91a17def58f16b5bd8a9cf1e79b3aa14c3cab"),
    "ik-empty-json": (["--format", "json", "ik", "0", "0", "1000"], 2,
                      "07f2b02ece7c50adeee99bf28376175fe3650ab7b21489a7cc3ba7865245654f"),
    "fk-empty-csv": (["--format", "csv", "fk", "0", "-150", "500"], 2,
                     "96d56cf8bac52d74e2229cc5d186e34bc6ed4b9aa2ec7c0f048d094b6df9e602"),
    "ik-empty-csv": (["--format", "csv", "ik", "0", "0", "1000"], 2,
                     "7d8ba118d5599ad7e1487afa41efa15692e9048df6f8127b1b3dc467085ea6b1"),
    # every branch folds at x = 80
    "ik-fold-text": (["ik", "80", "0", "300"], 0,
                     "f4d62449d7f5d40946f78f0e3cb7f03e1e6ed92b4062835372ded1e48958541e"),
    "ik-fold-json": (["--format", "json", "ik", "80", "0", "300"], 0,
                     "ec2f4dd53cd5227af0ef3a8f32ed657754c1defb3a14ddc42a4b1d6f2ed3362e"),
    # no round trip finds a direct solution: an infinite residual
    "ik-failed-csv": (["--format", "csv", "ik", "0", "1e17", "300"], 0,
                      "546b2622ead03a36ecafe988fee188fee488c711d9ebe64ff78e96822d1cbe1d"),
    "ik-failed-json": (["--format", "json", "ik", "0", "1e17", "300"], 0,
                       "12728205fbd505ef460b3088bd1ee24e63b1a5cf716a5ca2a0ec4be552e157ad"),
    "fk-json-out": (["--out", "--format", "json", *WORKED_FK], 0,
                    "24962faa4d34c06295bcc4bd6e9126da487b917c4fd4427d1658c3716bb9d2fa"),
    "ik-csv-deg-out": (["--out", "--format", "csv", "--angle-unit", "deg", *WORKED_IK], 0,
                       "314c5ab71422f9dc4045d129a2eafb150953782b41a50a5dd753b7d9721a9bdd"),
    "verify-text-out": (["--out", "verify"], 0,
                        "23e33b8ca469ee134627871ed91e4bddcc5ac26f0d18d893588eaa6cb37527c9"),
    "sweep-csv-out": (["--out", "--format", "csv", "sweep"], 0,
                      "6c91a36567c39a4a5d4c19fafcae0fd12b4967681875e8ee0a21efc8a70ba35f"),
    "topology-json-out": (["--out", "--format", "json", "topology"], 0,
                          "29ffae9b2e2b9020a751dec467ac71d1bd5a6b2694506b10776c8efd876914d0"),
}


@pytest.mark.parametrize("args, code, digest", list(OUTPUT_DIGESTS.values()),
                         ids=list(OUTPUT_DIGESTS))
def test_output_digests(runner, tmp_path, args, code, digest):
    report = tmp_path / "report"
    to_file = args[0] == "--out"
    if to_file:
        args = ["--out", str(report), *args[1:]]
    result = runner.invoke(main, args)
    assert result.exit_code == code
    assert report.exists() == to_file
    output = report.read_bytes() if to_file else result.stdout.encode()
    assert hashlib.sha256(output).hexdigest() == digest
    assert result.stdout == "" or not to_file


@pytest.mark.parametrize("command", ["verify", "sweep", "topology"])
def test_csv_falls_back_to_text(runner, tmp_path, command):
    out = tmp_path / "report.txt"
    result = runner.invoke(main, ["--format", "csv", "--out", str(out), command])
    assert result.exit_code == 0
    assert result.stdout == ""
    assert out.read_text() == runner.invoke(main, [command]).stdout


class TestFk:
    def test_worked_example_text(self, runner):
        result = runner.invoke(main, ["fk", "162.6907", "-143.3209", "-24.6776"])
        assert result.exit_code == 0
        assert "-15.4714" in result.output and "456.3315" in result.output

    def test_worked_example_json_precision(self, runner):
        result = runner.invoke(
            main, ["--format", "json", "fk", "162.6907", "-143.3209", "-24.6776"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["count"] == 4
        starred = min(payload["solutions"], key=lambda s: abs(s["z"] - 456.3315))
        assert abs(starred["x"] + 15.4714) <= 5e-3
        # full double precision in machine output (>= 10 significant digits)
        assert f"{starred['x']!r}" in result.output

    def test_csv_format(self, runner):
        result = runner.invoke(
            main, ["--format", "csv", "fk", "162.6907", "-143.3209", "-24.6776"]
        )
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0].startswith("x,y,z,")
        assert len(lines) == 5

    def test_explicit_params_file(self, runner, tmp_path):
        config = write_config(tmp_path, REFERENCE_VALUES)
        result = runner.invoke(
            main, ["--params", config, "fk", "162.6907", "-143.3209", "-24.6776"]
        )
        assert result.exit_code == 0

    def test_missing_key_names_it(self, runner, tmp_path):
        values = dict(REFERENCE_VALUES)
        del values["l6"]
        config = write_config(tmp_path, values)
        result = runner.invoke(main, ["--params", config, "fk", "0", "0", "0"])
        assert result.exit_code == 1
        assert "l6" in result.output

    def test_unknown_key_names_it(self, runner, tmp_path):
        config = write_config(tmp_path, dict(REFERENCE_VALUES, length="x"))
        result = runner.invoke(main, ["--params", config, "fk", "0", "0", "0"])
        assert result.exit_code == 1
        assert "length" in result.output

    def test_nonexistent_params_file(self, runner):
        result = runner.invoke(main, ["--params", "/no/such/file.json", "fk", "0", "0", "0"])
        assert result.exit_code == 1

    def test_singular_input_exit_code(self, runner):
        result = runner.invoke(main, ["fk", "100", "-40", "0"])
        assert result.exit_code == 3

    def test_unparseable_arguments_are_config_errors(self, runner):
        assert runner.invoke(main, ["fk", "abc", "def", "ghi"]).exit_code == 1
        assert runner.invoke(main, ["fk", "1", "2"]).exit_code == 1
        assert runner.invoke(main, ["--format", "bogus", "fk", "1", "2", "3"]).exit_code == 1

    def test_out_of_reach_exit_code(self, runner):
        result = runner.invoke(main, ["fk", "0", "-150", "500"])
        assert result.exit_code == 2

    def test_non_finite_input_is_config_error(self, runner):
        result = runner.invoke(main, ["fk", "nan", "0", "0"])
        assert result.exit_code == 1
        assert "error: yA1" in result.output

    def test_degree_rendering(self, runner):
        rad = json.loads(runner.invoke(
            main, ["--format", "json", "fk", "162.6907", "-143.3209", "-24.6776"]
        ).output)
        deg = json.loads(runner.invoke(
            main, ["--format", "json", "--angle-unit", "deg",
                   "fk", "162.6907", "-143.3209", "-24.6776"]
        ).output)
        for r, d in zip(rad["solutions"], deg["solutions"]):
            assert d["gamma"] == pytest.approx(math.degrees(r["gamma"]), rel=1e-12)
            assert d["alpha"] == pytest.approx(math.degrees(r["alpha"]), rel=1e-12)
            assert d["angle_unit"] == "deg"


class TestIk:
    def test_worked_example(self, runner):
        result = runner.invoke(
            main, ["--format", "json", "ik", "-15.4714", "9.6849", "456.3315"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["count"] == 8
        best = min(
            max(abs(s["yA1"] - 162.6909), abs(s["yA2"] + 143.3211), abs(s["yA3"] + 24.6778))
            for s in payload["solutions"]
        )
        assert best <= 5e-2
        routes = [s["roundtrip"] for s in payload["solutions"]]
        assert routes.count("direct") == 4 and routes.count("singular-family") == 4
        assert all(s["roundtrip_residual"] <= 1e-6 for s in payload["solutions"])

    def test_per_branch_singularity_classes(self, runner):
        payload = json.loads(runner.invoke(
            main, ["--format", "json", "ik", "-15.4714", "9.6849", "456.3315"]
        ).stdout)
        for record in payload["solutions"]:
            expected = "parallel" if record["parallel_singular"] else "regular"
            assert record["singularity"]["class"] == expected

    def test_failed_roundtrip_residual_is_null_in_strict_json(self, runner):
        # rails near 1e17 mm: no round trip finds a direct solution, and the
        # residual stays infinite
        args = ["ik", "0", "1e17", "300"]
        result = runner.invoke(main, ["--format", "json", *args])
        assert result.exit_code == 0

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        payload = json.loads(result.stdout, parse_constant=reject)
        assert payload["count"] == 8
        assert all(s["roundtrip"] == "failed" and s["roundtrip_residual"] is None
                   for s in payload["solutions"])
        csv = runner.invoke(main, ["--format", "csv", *args])
        assert csv.exit_code == 0
        rows = csv.stdout.splitlines()[1:]
        assert len(rows) == 8 and all(row.endswith(",failed,inf") for row in rows)

    def test_unreachable_reports_arccos_domain(self, runner):
        result = runner.invoke(main, ["ik", "200", "0", "300"])
        assert result.exit_code == 2
        assert "arccos domain" in result.output

    @pytest.mark.parametrize("pose, name", [(("nan", "0", "300"), "x"), (("0", "0", "inf"), "z")])
    def test_non_finite_pose_is_config_error(self, runner, pose, name):
        result = runner.invoke(main, ["ik", *pose])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: {name}" in result.output

    def test_roundtrip_composition(self, runner):
        ik_payload = json.loads(runner.invoke(
            main, ["--format", "json", "ik", "-15.4714", "9.6849", "456.3315"]
        ).output)
        chosen = ik_payload["solutions"][4]
        fk_payload = json.loads(runner.invoke(
            main, ["--format", "json", "fk", repr(chosen["yA1"]),
                   repr(chosen["yA2"]), repr(chosen["yA3"])]
        ).output)
        assert any(
            abs(s["x"] + 15.4714) < 1e-3 and abs(s["z"] - 456.3315) < 1e-3
            for s in fk_payload["solutions"]
        )


class TestWorkspace:
    BOUNDS = ["--bounds", "-110", "90", "-250", "250", "180", "480"]

    def test_scan_writes_expected_rows(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        result = runner.invoke(
            main, ["--out", str(out), "workspace", *self.BOUNDS, "--resolution", "5"]
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5 ** 3 + 1
        assert "feasible:" in result.output

    def test_repeat_runs_byte_identical(self, runner, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["workspace", *self.BOUNDS, "--resolution", "5"]
        assert runner.invoke(main, ["--out", str(out_a), *args]).exit_code == 0
        assert runner.invoke(main, ["--out", str(out_b), *args]).exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_inverted_bounds_rejected(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "--out", str(out), "workspace",
            "--bounds", "90", "-110", "-250", "250", "180", "480",
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: x_range" in result.output
        assert not out.exists()

    def test_missing_out_rejected(self, runner):
        result = runner.invoke(main, ["workspace", *self.BOUNDS])
        assert result.exit_code == 1

    def test_cross_section(self, runner, tmp_path):
        out = tmp_path / "slice.csv"
        result = runner.invoke(main, [
            "--out", str(out), "workspace", *self.BOUNDS,
            "--resolution", "5", "--section", "z", "300",
        ])
        assert result.exit_code == 0
        assert len(out.read_text().splitlines()) == 5 ** 2 + 1

    def test_cross_section_out_of_range(self, runner, tmp_path):
        result = runner.invoke(main, [
            "--out", str(tmp_path / "s.csv"), "workspace", *self.BOUNDS,
            "--resolution", "5", "--section", "z", "90",
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: z = 90 outside scan range" in result.output
        assert result.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_workers_is_an_accepted_no_op(self, runner, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["workspace", *self.BOUNDS, "--resolution", "3"]
        assert runner.invoke(main, ["--out", str(out_a), *args]).exit_code == 0
        assert runner.invoke(main, ["--out", str(out_b), *args, "--workers", "2"]).exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_rejected(self, runner, tmp_path, workers):
        out = tmp_path / "scan.csv"
        result = runner.invoke(main, [
            "--out", str(out), "workspace", *self.BOUNDS, "--resolution", "3",
            "--workers", workers,
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "--workers" in result.output
        assert not out.exists()

    def test_unwritable_out_is_config_error(self, runner, tmp_path):
        out = tmp_path / "missing" / "scan.csv"
        result = runner.invoke(main, ["--out", str(out), "workspace", *self.BOUNDS,
                                      "--resolution", "2"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: writing {out}" in result.output
        assert result.stdout == ""

    @pytest.mark.parametrize("section", [[], ["--section", "z", "300"]], ids=["box", "section"])
    def test_unwritable_out_fails_before_the_scan(self, runner, tmp_path, monkeypatch, section):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before checking --out")

        monkeypatch.setattr(workspace, "scan", no_scan)
        monkeypatch.setattr(workspace, "cross_section", no_scan)
        out = tmp_path / "missing" / "scan.csv"
        result = runner.invoke(main, ["--out", str(out), "workspace", *self.BOUNDS,
                                      "--resolution", "101", *section])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: writing {out}" in result.output
        assert result.stdout == ""

    # The tests named after scan_workspace.py and singularity_sweep.py pinned
    # how those experiment scripts failed. The scripts are gone; the tests
    # keep their names and run the commands that replaced them: the README's
    # box scan and per-height section loop, and `trirail sweep`.

    def test_scan_script_rejects_workers_below_one(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        result = runner.invoke(main, ["--out", str(out), *EXPERIMENTS["scan_workspace.py"],
                                      "--workers", "0"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "--workers" in result.stderr
        assert result.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("script", list(EXPERIMENTS))
    def test_script_rejects_invalid_geometry(self, runner, tmp_path, script):
        config = write_config(tmp_path, dict(REFERENCE_VALUES, l2=1e200))
        out = tmp_path / "scan.csv"
        result = runner.invoke(main, ["--params", config, "--out", str(out),
                                      *EXPERIMENTS[script]])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: l2" in result.stderr
        assert result.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    @pytest.mark.parametrize("script", list(EXPERIMENTS))
    def test_script_rejects_invalid_threshold(self, runner, tmp_path, script, value):
        out = tmp_path / "scan.csv"
        result = runner.invoke(main, ["--singularity-threshold", value, "--out", str(out),
                                      *EXPERIMENTS[script]])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: --singularity-threshold must be finite and > 0" in result.stderr
        assert result.stdout == ""
        assert not out.exists()

    def test_scan_script_reports_unwritable_out(self, runner, tmp_path):
        # every call of the box-plus-sections recipe names its own missing output
        for name, section in (("scan.csv", []), ("scan_z240.csv", ["--section", "z", "240"]),
                              ("scan_z300.csv", ["--section", "z", "300"])):
            out = tmp_path / "missing" / name
            result = runner.invoke(main, ["--out", str(out), *EXPERIMENTS["scan_workspace.py"],
                                          *section])
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)
            assert f"error: writing {out}" in result.stderr
            assert result.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_scan_script_reports_unwritable_section(self, runner, tmp_path):
        box, section = tmp_path / "scan.csv", tmp_path / "scan_z300.csv"
        section.mkdir()
        assert runner.invoke(main, ["--out", str(box),
                                    *EXPERIMENTS["scan_workspace.py"]]).exit_code == 0
        result = runner.invoke(main, ["--out", str(section), *EXPERIMENTS["scan_workspace.py"],
                                      "--section", "z", "300"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: writing {section}" in result.stderr
        assert result.stdout == ""
        assert len(box.read_text().splitlines()) == 2 ** 3 + 1
        assert list(section.iterdir()) == []

    @pytest.mark.parametrize("unwritable", ["out", "section"])
    def test_scan_script_fails_before_the_scan(self, runner, tmp_path, monkeypatch, unwritable):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before checking the output")

        monkeypatch.setattr(workspace, "scan", no_scan)
        monkeypatch.setattr(workspace, "cross_section", no_scan)
        if unwritable == "out":
            out, section = tmp_path / "missing" / "scan.csv", []
        else:
            out, section = tmp_path / "scan_z300.csv", ["--section", "z", "300"]
            out.mkdir()
        result = runner.invoke(main, ["--out", str(out), "workspace", *self.BOUNDS,
                                      "--resolution", "101", *section])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: writing {out}" in result.stderr
        assert result.stdout == ""
        assert list(tmp_path.iterdir()) == ([] if unwritable == "out" else [out])
        assert unwritable == "out" or list(out.iterdir()) == []

    def test_scan_script_rejects_inverted_bounds(self, runner, tmp_path):
        out = tmp_path / "scan.csv"
        result = runner.invoke(main, ["--out", str(out), "workspace",
                                      "--bounds", "1", "0", "0", "1", "0", "1",
                                      "--resolution", "2"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: x_range" in result.stderr
        assert result.stdout == ""
        assert not out.exists()

    def test_scan_script_rejects_section_out_of_range(self, runner, tmp_path):
        # the section loop runs one call per height: z = 300 writes its file,
        # z = 90 fails on its own and writes nothing
        results = {z: runner.invoke(main, ["--out", str(tmp_path / f"scan_z{z}.csv"),
                                           *EXPERIMENTS["scan_workspace.py"],
                                           "--section", "z", z])
                   for z in ("300", "90")}
        assert results["300"].exit_code == 0
        result = results["90"]
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: z = 90 outside scan range" in result.stderr
        assert result.stdout == ""
        assert [p.name for p in tmp_path.iterdir()] == ["scan_z300.csv"]

    def test_json_format(self, runner, tmp_path):
        out = tmp_path / "scan.json"
        result = runner.invoke(main, [
            "--format", "json", "--out", str(out), "workspace", *self.BOUNDS,
            "--resolution", "3",
        ])
        assert result.exit_code == 0
        assert len(json.loads(out.read_text())) == 27


class TestVerify:
    def test_reference_design_passes(self, runner):
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output
        assert "direct-worked-example" in result.output

    def test_json_format(self, runner):
        result = runner.invoke(main, ["--format", "json", "verify"])
        assert result.exit_code == 0
        records = json.loads(result.output)
        assert all(r["passed"] for r in records)
        names = {r["name"] for r in records}
        assert "direct-alternate-rows" in names and "topology-fixture" in names

    def test_perturbed_geometry_fails_worked_example_not_topology(self, runner, tmp_path):
        config = write_config(tmp_path, dict(REFERENCE_VALUES, l2=290.0))
        result = runner.invoke(main, ["--params", config, "--format", "json", "verify"])
        assert result.exit_code == 4
        records = {r["name"]: r["passed"] for r in json.loads(result.stdout)}
        assert not records["direct-worked-example"]
        assert records["topology-fixture"]

    def test_parallel_approach_passes_where_the_worked_rails_lose_the_branch(
            self, runner, tmp_path):
        # l6 = 100 has no branch (1, 1, 1) on the worked rail 3; the worked
        # example itself does not hold for this geometry either
        config = write_config(tmp_path, dict(REFERENCE_VALUES, l6=100.0))
        result = runner.invoke(main, ["--params", config, "--format", "json", "verify"])
        assert result.exit_code == 4
        records = {r["name"]: r for r in json.loads(result.stdout)}
        assert records["parallel-approach"]["passed"], records["parallel-approach"]["detail"]

    def test_first_failing_check_named(self, runner, tmp_path):
        config = write_config(tmp_path, dict(REFERENCE_VALUES, l2=290.0))
        result = runner.invoke(main, ["--params", config, "verify"])
        assert result.exit_code == 4
        assert "first failing check: direct-worked-example" in result.output


class TestSweep:
    REFERENCE_TEXT = """\
rail spacing approach: yA1 - yA2 = l3 + delta
  delta (mm)     B (mm)  |norm det Jp|          class
         100        100      2.465e-01        regular
          30         30      6.610e-02        regular
          10         10      2.104e-02        regular
           3          3      6.201e-03        regular
           1          1      2.056e-03        regular
         0.3        0.3      6.156e-04       parallel
         0.1        0.1      2.051e-04       parallel
        0.03       0.03      6.152e-05       parallel

chain-3 stroke boundary: x = -38, boundary height z* = 444 mm
 z - z* (mm)  real solutions  min |u33| (mm)
          -2               8       30.265492
        -0.5               8       15.157506
           0               4        0.000000
         0.5               0               -
           2               0               -
"""

    def test_reference_text(self, runner):
        result = runner.invoke(main, ["sweep"])
        assert result.exit_code == 0
        assert result.stdout == self.REFERENCE_TEXT

    def test_json_rows(self, runner):
        result = runner.invoke(main, ["--format", "json", "sweep"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        rail = payload["rail_spacing"]
        assert [r["delta"] for r in rail] == list(verify.RAIL_SPACING_DELTAS)
        assert [r["class"] for r in rail] == ["regular"] * 5 + ["parallel"] * 3
        dets = [abs(r["norm_det_jp"]) for r in rail]
        assert dets == sorted(dets, reverse=True)
        assert all((d <= jacobian.SINGULARITY_THRESHOLD) == (r["class"] == "parallel")
                   for d, r in zip(dets, rail))
        stroke = payload["stroke_boundary"]
        assert (stroke["x"], stroke["z_star"]) == (-38.0, 444.0)
        rows = stroke["rows"]
        assert [r["offset"] for r in rows] == list(verify.STROKE_BOUNDARY_OFFSETS)
        assert [r["solutions"] for r in rows] == [8, 8, 4, 0, 0]
        assert rows[2]["min_abs_u33"] == 0.0
        assert rows[0]["min_abs_u33"] > rows[1]["min_abs_u33"] > 0.0
        assert rows[3]["min_abs_u33"] is None and rows[4]["min_abs_u33"] is None

    @pytest.mark.parametrize("values, boundary", [
        (dict(REFERENCE_VALUES, l7=18.0, l8=12.0), "x = -38, boundary height z* = 474 mm"),
        ({key: getattr(SPACER_PARAMS, key) for key in PARAM_KEYS},
         "x = -46, boundary height z* = 433 mm"),
    ], ids=["reference-with-spacers", "spacer-design"])
    def test_the_stroke_boundary_counts_the_spacers(self, runner, tmp_path, values, boundary):
        # l8 and l7 sit between the platform and C3, so they raise chain 3's
        # stroke boundary by l7 + l8: solutions just below it, none above
        config = write_config(tmp_path, values)
        result = runner.invoke(main, ["--params", config, "sweep"])
        assert result.exit_code == 0
        assert f"\nchain-3 stroke boundary: {boundary}\n" in result.stdout
        rows = json.loads(runner.invoke(main, ["--params", config, "--format", "json", "sweep"])
                          .stdout)["stroke_boundary"]["rows"]
        assert [r["offset"] for r in rows] == list(verify.STROKE_BOUNDARY_OFFSETS)
        assert [r["solutions"] for r in rows[:2] + rows[3:]] == [8, 8, 0, 0]
        assert rows[2]["min_abs_u33"] < 1e-4

    def test_threshold_moves_the_parallel_rows(self, runner):
        payload = json.loads(runner.invoke(
            main, ["--format", "json", "--singularity-threshold", "0.01", "sweep"]
        ).stdout)
        assert [r["class"] for r in payload["rail_spacing"]] == ["regular"] * 3 + ["parallel"] * 5

    def test_vanished_branch_is_named(self, runner, tmp_path):
        # with l6 = 60 the tracked direct branch does not exist at delta = 100
        # on the worked rail 3, nor on the centred one
        config = write_config(tmp_path, dict(REFERENCE_VALUES, l6=60.0))
        result = runner.invoke(main, ["--params", config, "sweep"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "error: tracked branch vanished at delta=100" in result.stderr
        assert result.stdout == ""

    def test_branch_missing_on_the_worked_rails_is_tracked_on_the_centred_rail(
            self, runner, tmp_path):
        # with l6 = 100 branch (1, 1, 1) does not exist on the worked rail 3
        # at delta = 100; rail 3 at yA1 - l3/2 keeps it at every delta
        config = write_config(tmp_path, dict(REFERENCE_VALUES, l6=100.0))
        result = runner.invoke(main, ["--params", config, "--format", "json", "sweep"])
        assert result.exit_code == 0
        rail = json.loads(result.stdout)["rail_spacing"]
        assert [r["delta"] for r in rail] == list(verify.RAIL_SPACING_DELTAS)
        assert [r["class"] for r in rail] == ["regular"] * 4 + ["parallel"] * 4
        dets = [abs(r["norm_det_jp"]) for r in rail]
        assert dets == sorted(dets, reverse=True)

    def test_stroke_abscissa_follows_the_geometry(self, runner, tmp_path):
        # a fixed x = -38 lies outside chain 3's reach once l6 < 138
        config = write_config(tmp_path, dict(REFERENCE_VALUES, l6=130.0))
        result = runner.invoke(main, ["--params", config, "sweep"])
        assert result.exit_code == 0
        assert result.stdout.startswith("rail spacing approach:")
        assert "chain-3 stroke boundary: x = 22, boundary height z* = 264 mm" in result.stdout
        assert len(result.stdout.splitlines()) == len(self.REFERENCE_TEXT.splitlines())

    def test_has_no_options_of_its_own(self, runner):
        result = runner.invoke(main, ["sweep", "--help"])
        assert result.exit_code == 0
        assert result.stdout.startswith("usage: trirail sweep [-h]\n")


class TestTopology:
    def test_reference_fixture(self, runner):
        result = runner.invoke(main, ["topology"])
        assert result.exit_code == 0
        assert "dof: 3" in result.output
        assert "coupling degree: 1" in result.output

    def test_custom_loops_json(self, runner):
        spec = json.dumps({"total_joint_dof_sum": 11, "loops": [[6, 2, 3], [5, 1, 5]]})
        result = runner.invoke(main, ["--format", "json", "topology", "--loops", spec])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload == {"dof": 3, "deltas": [1, -1], "coupling_degree": 1}

    def test_unwritable_out_is_config_error(self, runner, tmp_path):
        out = tmp_path / "missing" / "report.txt"
        result = runner.invoke(main, ["--out", str(out), "topology"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: writing {out}" in result.output

    @pytest.mark.parametrize("total", ["1e400", "11.5", "true", '"a"', "-3", "null"])
    def test_invalid_total_joint_dof_sum_rejected(self, runner, total):
        spec = '{"total_joint_dof_sum": %s, "loops": [[6, 2, 3], [5, 1, 5]]}' % total
        result = runner.invoke(main, ["--format", "json", "topology", "--loops", spec])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: loop specification: total_joint_dof_sum: must be a non-negative " \
               "integer" in result.output

    @pytest.mark.parametrize("spec, message", [
        ({"total_joint_dof_sum": 11, "loops": 5},
         "loops: must be a list of [joint_dof_sum, actuated_count, independent_eq_count] "
         "triples, got 5"),
        ({"total_joint_dof_sum": 11, "loops": [[6, 2]]},
         "loops[0]: must be a list of three integers [joint_dof_sum, actuated_count, "
         "independent_eq_count], got [6, 2]"),
        ([1], "--loops: must be a JSON object with keys total_joint_dof_sum and loops, "
              "got [1]"),
        ({"loops": [[6, 2, 3], [5, 1, 5]]}, "total_joint_dof_sum: missing"),
        ({"total_joint_dof_sum": 11, "loops": [[6, 2, 3], [5, 1, 5]], "x": 1}, "x: unknown key"),
    ], ids=["loops-not-a-list", "short-triple", "top-level-list", "missing-total", "unknown-key"])
    def test_malformed_structure_names_the_key_or_shape(self, runner, spec, message):
        result = runner.invoke(main, ["topology", "--loops", json.dumps(spec)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"error: loop specification: {message}\n"

    def test_deeply_nested_loops_rejected(self, runner):
        result = runner.invoke(main, ["topology", "--loops", "[" * 100000])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: loop specification: maximum recursion depth")
        assert result.stdout == ""

    @pytest.mark.parametrize("spec, key", [
        (f'{{"total_joint_dof_sum": 11, "loops": [[6, 2, {DEEP_LIST}]]}}',
         "independent_eq_count"),
        (f'{{"total_joint_dof_sum": 11, "loops": [{DEEP_LIST}]}}', "loops[0]"),
        (f'{{"total_joint_dof_sum": 11, "loops": {DEEP_DICT}}}', "loops"),
        (DEEP_LIST, "--loops"),
        (f'{{"total_joint_dof_sum": {LONG_INT}, "loops": [[6, 2, 3], [5, 1, 5]]}}',
         "total_joint_dof_sum"),
        (f'{{"total_joint_dof_sum": 11, "loops": [[6, 2, -{LONG_INT}]]}}',
         "independent_eq_count"),
    ], ids=["count", "triple", "loops", "top-level", "long-total", "long-count"])
    def test_deep_value_is_echoed_clipped(self, runner, spec, key):
        result = runner.invoke(main, ["topology", "--loops", spec])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: loop specification: {key}: must be ")
        assert result.stderr.endswith("...\n") and result.stderr.count("\n") == 1
        assert len(result.stderr) < 200
        assert result.stdout == ""

    def test_invalid_akc_rejected(self, runner):
        spec = json.dumps({"total_joint_dof_sum": 11, "loops": [[6, 2, 3], [5, 1, 4]]})
        result = runner.invoke(main, ["topology", "--loops", spec])
        assert result.exit_code == 1

    def test_unbalanced_sum_past_the_digit_limit_is_echoed_clipped(self, runner):
        # each count is within the interpreter's 4300-digit limit, their sum is not
        spec = json.dumps({"total_joint_dof_sum": 11, "loops": [[10 ** 4300 - 1, 0, 0]] * 2})
        result = runner.invoke(main, ["topology", "--loops", spec])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: loop specification: constraint degrees (999")
        assert result.stderr.endswith(
            " sum to <int of more than 4300 digits>, expected 0\n")
        assert result.stdout == ""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_coupling_degree_past_the_digit_limit_is_config_error(self, runner, fmt):
        # balanced deltas N, N, -N, -N whose coupling degree 2N has 4301 digits
        n = 10 ** 4300 - 1
        spec = json.dumps({"total_joint_dof_sum": 1,
                           "loops": [[n, 0, 0], [n, 0, 0], [0, n, 0], [0, n, 0]]})
        result = runner.invoke(main, ["--format", fmt, "topology", "--loops", spec])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == ("error: loop specification: coupling_degree: "
                                 "<int of more than 4300 digits> is too long to write\n")
        assert result.stdout == ""
