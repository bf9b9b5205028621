import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from trirail import workspace
from trirail.cli import main
from trirail.params import PARAM_KEYS, REFERENCE_PARAMS

REFERENCE_VALUES = {key: getattr(REFERENCE_PARAMS, key) for key in PARAM_KEYS}


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, values, name="geometry.json"):
    path = tmp_path / name
    path.write_text(json.dumps(values))
    return str(path)


def run_script(name, *args):
    """Run one of ``scripts/`` in a subprocess against this checkout's ``src/``."""
    root = Path(__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, str(root / "scripts" / name), *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )


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
    assert "error: l2" in result.output
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
@pytest.mark.parametrize("option", ["--tol-closure", "--singularity-threshold", "--tol-table"])
def test_tolerances_must_be_finite_and_positive(runner, option, value):
    result = runner.invoke(main, [option, value, "ik", "-15.4714", "9.6849", "456.3315"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: {option} must be finite and > 0" in result.output


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
        result = runner.invoke(main, [
            "--out", str(tmp_path / "x.csv"), "workspace",
            "--bounds", "90", "-110", "-250", "250", "180", "480",
        ])
        assert result.exit_code == 1

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
        assert not out.exists()

    def test_scan_script_rejects_workers_below_one(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = run_script("scan_workspace.py", "--resolution", "2", "--workers", "0",
                          "--out", str(out))
        assert proc.returncode == 1
        assert "error: --workers" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("script", ["scan_workspace.py", "singularity_sweep.py"])
    def test_script_rejects_invalid_geometry(self, tmp_path, script):
        config = write_config(tmp_path, dict(REFERENCE_VALUES, l2=1e200))
        out = tmp_path / "scan.csv"
        args = ["--resolution", "2", "--out", str(out)] if script == "scan_workspace.py" else []
        proc = run_script(script, "--params", config, *args)
        assert proc.returncode == 1
        assert "error: l2" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    @pytest.mark.parametrize("script", ["scan_workspace.py", "singularity_sweep.py"])
    def test_script_rejects_invalid_threshold(self, tmp_path, script, value):
        out = tmp_path / "scan.csv"
        args = ["--resolution", "2", "--out", str(out)] if script == "scan_workspace.py" else []
        proc = run_script(script, "--threshold", value, *args)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "threshold" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    def test_unwritable_out_is_config_error(self, runner, tmp_path):
        out = tmp_path / "missing" / "scan.csv"
        result = runner.invoke(main, ["--out", str(out), "workspace", *self.BOUNDS,
                                      "--resolution", "2"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: writing {out}" in result.output

    def test_scan_script_reports_unwritable_out(self, tmp_path):
        out = tmp_path / "missing" / "scan.csv"
        proc = run_script("scan_workspace.py", "--resolution", "2", "--out", str(out))
        assert proc.returncode == 1
        assert f"error: writing {out}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_scan_script_reports_unwritable_section(self, tmp_path):
        out = tmp_path / "scan.csv"
        (tmp_path / "scan_z300.csv").mkdir()
        proc = run_script("scan_workspace.py", "--resolution", "2", "--out", str(out),
                          "--sections", "300")
        assert proc.returncode == 1
        assert f"error: writing {tmp_path / 'scan_z300.csv'}" in proc.stderr
        assert "Traceback" not in proc.stderr

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

    @pytest.mark.parametrize("unwritable", ["out", "section"])
    def test_scan_script_fails_before_the_scan(self, tmp_path, monkeypatch, capsys, unwritable):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before checking the outputs")

        monkeypatch.setattr(workspace, "scan", no_scan)
        monkeypatch.setattr(workspace, "cross_section", no_scan)
        out = tmp_path / ("missing" if unwritable == "out" else "") / "scan.csv"
        section = tmp_path / "scan_z300.csv"
        if unwritable == "section":
            section.mkdir()
        script = Path(__file__).resolve().parent.parent / "scripts" / "scan_workspace.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--resolution", "101", "--out", str(out),
                                          "--sections", "300"])
        with pytest.raises(SystemExit) as exit_:
            runpy.run_path(str(script), run_name="__main__")
        assert exit_.value.code == 1
        bad = out if unwritable == "out" else section
        assert f"error: writing {bad}" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_script_rejects_inverted_bounds(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = run_script("scan_workspace.py", "--bounds", "1", "0", "0", "1", "0", "1",
                          "--resolution", "2", "--out", str(out))
        assert proc.returncode == 1
        assert "error: x_range" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_scan_script_rejects_section_out_of_range(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = run_script("scan_workspace.py", "--resolution", "2",
                          "--out", str(out), "--sections", "300", "90")
        assert proc.returncode == 1
        assert "error: z = 90 outside scan range" in proc.stderr
        assert "Traceback" not in proc.stderr
        # the height is checked before the box scan: nothing scanned, nothing written
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []

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

    def test_first_failing_check_named(self, runner, tmp_path):
        config = write_config(tmp_path, dict(REFERENCE_VALUES, l2=290.0))
        result = runner.invoke(main, ["--params", config, "verify"])
        assert result.exit_code == 4
        assert "first failing check: direct-worked-example" in result.output


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

    def test_invalid_akc_rejected(self, runner):
        spec = json.dumps({"total_joint_dof_sum": 11, "loops": [[6, 2, 3], [5, 1, 4]]})
        result = runner.invoke(main, ["topology", "--loops", spec])
        assert result.exit_code == 1
