import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from trirail import ik, workspace
from trirail.errors import InvalidParameter, OutOfRange
from trirail.jacobian import SingularityKind
from trirail.params import Pose, REFERENCE_PARAMS
from trirail.workspace import ScanResult, ScanSpec, cross_section, export, scan, summary

from test_geometry_variants import SPACER_PARAMS


def rows(samples):
    """Canonical serialised form; NaN-safe point comparison."""
    return "".join(workspace._chunks(samples, "csv")).splitlines()[1:]


def sliced(result, index):
    """The points of ``result`` at a slice ``index``, as a :class:`ScanResult`."""
    return ScanResult(*(getattr(result, f.name)[index] for f in dataclasses.fields(result)))


def labelled(points, params, threshold):
    """A :class:`ScanResult` of ``points`` labelled one at a time by ``sample_point``."""
    return ScanResult(*map(list, zip(*[
        (x, y, z, *workspace.sample_point(Pose(x, y, z), params, threshold))
        for x, y, z in points])))


def kind(severity):
    """The class at a severity index."""
    return tuple(SingularityKind)[severity]


P = REFERENCE_PARAMS
EMPTY = ScanResult([], [], [], [], [], [], [])

REFERENCE_BOX = dict(x_range=(-110.0, 90.0), y_range=(-250.0, 250.0), z_range=(180.0, 480.0))
SMALL_SPEC = ScanSpec(resolution=5, **REFERENCE_BOX)
# dyadic box: grid coordinates are exact binary fractions at any power-of-two
# refinement, so coarse and fine grids share points bitwise
DYADIC_SPEC = ScanSpec(x_range=(-64.0, 0.0), y_range=(0.0, 64.0), z_range=(192.0, 320.0),
                       resolution=3)
# both signs of zero in one column: one set element, two reprs
SIGNED_ZEROS = labelled([(x, y, z) for x in (0.0, -0.0) for y in (-0.0, 0.0)
                         for z in (250.0, 1000.0)], P, 1e-3)


def independent_feasible(pose: Pose) -> bool:
    """Feasibility from raw reach arithmetic, not the ik module."""
    if abs(pose.x + P.b - P.d) > P.l4 or abs(pose.x + P.d - P.b) > P.l6:
        return False
    sin_a = math.sqrt(1.0 - ((pose.x + P.b - P.d) / P.l4) ** 2)
    sin_b = math.sqrt(1.0 - ((pose.x + P.d - P.b) / P.l6) ** 2)
    chain12 = any(
        P.l2 ** 2 - ((pose.z - P.l4 * s) - P.l1) ** 2 >= 0.0
        for s in (sin_a, -sin_a)
    )
    chain3 = any(
        P.l6 ** 2 - ((pose.z - P.l8 - P.l6 * s - P.l7) - P.l1) ** 2 >= 0.0
        for s in (sin_b, -sin_b)
    )
    return chain12 and chain3


class TestScanSpec:
    def test_inverted_bounds_rejected(self):
        with pytest.raises(InvalidParameter):
            ScanSpec(x_range=(90.0, -110.0), y_range=(0.0, 1.0), z_range=(0.0, 1.0))

    @pytest.mark.parametrize("bounds", [
        (0.0, math.inf), (math.nan, 1.0), (-math.inf, math.inf),
        (-1e308, 1e308),  # finite ends whose span overflows
    ])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(InvalidParameter, match="x_range"):
            ScanSpec(x_range=bounds, y_range=(0.0, 1.0), z_range=(0.0, 1.0))

    def test_resolution_floor(self):
        with pytest.raises(InvalidParameter):
            ScanSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), z_range=(0.0, 1.0),
                     resolution=1)


class TestScan:
    def test_row_major_order_and_cardinality(self):
        samples = scan(SMALL_SPEC, P)
        assert len(samples) == 5 ** 3
        coords = list(zip(samples.x, samples.y, samples.z))
        assert coords == sorted(coords)
        assert coords[0] == (-110.0, -250.0, 180.0)
        assert coords[-1] == (90.0, 250.0, 480.0)

    def test_feasible_flag_matches_solution_count(self):
        samples = scan(SMALL_SPEC, P)
        for row, count, severity in zip(rows(samples), samples.real_solution_count,
                                        samples.severity):
            assert row.split(",")[3] == ("true" if count > 0 else "false")
            assert count > 0 or severity == 0

    def test_feasibility_matches_independent_predicate(self):
        samples = scan(SMALL_SPEC, P)
        for x, y, z, count in zip(samples.x, samples.y, samples.z, samples.real_solution_count):
            assert (count > 0) == independent_feasible(Pose(x, y, z))

    def test_out_of_reach_box_is_all_infeasible(self):
        spec = ScanSpec(x_range=(0.0, 10.0), y_range=(0.0, 10.0),
                        z_range=(1000.0, 1010.0), resolution=3)
        samples = scan(spec, P)
        assert set(samples.real_solution_count) == {0}
        assert set(samples.severity) == {0}
        assert all(row.endswith(",false,0,nan,nan,none") for row in rows(samples))

    def test_feasible_samples_respect_reach_invariants(self):
        samples = scan(SMALL_SPEC, P)
        for x, y, z, count in zip(samples.x, samples.y, samples.z, samples.real_solution_count):
            if not count:
                continue
            assert abs(x + P.b - P.d) <= P.l4
            assert abs(x + P.d - P.b) <= P.l6
            for sol in ik.solve(Pose(x, y, z), P, check_roundtrip=False):
                assert sol.M1 >= 0.0 and sol.M3 >= 0.0

    def test_workers_do_not_change_results(self):
        sequential = scan(SMALL_SPEC, P, workers=1)
        parallel = scan(SMALL_SPEC, P, workers=3)
        assert rows(sequential) == rows(parallel)

    def test_refinement_keeps_grid_points_feasible(self):
        coarse = scan(DYADIC_SPEC, P)
        fine = scan(ScanSpec(x_range=DYADIC_SPEC.x_range, y_range=DYADIC_SPEC.y_range,
                             z_range=DYADIC_SPEC.z_range, resolution=5), P)
        fine_map = {point: (row, count) for point, row, count in zip(
            zip(fine.x, fine.y, fine.z), rows(fine), fine.real_solution_count)}
        shared = 0
        for point, row, count in zip(zip(coarse.x, coarse.y, coarse.z), rows(coarse),
                                     coarse.real_solution_count):
            twin = fine_map.get(point)
            if twin is None:
                continue
            shared += 1
            assert twin[0] == row
            assert (twin[1] > 0) == (count > 0)
        assert shared == len(coarse)  # dyadic grids nest exactly


class TestCrossSection:
    def test_slice_equals_scan_plane(self):
        z_values = [180.0 + i * (300.0 / 4) for i in range(5)]
        z_slice = z_values[2]
        full = scan(SMALL_SPEC, P)
        section = cross_section(SMALL_SPEC, P, "z", z_slice)
        plane = [row for row, z in zip(rows(full), full.z) if z == z_slice]
        assert rows(section) == plane

    def test_endpoint_slice_is_valid(self):
        section = cross_section(SMALL_SPEC, P, "x", -110.0)
        assert len(section) == 25

    def test_out_of_range_value(self):
        with pytest.raises(OutOfRange):
            cross_section(SMALL_SPEC, P, "z", 100.0)

    def test_unknown_axis(self):
        with pytest.raises(InvalidParameter):
            cross_section(SMALL_SPEC, P, "w", 0.0)

    def test_below_reach_slice_infeasible(self):
        spec = ScanSpec(x_range=(-110.0, 90.0), y_range=(-250.0, 250.0),
                        z_range=(900.0, 1000.0), resolution=3)
        assert set(cross_section(spec, P, "z", 950.0).real_solution_count) == {0}


class TestExport:
    def test_csv_shape_and_header(self, tmp_path):
        samples = sliced(scan(DYADIC_SPEC, P), slice(2))
        path = tmp_path / "points.csv"
        export(samples, "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == workspace.CSV_HEADER

    def test_empty_csv_is_header_only(self, tmp_path):
        path = tmp_path / "points.csv"
        export(EMPTY, "csv", path)
        assert path.read_text() == workspace.CSV_HEADER + "\n"

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        export(scan(SMALL_SPEC, P), "csv", first)
        export(scan(SMALL_SPEC, P, workers=2), "csv", second)
        assert first.read_bytes() == second.read_bytes()

    def test_json_round_trips_with_field_names(self, tmp_path):
        samples = scan(DYADIC_SPEC, P)
        path = tmp_path / "points.json"
        export(samples, "json", path)
        records = json.loads(path.read_text())
        assert len(records) == len(samples)
        assert set(records[0]) == {
            "x", "y", "z", "feasible", "real_solution_count",
            "min_norm_det_jp", "min_norm_det_jq", "class",
        }
        for record, x, count in zip(records, samples.x, samples.real_solution_count):
            assert record["x"] == x
            assert record["feasible"] == (count > 0)

    @pytest.mark.parametrize("samples", [
        pytest.param(scan(SMALL_SPEC, P), id="infeasible-rows"),
        # every branch folds at x = 80: feasible rows with no determinant
        pytest.param(cross_section(ScanSpec(resolution=5, **REFERENCE_BOX), P, "x", 80.0),
                     id="fold-rows"),
        pytest.param(EMPTY, id="empty"),
        pytest.param(cross_section(ScanSpec(resolution=41, **REFERENCE_BOX), P, "z", 330.0),
                     id="section-z330"),
        pytest.param(SIGNED_ZEROS, id="signed-zeros"),
    ])
    def test_json_is_byte_identical_to_json_dumps(self, tmp_path, samples):
        records = [{
            "x": x,
            "y": y,
            "z": z,
            "feasible": count > 0,
            "real_solution_count": count,
            "min_norm_det_jp": None if math.isnan(jp) else jp,
            "min_norm_det_jq": None if math.isnan(jq) else jq,
            "class": kind(severity).value if count else "none",
        } for x, y, z, count, jp, jq, severity in zip(
            samples.x, samples.y, samples.z, samples.real_solution_count,
            samples.min_norm_det_jp, samples.min_norm_det_jq, samples.severity)]
        path = tmp_path / "points.json"
        export(samples, "json", path)
        assert path.read_bytes() == (json.dumps(records, indent=1) + "\n").encode()

    @pytest.mark.parametrize("samples", [
        pytest.param(scan(SMALL_SPEC, P), id="infeasible-rows"),
        pytest.param(cross_section(ScanSpec(resolution=5, **REFERENCE_BOX), P, "x", 80.0),
                     id="fold-rows"),
        pytest.param(SIGNED_ZEROS, id="signed-zeros"),
    ])
    def test_csv_rows_are_per_sample_reprs(self, tmp_path, samples):
        lines = [workspace.CSV_HEADER] + [",".join((
            repr(x), repr(y), repr(z), "true" if count else "false", str(count),
            repr(jp), repr(jq), kind(severity).value if count else "none",
        )) for x, y, z, count, jp, jq, severity in zip(
            samples.x, samples.y, samples.z, samples.real_solution_count,
            samples.min_norm_det_jp, samples.min_norm_det_jq, samples.severity)]
        path = tmp_path / "points.csv"
        export(samples, "csv", path)
        assert path.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("piece", [1, 7, 25, 26])
    def test_pieces_join_to_the_one_piece_export(self, tmp_path, monkeypatch, fmt, piece):
        samples = sliced(scan(SMALL_SPEC, P), slice(25))
        export(samples, fmt, tmp_path / "whole")
        monkeypatch.setattr(workspace, "_EXPORT_ROWS", piece)
        assert len(list(workspace._chunks(samples, fmt))) == -(-25 // piece)
        export(samples, fmt, tmp_path / "pieces")
        assert (tmp_path / "pieces").read_bytes() == (tmp_path / "whole").read_bytes()

    def test_check_writable_leaves_files_as_they_were(self, tmp_path):
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_text("old\n")
        workspace.check_writable(fresh)
        workspace.check_writable(kept)
        assert not fresh.exists()
        assert kept.read_text() == "old\n"
        with pytest.raises(OSError, match=f"writing {tmp_path / 'missing'}"):
            workspace.check_writable(tmp_path / "missing" / "x.csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(InvalidParameter):
            export(EMPTY, "xml", tmp_path / "nope.xml")

    def test_io_failure_carries_path_context(self, tmp_path):
        target = tmp_path / "a_directory"
        target.mkdir()
        with pytest.raises(OSError) as err:
            export(EMPTY, "csv", target)
        assert str(target) in str(err.value)


class TestLabels:
    def test_fold_plane_labelled_serial(self):
        # x = 80 puts cos(alpha) = 1 exactly: every branch folds
        count, min_jp, _, severity = workspace.sample_point(Pose(80.0, 0.0, 250.0), P, 1e-3)
        assert count > 0
        assert kind(severity) is SingularityKind.SERIAL
        assert math.isnan(min_jp)

    def test_interior_point_regular(self):
        count, min_jp, _, severity = workspace.sample_point(Pose(-20.0, 0.0, 450.0), P, 1e-3)
        assert count > 0
        assert kind(severity) is SingularityKind.REGULAR
        assert min_jp > 1e-3

    def test_low_sheet_labelled_parallel(self):
        # near z = l1 + l6*sin(beta(x)): the chain-3 height term vanishes
        x = -20.0
        sin_b = math.sqrt(1.0 - ((x + P.d - P.b) / P.l6) ** 2)
        z = P.l1 + P.l6 * sin_b + 0.01
        count, _, _, severity = workspace.sample_point(Pose(x, 0.0, z), P, 1e-3)
        assert count > 0
        assert kind(severity) is SingularityKind.PARALLEL

    def test_exact_stroke_boundary_grid_point_labels_serial(self):
        # grid engineered to contain the M3 = 0 pose exactly (x = -38,
        # z = l1 + l6*0.8 + l6 = 444): rail 3 at full stroke for that pose
        spec = ScanSpec(x_range=(-48.0, -28.0), y_range=(-10.0, 10.0),
                        z_range=(434.0, 454.0), resolution=3)
        samples = scan(spec, P)
        boundary = [(count, severity) for point, count, severity in zip(
            zip(samples.x, samples.y, samples.z), samples.real_solution_count, samples.severity)
            if point == (-38.0, 0.0, 444.0)]
        assert len(boundary) == 1
        count, severity = boundary[0]
        assert count > 0
        assert kind(severity) in (SingularityKind.SERIAL, SingularityKind.COMPREHENSIVE)

    def test_reference_box_41_is_pinned(self, tmp_path):
        # the full-resolution reference scan: 41 passes of one 1681-point plane
        samples = scan(ScanSpec(resolution=41, **REFERENCE_BOX), P)
        assert summary(samples) == {
            "total": 41 ** 3, "feasible": 51332, "regular": 49856,
            "serial": 738, "parallel": 738, "comprehensive": 0,
        }
        path = tmp_path / "box41.csv"
        export(samples, "csv", path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6285add664d1126a6997a0752d7c9a7dffb0c382c5cb975e5e39c30efea78c05")

    def test_summary_counts_are_consistent(self):
        samples = scan(SMALL_SPEC, P)
        counts = summary(samples)
        assert counts["total"] == len(samples)
        assert counts["feasible"] == sum(count > 0 for count in samples.real_solution_count)
        assert counts["feasible"] == (counts["regular"] + counts["serial"]
                                      + counts["parallel"] + counts["comprehensive"])


def grid(bounds, n):
    lo, hi = bounds
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def oracle(spec, params, axis=None, value=None):
    """``sample_point`` one pose at a time over the grid, in row-major order."""
    axes = [grid(r, spec.resolution) for r in (spec.x_range, spec.y_range, spec.z_range)]
    if axis is not None:
        axes["xyz".index(axis)] = [value]
    return labelled([(x, y, z) for x in axes[0] for y in axes[1] for z in axes[2]],
                    params, spec.singularity_threshold)


class TestKernelMatchesSamplePoint:
    """The array kernel behind scan/cross_section against the scalar oracle."""

    @pytest.mark.parametrize("spec, axis, value", [
        pytest.param(ScanSpec(resolution=21, **REFERENCE_BOX), None, None, id="box-21"),
        # alpha_base = 0: one alpha elbow, every branch folds
        pytest.param(ScanSpec(resolution=41, **REFERENCE_BOX), "x", 80.0, id="fold-x80"),
        # beta_base = pi: one beta elbow, every branch folds
        pytest.param(ScanSpec(x_range=(-140.0, 90.0), y_range=(-250.0, 250.0),
                              z_range=(180.0, 480.0), resolution=21), "x", -130.0,
                     id="fold-x-130"),
        # contains the M3 = 0 pose (-38, 0, 444): merged chain-3 root
        pytest.param(ScanSpec(x_range=(-48.0, -28.0), y_range=(-10.0, 10.0),
                              z_range=(434.0, 454.0), resolution=3), None, None,
                     id="stroke-boundary"),
        pytest.param(ScanSpec(resolution=41, **REFERENCE_BOX), "x", -15.4714, id="x-section"),
        pytest.param(ScanSpec(resolution=41, **REFERENCE_BOX), "y", 9.6849, id="y-section"),
        # a z-section groups its 41-point x-planes into two numpy passes
        pytest.param(ScanSpec(resolution=41, **REFERENCE_BOX), "z", 330.0, id="z-section"),
        # one pass mixing unreachable planes (x = -140, 90), one beta elbow
        # (x = -130), one alpha elbow (x = 80) and two-elbow planes; at
        # z = 250 both single-elbow planes have feasible points
        pytest.param(ScanSpec(x_range=(-140.0, 90.0), y_range=(-250.0, 250.0),
                              z_range=(180.0, 480.0), resolution=24), "z", 250.0,
                     id="z-section-mixed-planes"),
    ])
    def test_reference_grids(self, spec, axis, value):
        samples = scan(spec, P) if axis is None else cross_section(spec, P, axis, value)
        assert rows(samples) == rows(oracle(spec, P, axis, value))

    @settings(max_examples=40, deadline=None)
    @given(
        params=st.sampled_from([P, SPACER_PARAMS]),
        corner=st.tuples(st.floats(-350.0, 150.0), st.floats(-300.0, 300.0),
                         st.floats(0.0, 600.0)),
        size=st.tuples(st.floats(1.0, 250.0), st.floats(1.0, 300.0), st.floats(1.0, 300.0)),
        resolution=st.integers(2, 4),
        threshold=st.floats(1e-6, 0.5),
    )
    def test_random_boxes(self, params, corner, size, resolution, threshold):
        spec = ScanSpec(*((lo, lo + width) for lo, width in zip(corner, size)),
                        resolution=resolution, singularity_threshold=threshold)
        assert rows(scan(spec, params)) == rows(oracle(spec, params))
