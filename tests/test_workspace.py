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
    """Canonical serialised form; NaN-safe sample comparison."""
    if not isinstance(samples, ScanResult):
        samples = ScanResult.from_samples(samples)
    return workspace._csv_text(samples).splitlines()[1:]

P = REFERENCE_PARAMS

REFERENCE_BOX = dict(x_range=(-110.0, 90.0), y_range=(-250.0, 250.0), z_range=(180.0, 480.0))
SMALL_SPEC = ScanSpec(resolution=5, **REFERENCE_BOX)
# dyadic box: grid coordinates are exact binary fractions at any power-of-two
# refinement, so coarse and fine grids share points bitwise
DYADIC_SPEC = ScanSpec(x_range=(-64.0, 0.0), y_range=(0.0, 64.0), z_range=(192.0, 320.0),
                       resolution=3)
# both signs of zero in one column: one set element, two reprs
SIGNED_ZEROS = [workspace.sample_point(Pose(x, y, z), P, 1e-3)
                for x in (0.0, -0.0) for y in (-0.0, 0.0) for z in (250.0, 1000.0)]


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
        coords = [(s.pose.x, s.pose.y, s.pose.z) for s in samples]
        assert coords == sorted(coords)
        assert coords[0] == (-110.0, -250.0, 180.0)
        assert coords[-1] == (90.0, 250.0, 480.0)

    def test_feasible_flag_matches_solution_count(self):
        for s in scan(SMALL_SPEC, P):
            assert s.feasible == (s.real_solution_count > 0)

    def test_feasibility_matches_independent_predicate(self):
        for s in scan(SMALL_SPEC, P):
            assert s.feasible == independent_feasible(s.pose)

    def test_out_of_reach_box_is_all_infeasible(self):
        spec = ScanSpec(x_range=(0.0, 10.0), y_range=(0.0, 10.0),
                        z_range=(1000.0, 1010.0), resolution=3)
        samples = scan(spec, P)
        assert all(not s.feasible for s in samples)
        assert all(s.kind is None for s in samples)

    def test_feasible_samples_respect_reach_invariants(self):
        for s in scan(SMALL_SPEC, P):
            if not s.feasible:
                continue
            assert abs(s.pose.x + P.b - P.d) <= P.l4
            assert abs(s.pose.x + P.d - P.b) <= P.l6
            for sol in ik.solve(s.pose, P, check_roundtrip=False):
                assert sol.M1 >= 0.0 and sol.M3 >= 0.0

    def test_workers_do_not_change_results(self):
        sequential = scan(SMALL_SPEC, P, workers=1)
        parallel = scan(SMALL_SPEC, P, workers=3)
        assert rows(sequential) == rows(parallel)

    def test_refinement_keeps_grid_points_feasible(self):
        coarse = scan(DYADIC_SPEC, P)
        fine = scan(ScanSpec(x_range=DYADIC_SPEC.x_range, y_range=DYADIC_SPEC.y_range,
                             z_range=DYADIC_SPEC.z_range, resolution=5), P)
        fine_map = {s.pose.as_tuple(): s for s in fine}
        shared = 0
        for s in coarse:
            twin = fine_map.get(s.pose.as_tuple())
            if twin is None:
                continue
            shared += 1
            assert rows([twin]) == rows([s])
            assert s.feasible == twin.feasible
        assert shared == len(coarse)  # dyadic grids nest exactly


class TestCrossSection:
    def test_slice_equals_scan_plane(self):
        z_values = [180.0 + i * (300.0 / 4) for i in range(5)]
        z_slice = z_values[2]
        full = scan(SMALL_SPEC, P)
        section = cross_section(SMALL_SPEC, P, "z", z_slice)
        plane = [s for s in full if s.pose.z == z_slice]
        assert rows(section) == rows(plane)

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
        assert all(not s.feasible for s in cross_section(spec, P, "z", 950.0))


class TestExport:
    def test_csv_shape_and_header(self, tmp_path):
        samples = scan(DYADIC_SPEC, P)[:2]
        path = tmp_path / "points.csv"
        export(samples, "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == workspace.CSV_HEADER

    def test_empty_csv_is_header_only(self, tmp_path):
        path = tmp_path / "points.csv"
        export([], "csv", path)
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
        for record, sample in zip(records, samples):
            assert record["x"] == sample.pose.x
            assert record["feasible"] == sample.feasible

    @pytest.mark.parametrize("samples", [
        pytest.param(scan(SMALL_SPEC, P), id="infeasible-rows"),
        # every branch folds at x = 80: feasible rows with no determinant
        pytest.param(cross_section(ScanSpec(resolution=5, **REFERENCE_BOX), P, "x", 80.0),
                     id="fold-rows"),
        pytest.param([], id="empty"),
        pytest.param(cross_section(ScanSpec(resolution=41, **REFERENCE_BOX), P, "z", 330.0),
                     id="section-z330"),
        pytest.param(SIGNED_ZEROS, id="signed-zeros"),
    ])
    def test_json_is_byte_identical_to_json_dumps(self, tmp_path, samples):
        records = [{
            "x": s.pose.x,
            "y": s.pose.y,
            "z": s.pose.z,
            "feasible": s.feasible,
            "real_solution_count": s.real_solution_count,
            "min_norm_det_jp": None if math.isnan(s.min_norm_det_jp) else s.min_norm_det_jp,
            "min_norm_det_jq": None if math.isnan(s.min_norm_det_jq) else s.min_norm_det_jq,
            "class": s.kind.value if s.kind is not None else "none",
        } for s in samples]
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
            repr(s.pose.x), repr(s.pose.y), repr(s.pose.z),
            "true" if s.feasible else "false", str(s.real_solution_count),
            repr(s.min_norm_det_jp), repr(s.min_norm_det_jq),
            s.kind.value if s.kind is not None else "none",
        )) for s in samples]
        path = tmp_path / "points.csv"
        export(samples, "csv", path)
        assert path.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sample_list_exports_like_its_columns(self, tmp_path, fmt):
        columns = scan(ScanSpec(resolution=21, **REFERENCE_BOX), P)
        samples = list(columns)
        assert summary(samples) == summary(columns)
        export(samples, fmt, tmp_path / "samples")
        export(columns, fmt, tmp_path / "columns")
        assert (tmp_path / "samples").read_bytes() == (tmp_path / "columns").read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(InvalidParameter):
            export([], "xml", tmp_path / "nope.xml")

    def test_io_failure_carries_path_context(self, tmp_path):
        target = tmp_path / "a_directory"
        target.mkdir()
        with pytest.raises(OSError) as err:
            export([], "csv", target)
        assert str(target) in str(err.value)


def fields(sample):
    """A sample as a tuple that compares NaN dets equal."""
    return (sample.pose.as_tuple(), sample.feasible, sample.real_solution_count,
            repr(sample.min_norm_det_jp), repr(sample.min_norm_det_jq), sample.kind)


class TestScanResult:
    def test_len_slice_and_iteration_match_sample_point(self):
        result = scan(SMALL_SPEC, P)
        expected = oracle(SMALL_SPEC, P)
        assert len(result) == len(expected) == 5 ** 3
        assert list(map(fields, result)) == list(map(fields, expected))
        part = result[10:80:3]
        assert isinstance(part, ScanResult)
        assert list(map(fields, part)) == list(map(fields, expected[10:80:3]))
        assert fields(result[-1]) == fields(expected[-1])


class TestLabels:
    def test_fold_plane_labelled_serial(self):
        # x = 80 puts cos(alpha) = 1 exactly: every branch folds
        sample = workspace.sample_point(Pose(80.0, 0.0, 250.0), P, 1e-3)
        assert sample.feasible
        assert sample.kind is SingularityKind.SERIAL
        assert math.isnan(sample.min_norm_det_jp)

    def test_interior_point_regular(self):
        sample = workspace.sample_point(Pose(-20.0, 0.0, 450.0), P, 1e-3)
        assert sample.feasible
        assert sample.kind is SingularityKind.REGULAR
        assert sample.min_norm_det_jp > 1e-3

    def test_low_sheet_labelled_parallel(self):
        # near z = l1 + l6*sin(beta(x)): the chain-3 height term vanishes
        x = -20.0
        sin_b = math.sqrt(1.0 - ((x + P.d - P.b) / P.l6) ** 2)
        z = P.l1 + P.l6 * sin_b + 0.01
        sample = workspace.sample_point(Pose(x, 0.0, z), P, 1e-3)
        assert sample.feasible
        assert sample.kind is SingularityKind.PARALLEL

    def test_exact_stroke_boundary_grid_point_labels_serial(self):
        # grid engineered to contain the M3 = 0 pose exactly (x = -38,
        # z = l1 + l6*0.8 + l6 = 444): rail 3 at full stroke for that pose
        spec = ScanSpec(x_range=(-48.0, -28.0), y_range=(-10.0, 10.0),
                        z_range=(434.0, 454.0), resolution=3)
        samples = scan(spec, P)
        boundary = [s for s in samples if s.pose.as_tuple() == (-38.0, 0.0, 444.0)]
        assert len(boundary) == 1
        assert boundary[0].feasible
        assert boundary[0].kind in (SingularityKind.SERIAL, SingularityKind.COMPREHENSIVE)

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
        assert counts["feasible"] == sum(1 for s in samples if s.feasible)
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
    return [workspace.sample_point(Pose(x, y, z), params, spec.singularity_threshold)
            for x in axes[0] for y in axes[1] for z in axes[2]]


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
