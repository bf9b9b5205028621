import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
from itertools import product

import numpy as np
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


def labelled(axes, params, threshold):
    """A :class:`ScanResult` of the grid ``axes`` labelled one point at a time by
    ``sample_point``."""
    labels = [workspace.sample_point(Pose(*point), params, threshold) for point in product(*axes)]
    return ScanResult(*axes, *map(list, zip(*labels)))


def kind(severity):
    """The class at a severity index."""
    return tuple(SingularityKind)[severity]


P = REFERENCE_PARAMS
EMPTY = ScanResult([], [], [], [], [], [], [])

REFERENCE_BOX = dict(x_range=(-110.0, 90.0), y_range=(-250.0, 250.0), z_range=(180.0, 480.0))
# the heights of the seven X-Y sections of the benchmark's sections workload
SECTION_HEIGHTS = tuple(180.0 + 50.0 * k for k in range(7))
# the height where M1 = 0 exactly on one alpha slot at x = -6 (and M1 < 0 on
# the other): both solutions there are parallel-singular, so no branch works
FALLBACK_Z = P.l1 + P.l2 + P.l4 * math.sin(math.acos((-6.0 + P.b - P.d) / P.l4))
SMALL_SPEC = ScanSpec(resolution=5, **REFERENCE_BOX)
# dyadic box: grid coordinates are exact binary fractions at any power-of-two
# refinement, so coarse and fine grids share points bitwise
DYADIC_SPEC = ScanSpec(x_range=(-64.0, 0.0), y_range=(0.0, 64.0), z_range=(192.0, 320.0),
                       resolution=3)


def signed_zeros():
    """Both signs of zero on two axes: one set element, two reprs."""
    return labelled([[0.0, -0.0], [-0.0, 0.0], [250.0, 1000.0]], P, 1e-3)


# hand-built determinant columns: repeated values, both signs of zero in one
# column, NaN on a feasible (folded) row and on an infeasible one, infinity,
# and an infeasible row holding a det and a class, which export writes as NaN
# and none
DET_COLUMNS = ScanResult(
    xs=[0.0, 1.0],
    ys=[1.0, 2.0],
    zs=[2.0, 3.0],
    real_solution_count=[4, 4, 2, 2, 4, 0, 1, 1],
    min_norm_det_jp=[0.5, 0.5, 0.0, -0.0, float("nan"), float("nan"), math.inf, 0.5],
    min_norm_det_jq=[0.25, 0.25, -0.0, 0.0, float("nan"), 0.25, 0.5, math.inf],
    severity=[0, 1, 2, 0, 1, 3, 3, 2],
)


def reversed_rows():
    """The small grid labelled one point at a time, last point first: the
    product of the reversed axes."""
    return labelled([axis[::-1] for axis in workspace._grid(SMALL_SPEC)], P,
                    SMALL_SPEC.singularity_threshold)


def count_100():
    """The small scan with its first count of 8 made 100, a count no kernel
    makes: counts are formatted per distinct value, from no table."""
    samples = scan(SMALL_SPEC, P)
    counts = samples.real_solution_count.tolist()
    counts[counts.index(8)] = 100
    return dataclasses.replace(samples, real_solution_count=counts)


def traced(call) -> tuple[int, int]:
    """The traced memory that the result of ``call()`` holds, and the traced
    peak of the call, after a warm-up call, in bytes."""
    call()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()  # held until the memory is read
        held, peak = tracemalloc.get_traced_memory()
        return held - before, peak - before
    finally:
        if not tracing:
            tracemalloc.stop()


def per_row(samples):
    """Each point of ``samples`` as (x, y, z, count, jp, jq, class name) in Python
    types, with NaN dets and the class ``none`` on an infeasible point."""
    for x, y, z, count, jp, jq, severity in zip(
            samples.x, samples.y, samples.z, samples.real_solution_count.tolist(),
            samples.min_norm_det_jp.tolist(), samples.min_norm_det_jq.tolist(),
            samples.severity.tolist()):
        if not count:
            jp = jq = math.nan
        yield x, y, z, count, jp, jq, kind(severity).value if count else "none"


def csv_reference(samples) -> str:
    """The CSV export of ``samples``, built one row at a time from reprs."""
    lines = [workspace.CSV_HEADER] + [",".join((
        repr(x), repr(y), repr(z), "true" if count else "false", str(count),
        repr(jp), repr(jq), name,
    )) for x, y, z, count, jp, jq, name in per_row(samples)]
    return "\n".join(lines) + "\n"


def json_reference(samples) -> str:
    """The JSON export of ``samples``, built by ``json.dumps`` of one record per row."""
    records = [{
        "x": x,
        "y": y,
        "z": z,
        "feasible": count > 0,
        "real_solution_count": count,
        "min_norm_det_jp": None if math.isnan(jp) else jp,
        "min_norm_det_jq": None if math.isnan(jq) else jq,
        "class": name,
    } for x, y, z, count, jp, jq, name in per_row(samples)]
    return json.dumps(records, indent=1) + "\n"


# a NaN that is not the canonical one: its bits differ from float("nan")'s
NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0123], np.uint64).view(np.float64).item()
# runs of (count, jp, jq, class) labels that an export lays along the chains of
# points one grid line apart; a point's label text is formatted only where its
# labels differ, bit for bit, from those one grid line back
TAIL_RUNS = {
    # -0.0 equals 0.0 as a value, not as bits
    "signed-zero": [(2, 0.0, 0.5, 1), (2, 0.0, 0.5, 1), (2, -0.0, 0.5, 1), (2, 0.0, 0.5, 1),
                    (2, 0.0, -0.0, 1)],
    # feasible NaNs, one with a payload: every NaN writes nan or null
    "nan-payload": [(4, math.nan, 0.5, 1), (4, math.nan, 0.5, 1), (4, NAN_PAYLOAD, 0.5, 1),
                    (4, math.nan, 0.5, 1), (4, math.nan, NAN_PAYLOAD, 1)],
    # infeasible points holding the dets and class of their feasible neighbours
    "infeasible-between": [(2, 0.5, 0.25, 2), (0, 0.5, 0.25, 2), (2, 0.5, 0.25, 2),
                           (2, 0.5, 0.25, 2), (0, 0.5, 0.25, 2)],
}
# a box, a y-section (ny = 1) and an x-section (nx = 1), each with nz = 3
TAIL_GRIDS = {
    "box": ([0.0, 1.0], [0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0]),
    "y-section": ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0], [0.0, 1.0, 2.0]),
    "x-section": ([0.0], [0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0]),
}


def along_chains(run, axes):
    """The grid ``axes`` labelled with ``run`` repeating along each chain of points
    one grid line apart, the chain at the z index k starting k places into it."""
    nz = len(axes[2])
    n = math.prod(map(len, axes))
    return ScanResult(*axes, *map(list, zip(*(run[(i // nz + i % nz) % len(run)]
                                              for i in range(n)))))


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

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(InvalidParameter,
                           match=r"^singularity_threshold: must be finite and > 0, got "):
            ScanSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), z_range=(0.0, 1.0),
                     singularity_threshold=threshold)

    @pytest.mark.parametrize("bounds, reason", [
        (("0", "1"), "must be a real number, got '0'"),
        (None, "must be a (min, max) pair, got None"),
        ((0.0,), "must be a (min, max) pair, got (0.0,)"),
        ((0, 1, 2), "must be a (min, max) pair, got (0, 1, 2)"),
        ((True, 1.0), "must be a real number, got True"),
        ((0.0, True), "must be a real number, got True"),
    ], ids=["strings", "none", "one-end", "three-ends", "bool-min", "bool-max"])
    def test_malformed_range_names_the_field(self, bounds, reason):
        with pytest.raises(InvalidParameter, match=f"^y_range: {re.escape(reason)}$"):
            ScanSpec(x_range=(0.0, 1.0), y_range=bounds, z_range=(0.0, 1.0))

    @pytest.mark.parametrize("threshold", ["0.1", None, True])
    def test_threshold_must_be_a_real_number(self, threshold):
        reason = re.escape(f"must be a real number, got {threshold!r}")
        with pytest.raises(InvalidParameter, match=f"^singularity_threshold: {reason}$"):
            ScanSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), z_range=(0.0, 1.0),
                     singularity_threshold=threshold)

    def test_inverted_or_nan_range_message(self):
        # the type checks come first, and leave the message of a real pair as it was
        for bounds, text in (((1, 0), "(1, 0)"), ((math.nan, 1.0), "(nan, 1.0)")):
            reason = re.escape(f"needs finite min < max, got {text}")
            with pytest.raises(InvalidParameter, match=f"^x_range: {reason}$"):
                ScanSpec(x_range=bounds, y_range=(0.0, 1.0), z_range=(0.0, 1.0))

    def test_resolution_floor(self):
        with pytest.raises(InvalidParameter):
            ScanSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), z_range=(0.0, 1.0),
                     resolution=1)

    def test_numpy_integer_resolution_is_stored_as_int(self):
        spec = ScanSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), z_range=(0.0, 1.0),
                        resolution=np.int64(5))
        assert spec.resolution == 5 and type(spec.resolution) is int

    @pytest.mark.parametrize("resolution", [True, 5.0, 1], ids=["bool", "float", "one"])
    def test_non_integer_or_small_resolution_refused(self, resolution):
        reason = re.escape(f"must be an integer >= 2, got {resolution!r}")
        with pytest.raises(InvalidParameter, match=f"^resolution: {reason}$"):
            ScanSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), z_range=(0.0, 1.0),
                     resolution=resolution)

    def test_list_ranges_compare_and_hash_as_tuples(self):
        listed = ScanSpec([0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
        tupled = ScanSpec((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed.x_range == (0.0, 1.0) and type(listed.x_range) is tuple

    def test_defaults_and_tuple_equality(self):
        spec = ScanSpec(**REFERENCE_BOX)
        assert ScanSpec._field_defaults == {"resolution": 41, "singularity_threshold": 1e-3}
        as_tuple = (*REFERENCE_BOX.values(), 41, 1e-3)
        # a named tuple: equal to, and hashed as, the plain tuple of its fields
        assert spec == as_tuple and hash(spec) == hash(as_tuple)
        assert spec == ScanSpec(*as_tuple) and {spec: 1}[as_tuple] == 1
        assert spec != spec._replace(resolution=21)


class TestScanResult:
    @pytest.mark.parametrize("columns, named", [
        # the four label columns of a 2 x 1 x 1 grid, each with one entry
        pytest.param(([1], [0.5], [0.5], [0]), "real_solution_count", id="all"),
        pytest.param(([1], [0.5, 0.5], [0.5, 0.5], [0, 0]), "real_solution_count", id="count"),
        pytest.param(([1, 1], [0.5], [0.5, 0.5], [0, 0]), "min_norm_det_jp", id="jp"),
        pytest.param(([1, 1], [0.5, 0.5], [0.5], [0, 0]), "min_norm_det_jq", id="jq"),
        pytest.param(([1, 1], [0.5, 0.5], [0.5, 0.5], [0]), "severity", id="severity"),
    ])
    def test_label_columns_hold_one_entry_per_grid_point(self, columns, named):
        with pytest.raises(InvalidParameter,
                           match=f"^{named}: needs 2 entries, one per grid point, got 1$"):
            ScanResult([1.0, 2.0], [1.0], [1.0], *columns)

    @pytest.mark.parametrize("columns, named, shape", [
        pytest.param(([[1], [1]], [0.5, 0.5], [0.5, 0.5], [0, 0]), "real_solution_count",
                     "(2, 1)", id="count-2x1"),
        pytest.param(([1, 1], [[0.5, 0.5]], [0.5, 0.5], [0, 0]), "min_norm_det_jp", "(1, 2)",
                     id="jp-1x2"),
    ])
    def test_label_column_that_is_not_1d_names_its_shape(self, columns, named, shape):
        # as many entries as the grid has points, in the wrong shape
        with pytest.raises(InvalidParameter, match=f"^{named}: needs 2 entries, one per grid "
                                                   f"point, got shape {re.escape(shape)}$"):
            ScanResult([1.0, 2.0], [1.0], [1.0], *columns)

    @pytest.mark.parametrize("axes, named", [
        pytest.param(([math.nan], [1.0], [1.0]), "xs", id="nan-x"),
        pytest.param(([1.0], [math.inf], [1.0]), "ys", id="inf-y"),
        pytest.param(([1.0], [1.0], [-math.inf]), "zs", id="minus-inf-z"),
    ])
    def test_axes_hold_finite_values(self, axes, named):
        with pytest.raises(InvalidParameter, match=f"^{named}: must hold finite values$"):
            ScanResult(*axes, [1], [0.5], [0.5], [0])

    @pytest.mark.parametrize("columns, named", [
        pytest.param(([1], [0.5], [0.5], [-1]), "severity", id="severity-minus-1"),
        pytest.param(([1], [0.5], [0.5], [-4]), "severity", id="severity-minus-4"),
        pytest.param(([1], [0.5], [0.5], [4]), "severity", id="severity-4"),
        # past int8: a cast before the check would wrap it to 1
        pytest.param(([1], [0.5], [0.5], [257]), "severity", id="severity-257"),
        pytest.param(([-3], [0.5], [0.5], [0]), "real_solution_count", id="count-minus-3"),
        # a cast would truncate these to 1 and 2
        pytest.param(([1.5], [0.5], [0.5], [0]), "real_solution_count", id="count-1.5"),
        pytest.param(([1], [0.5], [0.5], [2.5]), "severity", id="severity-2.5"),
    ])
    def test_label_values_are_checked(self, columns, named):
        with pytest.raises(InvalidParameter, match=f"^{named}: must hold integers from 0 to "):
            ScanResult([0.0], [0.0], [0.0], *columns)

    @pytest.mark.parametrize("name", [
        "real_solution_count", "min_norm_det_jp", "min_norm_det_jq", "severity"])
    def test_label_columns_are_read_only(self, name):
        samples = ScanResult([1.0, 2.0], [1.0], [1.0], [1, 1], [0.5, 0.5], [0.5, 0.5], [0, 0])
        with pytest.raises(ValueError, match="read-only"):
            getattr(samples, name)[0] = 0

    def test_kernel_columns_are_frozen_in_place(self, monkeypatch):
        # the kernel's fresh arrays are frozen, not copied again
        label = workspace._label
        made = []

        def recorded(*args):
            made.extend(label(*args))
            return made

        monkeypatch.setattr(workspace, "_label", recorded)
        samples = scan(SMALL_SPEC, P)
        for (name, dtype, _, _), fresh in zip(workspace._LABEL_COLUMNS, made, strict=True):
            column = getattr(samples, name)
            assert column.dtype == dtype and np.shares_memory(column, fresh)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_adopted_columns_are_checked(self):
        # the kernel's path into a result runs every check of the constructor
        columns = [np.array([1]), np.array([0.5]), np.array([0.5]), np.array([-1], np.int8)]
        with pytest.raises(InvalidParameter, match="^severity: must hold integers from 0 to "):
            ScanResult._adopt([0.0], [0.0], [0.0], *columns)
        with pytest.raises(InvalidParameter, match="^real_solution_count: needs 2 entries"):
            ScanResult._adopt([0.0, 1.0], [0.0], [0.0], *columns)

    def test_label_columns_are_copies(self):
        counts, jp, jq, severity = [1, 1], [0.5, 0.5], np.array([0.5, 0.5]), [0, 0]
        samples = ScanResult([1.0, 2.0], [1.0], [1.0], counts, jp, jq, severity)
        before = rows(samples)
        # a caller's array is copied, not frozen in place
        jq[0] = 0.25
        # lists edited and grown after construction
        for column, value in ((counts, 3), (jp, 0.25), (severity, 2)):
            column[0] = value
            column.append(value)
        assert rows(samples) == before


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
        samples = labelled([[-64.0], [0.0], [192.0, 256.0]], P, DYADIC_SPEC.singularity_threshold)
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

    # kernel calls run in the test, so that a kernel fault fails it and not the collection
    @pytest.mark.parametrize("samples", [
        pytest.param(lambda: scan(SMALL_SPEC, P), id="infeasible-rows"),
        # every branch folds at x = 80: feasible rows with no determinant
        pytest.param(lambda: cross_section(ScanSpec(resolution=5, **REFERENCE_BOX), P, "x", 80.0),
                     id="fold-rows"),
        pytest.param(lambda: EMPTY, id="empty"),
        pytest.param(lambda: cross_section(ScanSpec(resolution=41, **REFERENCE_BOX), P,
                                           "z", 330.0), id="section-z330"),
        pytest.param(signed_zeros, id="signed-zeros"),
        pytest.param(reversed_rows, id="reversed-rows"),
        pytest.param(count_100, id="count-100"),
    ])
    def test_json_is_byte_identical_to_json_dumps(self, tmp_path, samples):
        samples = samples()
        path = tmp_path / "points.json"
        export(samples, "json", path)
        assert path.read_bytes() == json_reference(samples).encode()

    @pytest.mark.parametrize("samples", [
        pytest.param(lambda: scan(SMALL_SPEC, P), id="infeasible-rows"),
        pytest.param(lambda: cross_section(ScanSpec(resolution=5, **REFERENCE_BOX), P, "x", 80.0),
                     id="fold-rows"),
        pytest.param(signed_zeros, id="signed-zeros"),
        pytest.param(reversed_rows, id="reversed-rows"),
        pytest.param(count_100, id="count-100"),
    ])
    def test_csv_rows_are_per_sample_reprs(self, tmp_path, samples):
        samples = samples()
        path = tmp_path / "points.csv"
        export(samples, "csv", path)
        assert path.read_text() == csv_reference(samples)

    @pytest.mark.parametrize("run", TAIL_RUNS)
    @pytest.mark.parametrize("axes", TAIL_GRIDS)
    # one piece, and pieces of 1, nz - 1 and nz + 1 points, which cut the runs
    @pytest.mark.parametrize("piece", [workspace._EXPORT_ROWS, 1, 2, 4])
    def test_label_tails_are_per_row(self, tmp_path, monkeypatch, run, axes, piece):
        samples = along_chains(TAIL_RUNS[run], TAIL_GRIDS[axes])
        monkeypatch.setattr(workspace, "_EXPORT_ROWS", piece)
        export(samples, "csv", tmp_path / "points.csv")
        export(samples, "json", tmp_path / "points.json")
        assert (tmp_path / "points.csv").read_text() == csv_reference(samples)
        assert (tmp_path / "points.json").read_text() == json_reference(samples)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("piece", [1, 7, 25, 26])
    def test_pieces_join_to_the_one_piece_export(self, tmp_path, monkeypatch, fmt, piece):
        # one x-plane, and the whole scan, whose pieces cross x-planes
        full = scan(SMALL_SPEC, P)
        cases = {"plane": cross_section(SMALL_SPEC, P, "x", -110.0), "full": full}
        for name, samples in cases.items():
            export(samples, fmt, tmp_path / name)
        monkeypatch.setattr(workspace, "_EXPORT_ROWS", piece)
        for name, samples in cases.items():
            assert len(list(workspace._chunks(samples, fmt))) == -(-len(samples) // piece)
            export(samples, fmt, tmp_path / "pieces")
            assert (tmp_path / "pieces").read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("piece", [1, 3, workspace._EXPORT_ROWS])
    def test_determinant_columns_are_per_row_reprs(self, tmp_path, monkeypatch, piece):
        samples = DET_COLUMNS
        # dets go in as quoted reprs and come out unquoted: an infinite det is
        # written by repr, not as json's Infinity
        records = [{
            "x": x, "y": y, "z": z, "feasible": count > 0, "real_solution_count": count,
            "min_norm_det_jp": None if math.isnan(jp) else repr(jp),
            "min_norm_det_jq": None if math.isnan(jq) else repr(jq),
            "class": name,
        } for x, y, z, count, jp, jq, name in per_row(samples)]
        json_text = re.sub(r'"(min_norm_det_j[pq])": "([^"]*)"', r'"\1": \2',
                           json.dumps(records, indent=1)) + "\n"
        monkeypatch.setattr(workspace, "_EXPORT_ROWS", piece)
        export(samples, "csv", tmp_path / "points.csv")
        export(samples, "json", tmp_path / "points.json")
        assert (tmp_path / "points.csv").read_text() == csv_reference(samples)
        assert (tmp_path / "points.json").read_text() == json_text

    @pytest.mark.parametrize("heights, texts", [
        pytest.param(None, 917, id="box-21"),
        pytest.param(SECTION_HEIGHTS, 603, id="sections"),
    ])
    def test_each_distinct_det_is_formatted_once(self, tmp_path, monkeypatch, heights, texts):
        # the 21^3 box's 856 formatted tails hold 1,638 det numbers but only
        # 917 distinct bit patterns, the seven 41 x 41 sections' 1,116 hold 603
        reprs = workspace._reprs
        formatted = []

        def counted(values, nan):
            formatted.extend(v for v in values if v == v)
            return reprs(values, nan)

        monkeypatch.setattr(workspace, "_reprs", counted)
        if heights is None:
            export(scan(ScanSpec(resolution=21, **REFERENCE_BOX), P), "csv", tmp_path / "box.csv")
        for z in heights or ():
            export(cross_section(ScanSpec(resolution=41, **REFERENCE_BOX), P, "z", z), "json",
                   tmp_path / "section.json")
        assert len(formatted) == texts

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
        # the full-resolution reference scan: 1,252 groups in 36 passes
        samples = scan(ScanSpec(resolution=41, **REFERENCE_BOX), P)
        assert summary(samples) == {
            "total": 41 ** 3, "feasible": 51332, "regular": 49856,
            "serial": 738, "parallel": 738, "comprehensive": 0,
        }
        path = tmp_path / "box41.csv"
        export(samples, "csv", path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6285add664d1126a6997a0752d7c9a7dffb0c382c5cb975e5e39c30efea78c05")

    @pytest.mark.parametrize("fmt, samples, digest", [
        pytest.param("csv", lambda: scan(ScanSpec(resolution=21, **REFERENCE_BOX), P),
                     "0decae89b27818d47c8bc03e75d3d25cb3c468a3a12140cd0b26780a0f7a1aad",
                     id="box-21-csv"),
        pytest.param("json", lambda: cross_section(ScanSpec(resolution=41, **REFERENCE_BOX), P,
                                                   "z", 280.0),
                     "d78507a1a307c6394a12e7b6e86fca7ac132227574b7e6ad3b1b9d9a0d9d38b8",
                     id="section-z280-json"),
    ])
    def test_export_bytes_are_pinned(self, tmp_path, fmt, samples, digest):
        path = tmp_path / "points"
        export(samples(), fmt, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_summary_counts_are_consistent(self):
        samples = scan(SMALL_SPEC, P)
        counts = summary(samples)
        assert counts["total"] == len(samples)
        assert counts["feasible"] == sum(count > 0 for count in samples.real_solution_count)
        assert counts["feasible"] == (counts["regular"] + counts["serial"]
                                      + counts["parallel"] + counts["comprehensive"])
        assert all(type(n) is int for n in counts.values())
        assert json.loads(json.dumps(counts)) == counts


def grid(bounds, n):
    lo, hi = bounds
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def oracle(spec, params, axis=None, value=None):
    """``sample_point`` one pose at a time over the grid, in row-major order."""
    axes = [grid(r, spec.resolution) for r in (spec.x_range, spec.y_range, spec.z_range)]
    if axis is not None:
        axes["xyz".index(axis)] = [value]
    return labelled(axes, params, spec.singularity_threshold)


class TestKernelMemory:
    """The traced memory peak of one call after a warm-up call, at most what the
    kernel took in passes of 1,024 points across all 32 branches (bytes)."""

    @pytest.mark.parametrize("call, ceiling", [
        pytest.param(lambda: scan(ScanSpec(resolution=21, **REFERENCE_BOX), P), 1_463_880,
                     id="box-21"),
        pytest.param(lambda: cross_section(ScanSpec(resolution=41, **REFERENCE_BOX), P,
                                           "z", 280.0), 1_003_090, id="section-z280"),
    ])
    def test_traced_peak(self, call, ceiling):
        assert traced(call)[1] <= ceiling

    def test_held_result(self):
        # the 41^3 labels as typed arrays: about 1.7 MB, against 5.6 MB as lists
        held = traced(lambda: scan(ScanSpec(resolution=41, **REFERENCE_BOX), P))[0]
        assert held <= 2_500_000


class TestExportMemory:
    """The traced memory peak of one export after a warm-up export, at most what
    it took when every point's text came from an f-string template (bytes)."""

    @pytest.mark.parametrize("fmt, samples, ceiling", [
        pytest.param("csv", lambda: scan(ScanSpec(resolution=21, **REFERENCE_BOX), P), 2_198_284,
                     id="box-21-csv"),
        pytest.param("json", lambda: cross_section(ScanSpec(resolution=41, **REFERENCE_BOX), P,
                                                   "z", 280.0), 1_099_209, id="section-z280-json"),
    ])
    def test_traced_peak(self, tmp_path, fmt, samples, ceiling):
        samples = samples()
        assert traced(lambda: export(samples, fmt, tmp_path / "points"))[1] <= ceiling


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
        # a z-section's 38 groups take two numpy passes
        pytest.param(ScanSpec(resolution=41, **REFERENCE_BOX), "z", 330.0, id="z-section"),
        # one pass holding the groups of one beta elbow (x = -130), one alpha
        # elbow (x = 80) and two-elbow planes, beside unreachable planes
        # (x = -140, 90); at z = 250 both single-elbow planes have feasible points
        pytest.param(ScanSpec(x_range=(-140.0, 90.0), y_range=(-250.0, 250.0),
                              z_range=(180.0, 480.0), resolution=24), "z", 250.0,
                     id="z-section-mixed-planes"),
        # x = -6 has no working branch: the kernel falls back to every branch
        pytest.param(ScanSpec(x_range=(-10.0, -2.0), y_range=(-250.0, 250.0),
                              z_range=(180.0, 480.0), resolution=9), "z", FALLBACK_Z,
                     id="fallback-z"),
    ])
    def test_reference_grids(self, spec, axis, value):
        samples = scan(spec, P) if axis is None else cross_section(spec, P, axis, value)
        assert rows(samples) == rows(oracle(spec, P, axis, value))

    def test_fallback_pose_has_no_working_branch(self):
        pose = Pose(-6.0, 0.0, FALLBACK_Z)  # z = 463.50570021989415
        solutions = ik.solve(pose, P, check_roundtrip=False)
        assert len(solutions) == 2
        assert all(solution.parallel_singular for solution in solutions)
        assert sorted(solution.M1 for solution in solutions) == [0.0, 0.0]
        count, min_jp, min_jq, severity = workspace.sample_point(pose, P, 1e-3)
        assert (count, min_jp, min_jq, kind(severity)) == (
            2, 0.0, 0.0, SingularityKind.COMPREHENSIVE)

    def test_labels_do_not_change_along_y(self):
        samples = scan(ScanSpec(resolution=21, **REFERENCE_BOX), P)
        cells = {}
        for x, z, *label in zip(samples.x, samples.z, samples.real_solution_count,
                                samples.severity, samples.min_norm_det_jp,
                                samples.min_norm_det_jq):
            cells.setdefault((x, z), []).append(label)
        assert len(cells) == 21 ** 2
        for labels in cells.values():
            (count, severity, jp, jq), *others = labels
            for other in others:
                assert other[:2] == [count, severity]
                for det, other_det in zip((jp, jq), other[2:]):
                    assert math.isnan(det) == math.isnan(other_det)
                    assert math.isnan(det) or math.isclose(det, other_det, rel_tol=1e-12)

    @pytest.mark.parametrize("spec, axis, value, between", [
        # groups of 168 to 336 pairs: two of the smallest share a pass
        pytest.param(ScanSpec(resolution=21, **REFERENCE_BOX), None, None, 400, id="box-21"),
        # groups of 328 pairs: two to a pass
        pytest.param(ScanSpec(resolution=41, **REFERENCE_BOX), "z", 330.0, 700, id="z-section"),
    ])
    def test_pass_boundaries(self, monkeypatch, spec, axis, value, between):
        def labels():
            return rows(scan(spec, P) if axis is None else cross_section(spec, P, axis, value))

        reference = oracle(spec, P, axis, value)
        expected = rows(reference)
        assert labels() == expected
        # a group is an (x, z) with a branch; its pairs are those branches at every y
        ny = len(reference.ys)
        per_xz = reference.real_solution_count.reshape(len(reference.xs), ny, -1)[:, 0]
        sizes = [n * ny for n in per_xz.ravel().tolist() if n]
        # 1: every group exceeds the budget and runs alone
        assert all(stop - start == 1 for start, stop in workspace._passes(sizes, 1))
        # between one group's pairs and two groups': some pass holds two groups
        assert max(sizes) <= between
        assert any(stop - start >= 2 for start, stop in workspace._passes(sizes, between))
        for budget in (1, between):
            monkeypatch.setattr(workspace, "_PASS_PAIRS", budget)
            assert labels() == expected

    def test_no_groups_take_no_pass(self):
        # a section with no feasible cell runs no stage-B pass
        assert list(workspace._passes([], 1)) == []
        assert list(workspace._passes([], workspace._PASS_PAIRS)) == []
        assert list(workspace._passes([5], 1)) == [(0, 1)]

    def test_run_heads(self):
        # one cell at six y; the pair at y = 1 is not classified
        classified = np.array([[True, False, True, True, True, True]])
        u11 = np.array([[0.5, 0.5, 0.5, 0.5, -0.0, 0.0]])
        u22 = np.full((1, 6), 2.0)
        # y = 2 follows an unclassified pair, though with the same u's; y = 4
        # changes u11; y = 5 holds 0.0 after -0.0, equal as values, not as bits
        assert workspace._run_heads(classified, u11, u22, u22).tolist() == [
            [True, False, True, False, True, True]]
        # rows are cells: a run never reaches from one cell into the next
        assert workspace._run_heads(np.ones((2, 1), bool), np.zeros((2, 1))).tolist() == [
            [True], [True]]

    @pytest.mark.parametrize("mask", ["random", "all-false", "all-true", "one-x", "one-z"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cells_are_the_masked_listing(self, mask, seed):
        # stage A's flat listing against the masked gather it replaces, over
        # (x, z, alpha slot, beta slot, s1, s2, s3)
        rng = np.random.default_rng(seed)
        nx, nz = {"one-x": (1, 6), "one-z": (5, 1)}.get(mask, (4, 3))
        exists = rng.random((nx, nz, 2, 2, 2, 2, 2)) < 0.3
        if mask in ("all-false", "all-true"):
            exists[...] = mask == "all-true"
        over_a = rng.random((nx, nz, 2, 1, 1, 1, 1))
        over_b = rng.random((nx, nz, 1, 2, 1, 1, 1))
        # a distal fold flag is over (x, slot) alone, broadcast over z to be taken
        fold = rng.random((nx, 1, 2, 1, 1, 1, 1)) < 0.5
        a, b, *signs = workspace._cells(exists)

        def masked(values) -> bytes:
            return np.broadcast_to(values, exists.shape)[exists].tobytes()

        assert over_a.take(a).tobytes() == masked(over_a)
        assert over_b.take(b).tobytes() == masked(over_b)
        assert np.broadcast_to(fold, over_a.shape).take(a).tobytes() == masked(fold)
        sign = np.array([1.0, -1.0])
        for taken, values in zip(signs, (sign[:, None, None], sign[:, None], sign)):
            assert taken.tobytes() == masked(values)

    @pytest.mark.parametrize("budget", [1, 12288])
    def test_each_run_of_equal_u_is_labelled_once(self, monkeypatch, budget):
        # the 21^3 box has 27,468 classified (cell, y) pairs, whose u's form
        # 3,294 runs along y; each run's head takes one norm of each Jp row
        norms = workspace._norms
        rows = []

        def counted(*row):
            out = norms(*row)
            rows.append(out.size)
            return out

        monkeypatch.setattr(workspace, "_norms", counted)
        monkeypatch.setattr(workspace, "_PASS_PAIRS", budget)
        scan(ScanSpec(resolution=21, **REFERENCE_BOX), P)
        assert sum(rows) == 3 * 3294

    @pytest.mark.parametrize("heights, rows", [
        pytest.param(None, 1344, id="box-21"),
        pytest.param(SECTION_HEIGHTS, 876, id="sections"),
    ])
    def test_only_chosen_cells_are_labelled(self, monkeypatch, heights, rows):
        # half the existing cells are chosen at no y (the s1 = s2 twins, whose
        # rails 1 and 2 sit l3 apart): of 2,688 cells at 21^3 and 1,752 over
        # the seven 41 x 41 sections, stage B labels the other half
        run_heads = workspace._run_heads
        received = []

        def counted(classified, *u):
            received.append(len(classified))
            return run_heads(classified, *u)

        monkeypatch.setattr(workspace, "_run_heads", counted)
        if heights is None:
            scan(ScanSpec(resolution=21, **REFERENCE_BOX), P)
        for z in heights or ():
            cross_section(ScanSpec(resolution=41, **REFERENCE_BOX), P, "z", z)
        assert sum(received) == rows

    def test_signed_zero_x_labels_as_zero(self):
        # x enters only as x + b and x + d, with b and d > 0, so both zeros give one sum
        spec = ScanSpec(resolution=41, **REFERENCE_BOX)
        assert label_digest(spec, P, "x", -0.0) == label_digest(spec, P, "x", 0.0)

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


def label_digest(spec, params, axis, value) -> str:
    """SHA-256 of the bytes of the kernel's four label columns over a grid."""
    digest = hashlib.sha256()
    for column in workspace._label(*workspace._grid(spec, axis, value), params,
                                   spec.singularity_threshold):
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def section(axis, value):
    return ScanSpec(resolution=41, **REFERENCE_BOX), axis, value


#: the kernel's label bytes on each grid, the same at every pass budget:
#: (spec, axis, value) and the digest
LABEL_DIGESTS = {
    "box-5": ((SMALL_SPEC, None, None),
              "7b9bfb5899f45814d1887dea3c71167100425e86571c12f8c006bfbcff2785c0"),
    "box-21": ((ScanSpec(resolution=21, **REFERENCE_BOX), None, None),
               "1408ced128b3f03c65743210fb5bc13baa86565e728ce4afd0707a4c0a5e2e66"),
    "box-41": ((ScanSpec(resolution=41, **REFERENCE_BOX), None, None),
               "7f247517adb03be94baf3b4916aa7d2faf2991e46e57a0fa6e17e07f01eeef6a"),
    "section-z280": (section("z", 280.0),
                     "e4c7e27334bad1dedb0db5c8dcc0105614aca3e96691958e96ba46f8fa753cdc"),
    "section-x80": (section("x", 80.0),
                    "d3f2f67058596084b6d48a99ac27fbc6098022f5e39ad9fdd329d2e8ed8db4c8"),
    "section-x-6": (section("x", -6.0),
                    "e6426a625d12350b015aa1317963c63fb76ab9bc11fe364f1f56ea27d47d040f"),
    "section-y0": (section("y", 0.0),
                   "131af91a22f19bfd9ba6414ddd0c31feaf09c6113241eb5341e9f89797ae2eac"),
    "fallback-z": ((ScanSpec(x_range=(-10.0, -2.0), y_range=(-250.0, 250.0),
                             z_range=(180.0, 480.0), resolution=9), "z", FALLBACK_Z),
                   "11dd8ecc65bda0262fd398c55242dba8afdac820df747401b602ad3fbd98ae1a"),
    # both fold planes and the unreachable space around them
    "wide-box-23": ((ScanSpec(x_range=(-150.0, 100.0), y_range=(-300.0, 300.0),
                              z_range=(100.0, 600.0), resolution=23), None, None),
                    "71366747be7811e85f251c6702ec3cc70fea56984533cdc5cd96768e911fab9a"),
    "spacer-box-21": ((ScanSpec(resolution=21, **REFERENCE_BOX), None, None),
                      "2535031e4e257cd261675210504f7d21cc5dedb7d1ed7a2f1469026b8b6cc1e7"),
    # y values far from round numbers: the runs of equal u's are short
    "odd-y-box-21": ((ScanSpec(x_range=(-110.0, 90.0), y_range=(-250.1234567891, 249.9876543219),
                               z_range=(180.0, 480.0), resolution=21), None, None),
                     "310569c3e879fa99a7e9d60de8dbb3fd96eb4441589cc7f14fc859ec40523500"),
}


class TestLabelDigests:
    """The kernel's label bytes, pinned per grid at pass budgets from one group
    per pass to one pass per call."""

    @pytest.mark.parametrize("budget", [1, 12288, 10 ** 8])
    @pytest.mark.parametrize("name", LABEL_DIGESTS)
    def test_label_bytes_are_pinned(self, monkeypatch, name, budget):
        (spec, axis, value), digest = LABEL_DIGESTS[name]
        params = SPACER_PARAMS if name.startswith("spacer") else P
        monkeypatch.setattr(workspace, "_PASS_PAIRS", budget)
        assert label_digest(spec, params, axis, value) == digest
