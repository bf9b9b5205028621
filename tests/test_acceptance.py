"""Acceptance suite: every shipped-contract criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> PASS ...` line (visible with -s); the
test names carry the criterion numbers so a plain `pytest -v` run also
reads as the acceptance report.  Criteria 1, 2, 5, 6 and 8 read the named
results of one :func:`trirail.verify.run_builtin_checks` run at the stated
tolerances and add only what ``verify`` does not check: the per-call timing
gates, the M3-boundary serial witness and the CLI report line.
"""

import random
import time

import pytest

from trirail import fk, ik, jacobian, workspace
from trirail.cli import main as cli_main
from trirail.errors import IndeterminateGamma, GammaOutOfRange
from trirail.jacobian import SingularityKind
from trirail.params import JointInputs, Pose, REFERENCE_PARAMS
from trirail.verify import (
    REFERENCE_INPUTS,
    REFERENCE_POSE,
    run_builtin_checks,
    sample_regular_configurations,
)
from trirail.workspace import ScanSpec

from conftest import CliRunner, random_feasible_inputs
from test_ik import boundary_pose_m3
from test_workspace import independent_feasible

P = REFERENCE_PARAMS

REFERENCE_SPEC = ScanSpec(
    x_range=(-110.0, 90.0), y_range=(-250.0, 250.0), z_range=(180.0, 480.0),
    resolution=21,
)

# Golden workspace counts, frozen from the first verified 21^3 run and
# cross-checked against the independent reach predicate below.
GOLDEN_21_FEASIBLE = 6741
GOLDEN_21_REGULAR = 6426
GOLDEN_21_SERIAL = 189
GOLDEN_21_PARALLEL = 126
GOLDEN_21_COMPREHENSIVE = 0


@pytest.fixture(scope="module")
def checks():
    """The built-in checks at the stated tolerances, by name."""
    results = run_builtin_checks(P, tol_direct=5e-3, tol_inverse=5e-2)
    return {r.name: r for r in results}


def _passed(checks, name):
    check = checks[name]
    assert check.passed, check.detail
    return check.detail


def _timed(fn, repeats=100):
    start = time.perf_counter()
    for _ in range(repeats):
        result = fn()
    elapsed = (time.perf_counter() - start) / repeats
    return result, elapsed


def test_criterion_1_direct_solution_reproduction(checks):
    detail = _passed(checks, "direct-worked-example")
    _, per_call = _timed(lambda: fk.solve(REFERENCE_INPUTS, P))
    assert per_call < 1e-3
    print(f"ACCEPTANCE 1 PASS - {detail}, {per_call * 1e6:.0f} us/call")


def test_criterion_2_inverse_solution_reproduction(checks):
    detail = _passed(checks, "inverse-worked-example")
    _, per_call = _timed(lambda: ik.solve(REFERENCE_POSE, P))
    assert per_call < 1e-3
    print(f"ACCEPTANCE 2 PASS - {detail}, {per_call * 1e6:.0f} us/call")


def test_criterion_3_roundtrip_over_feasible_grid():
    samples = workspace.scan(REFERENCE_SPEC, P)
    feasible = [Pose(x, y, z) for x, y, z, n in zip(samples.x, samples.y, samples.z,
                                                     samples.real_solution_count) if n]
    rng = random.Random(1234)
    chosen = rng.sample(feasible, 1000)
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for pose in chosen:
        for solution in ik.solve(pose, P):
            assert solution.consistent, (pose, solution.inputs, solution.roundtrip)
            worst = max(worst, solution.roundtrip_residual)
            count += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 5.0
    print(f"ACCEPTANCE 3 PASS - {count} inverse solutions over 1000 poses, "
          f"worst round-trip {worst:.2e} mm in {elapsed:.2f} s")


def test_criterion_4_jacobian_correctness():
    points = sample_regular_configurations(P, 100)
    assert len(points) == 100
    worst = 0.0
    for pose, solution in points:
        deviation = jacobian.fd_check(pose, solution, P, step=1e-6)
        worst = max(worst, deviation)
        pair = jacobian.build(pose, solution, P)
        assert pair.det_jq - pair.u[0] * pair.u[1] * pair.u[2] == 0.0
    assert worst <= 1e-5
    print(f"ACCEPTANCE 4 PASS - fd deviation <= {worst:.2e} on 100 regular "
          f"configurations; det(Jq) exact everywhere")


def test_criterion_5_singularity_structure(checks):
    detail = _passed(checks, "parallel-approach")

    pose = boundary_pose_m3()
    witnessed = 0
    for solution in ik.solve(pose, P, check_roundtrip=False):
        if 3 not in solution.serial_witnesses:
            continue
        pair = jacobian.build(pose, solution, P)
        cls = jacobian.classify(pair, P)
        assert cls.kind in (SingularityKind.SERIAL, SingularityKind.COMPREHENSIVE)
        assert pair.u[2] == 0.0
        witnessed += 1
    assert witnessed > 0
    print(f"ACCEPTANCE 5 PASS - {detail}; M3 = 0 classifies serial (witness 3)")


def test_criterion_6_topology_fixture(checks):
    detail = _passed(checks, "topology-fixture")
    print(f"ACCEPTANCE 6 PASS - {detail}")


def test_criterion_7_partial_decoupling_bitwise():
    """Each FK branch's y is bitwise constant while rail 3 moves, for 100
    random input pairs.

    ``verify``'s ``output-decoupling`` check sweeps rail 3 at the worked
    inputs only. This wider check stays in the tests: it takes 40-48 ms on a
    2-core Xeon, against 3.6-4.6 ms for all of ``run_builtin_checks``, so in
    ``verify`` it would make every ``trirail verify`` 11-12 times slower.
    """
    rng = random.Random(42)
    pairs_checked = 0
    groups_checked = 0
    while pairs_checked < 100:
        base = random_feasible_inputs(rng)
        branch_y: dict[tuple, set] = {}
        solutions_seen = 0
        for k in range(10):
            inputs = JointInputs(base.yA1, base.yA2, base.yA3 + (k - 5) * 10.0)
            try:
                solutions = fk.solve(inputs, P)
            except (IndeterminateGamma, GammaOutOfRange):
                solutions = []
            for sol in solutions:
                branch_y.setdefault(sol.branch, set()).add(sol.pose.y)
                solutions_seen += 1
        if solutions_seen == 0:
            continue
        pairs_checked += 1
        for branch, ys in branch_y.items():
            assert len(ys) == 1, (base, branch, ys)
            groups_checked += 1
    assert groups_checked >= 100
    print(f"ACCEPTANCE 7 PASS - y bitwise constant across the rail-3 sweep for "
          f"{pairs_checked} input pairs ({groups_checked} branch groups)")


def test_criterion_8_spurious_branch_detection(checks):
    detail = _passed(checks, "spurious-elbow-rejected")

    result = CliRunner().invoke(cli_main, ["verify"])
    assert result.exit_code == 0
    report_line = next(line for line in result.output.splitlines()
                       if "direct-alternate-rows" in line)
    assert report_line.startswith("PASS")
    assert "row 1" in report_line and "row 2" in report_line and "row 4" in report_line
    print(f"ACCEPTANCE 8 PASS - {detail}; verify reports alternate-row residuals "
          f"as documentation")


def test_criterion_9_workspace_determinism_and_plausibility(tmp_path):
    start = time.perf_counter()
    samples = workspace.scan(REFERENCE_SPEC, P)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0

    counts = workspace.summary(samples)
    assert counts["feasible"] == GOLDEN_21_FEASIBLE
    assert counts["regular"] == GOLDEN_21_REGULAR
    assert counts["serial"] == GOLDEN_21_SERIAL
    assert counts["parallel"] == GOLDEN_21_PARALLEL
    assert counts["comprehensive"] == GOLDEN_21_COMPREHENSIVE
    assert counts["feasible"] > 0

    # brute-force per-point oracle: reach arithmetic, no ik module involved
    oracle_feasible = sum(map(independent_feasible, map(Pose, samples.x, samples.y, samples.z)))
    assert oracle_feasible == counts["feasible"]

    # the grid cell containing the starred worked-example pose is feasible
    def nearest(values, target):
        return min(values, key=lambda v: abs(v - target))
    xs = [-110.0 + 10.0 * i for i in range(21)]
    ys = [-250.0 + 25.0 * i for i in range(21)]
    zs = [180.0 + 15.0 * i for i in range(21)]
    cell = (nearest(xs, REFERENCE_POSE.x), nearest(ys, REFERENCE_POSE.y),
            nearest(zs, REFERENCE_POSE.z))
    cell_index = list(zip(samples.x, samples.y, samples.z)).index(cell)
    assert samples.real_solution_count[cell_index] > 0

    # byte determinism across repeat runs and worker counts
    paths = [tmp_path / name for name in ("run1.csv", "run2.csv", "run4.csv")]
    workspace.export(samples, "csv", paths[0])
    workspace.export(workspace.scan(REFERENCE_SPEC, P), "csv", paths[1])
    workspace.export(workspace.scan(REFERENCE_SPEC, P, workers=4), "csv", paths[2])
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    assert len(blobs[0].decode().splitlines()) == 21 ** 3 + 1  # header + data rows
    print(f"ACCEPTANCE 9 PASS - 21^3 scan in {elapsed:.2f} s, byte-identical across "
          f"runs and worker counts; feasible {counts['feasible']} (oracle-matched), "
          f"starred cell feasible")
