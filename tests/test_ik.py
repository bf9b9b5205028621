import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trirail import fk, ik
from trirail.errors import Unreachable
from trirail.params import JointInputs, Pose, REFERENCE_PARAMS

from conftest import random_feasible_inputs
from test_workspace import REFERENCE_BOX, grid

P = REFERENCE_PARAMS
WORKED_POSE = Pose(-15.4714, 9.6849, 456.3315)
WORKED_INVERSE = (162.6909, -143.3211, -24.6778)

# Documented inverse table for the worked pose (8 real solutions).
DOCUMENTED_INVERSE_SET = (
    (-3.3211, -143.3211, -24.6778),
    (-3.3211, -143.3211, 44.0476),
    (-3.3211, 22.6909, -24.6778),
    (-3.3211, 22.6909, 44.0476),
    (162.6909, -143.3211, -24.6778),
    (162.6909, -143.3211, 44.0476),
    (162.6909, 22.6909, -24.6778),
    (162.6909, 22.6909, 44.0476),
)


def real_count(pose):
    """Real inverse solutions of ``pose``; an unreachable x counts as none."""
    try:
        return len(ik.solve(pose, P, check_roundtrip=False))
    except Unreachable:
        return 0


def boundary_pose_m3():
    """Pose engineered so M3 = 0 exactly for the beta > 0 branch.

    x = -38 makes cos(beta) = -138/230 = -0.6 and sin(beta) = 0.8 exact;
    z = l1 + l6*0.8 + l6 puts C3 exactly l6 above the rail link top.
    """
    x = -38.0
    z = P.l1 + P.l6 * 0.8 + P.l6
    return Pose(x, 0.0, z)


class TestSolveWorkedExample:
    def test_eight_real_solutions_match_documentation(self):
        solutions = ik.solve(WORKED_POSE, P)
        assert len(solutions) == 8
        got = [s.inputs.as_tuple() for s in solutions]
        for mine, documented in zip(got, DOCUMENTED_INVERSE_SET):
            assert mine == pytest.approx(documented, abs=5e-2)

    def test_contains_starred_inputs(self):
        solutions = ik.solve(WORKED_POSE, P)
        best = min(
            max(abs(a - b) for a, b in zip(s.inputs.as_tuple(), WORKED_INVERSE))
            for s in solutions
        )
        assert best <= 5e-2

    def test_all_roundtrip_consistent(self):
        solutions = ik.solve(WORKED_POSE, P)
        assert all(s.consistent for s in solutions)
        direct = [s for s in solutions if s.roundtrip == "direct"]
        pinned = [s for s in solutions if s.roundtrip == "singular-family"]
        assert len(direct) == 4 and len(pinned) == 4
        assert all(s.parallel_singular for s in pinned)
        assert not any(s.parallel_singular for s in direct)

    def test_same_sign_roots_sit_exactly_on_the_loop_singularity(self):
        for s in ik.solve(WORKED_POSE, P):
            same_sign = s.branch.root_signs[0] == s.branch.root_signs[1]
            assert s.parallel_singular == same_sign
            if same_sign:
                assert s.inputs.yA1 - s.inputs.yA2 == pytest.approx(P.l3, abs=1e-9)

    def test_sorted_by_inputs(self):
        got = [s.inputs.as_tuple() for s in ik.solve(WORKED_POSE, P)]
        assert got == sorted(got)


class TestDomainErrors:
    def test_x_too_large(self):
        with pytest.raises(Unreachable):
            ik.solve(Pose(200.0, 0.0, 300.0), P)

    def test_empty_when_all_radicands_negative(self):
        # x reachable, z far above any chain configuration
        assert ik.solve(Pose(0.0, 0.0, 900.0), P) == []

    def test_count_real_zero_for_unreachable(self):
        assert real_count(Pose(200.0, 0.0, 300.0)) == 0


class TestCountReal:
    def test_worked_pose_counts_eight(self):
        assert real_count(WORKED_POSE) == 8

    def test_boundary_m3_merges_chain3_roots(self):
        pose = boundary_pose_m3()
        solutions = ik.solve(pose, P, check_roundtrip=False)
        boundary = [s for s in solutions if 3 in s.serial_witnesses]
        assert boundary, "expected the beta>0 branch to hit M3 = 0 exactly"
        for s in boundary:
            assert s.M3 == 0.0
            assert s.inputs.yA3 == pose.y  # merged root collapses onto yC3
        # crossing the boundary in z toggles the chain-3 root pair
        below = real_count(Pose(pose.x, pose.y, pose.z - 1.0))
        above = real_count(Pose(pose.x, pose.y, pose.z + 1.0))
        at = real_count(pose)
        assert below > at > above or below > at >= above

    def test_independent_quadratic_root_count(self):
        # chain-by-chain: rail positions are roots of an explicit quadratic
        pose = Pose(-20.0, 30.0, 400.0)
        solutions = ik.solve(pose, P, check_roundtrip=False)
        by_branch = {}
        for s in solutions:
            by_branch.setdefault((s.branch.alpha_sign, s.branch.beta_sign), []).append(s)
        for (s_alpha, s_beta), sols in by_branch.items():
            alpha = s_alpha * math.acos((pose.x + P.b - P.d) / P.l4)
            beta = s_beta * math.acos((pose.x + P.d - P.b) / P.l6)
            z_c1 = pose.z - P.l4 * math.sin(alpha)
            z_c3 = pose.z - P.l8 - P.l6 * math.sin(beta) - P.l7
            for y_c, z_c, link, index in (
                (pose.y + P.l3 / 2.0, z_c1, P.l2, 0),
                (pose.y - P.l3 / 2.0, z_c1, P.l2, 1),
                (pose.y, z_c3, P.l6, 2),
            ):
                roots = np.roots([1.0, -2.0 * y_c,
                                  y_c * y_c - link * link + (z_c - P.l1) ** 2])
                real = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)
                got = sorted({s.inputs.as_tuple()[index] for s in sols})
                assert got == pytest.approx(real, abs=1e-6)


class TestRoundtrip:
    def test_roundtrip_of_derived_direct_case(self):
        # exact composition: fk pose of (70, -90, 0) must invert back to it
        pose = next(
            s.pose for s in fk.solve(JointInputs(70.0, -90.0, 0.0), P)
            if s.pose.z > 400.0
        )
        solutions = ik.solve(pose, P)
        best = min(
            max(abs(s.inputs.yA1 - 70.0), abs(s.inputs.yA2 + 90.0), abs(s.inputs.yA3))
            for s in solutions
        )
        assert best <= 1e-6

    def test_fixpoint_of_ik_fk_ik(self):
        first = ik.solve(WORKED_POSE, P)
        for sol in first:
            if sol.roundtrip != "direct":
                continue
            matches = [
                s for s in fk.solve(sol.inputs, P)
                if max(abs(s.pose.x - WORKED_POSE.x), abs(s.pose.y - WORKED_POSE.y),
                       abs(s.pose.z - WORKED_POSE.z)) <= 1e-6
            ]
            assert matches
            again = ik.solve(matches[0].pose, P)
            paired = [
                t for t in again
                if max(abs(a - b) for a, b in zip(t.inputs.as_tuple(), sol.inputs.as_tuple())) <= 1e-9
            ]
            assert len(paired) == 1

    def test_mirror_symmetry_midpoints(self):
        solutions = ik.solve(WORKED_POSE, P, check_roundtrip=False)
        by_branch = {}
        for s in solutions:
            key = (s.branch.alpha_sign, s.branch.beta_sign,
                   s.branch.root_signs[1], s.branch.root_signs[2])
            by_branch.setdefault(key, []).append(s)
        y_c1 = WORKED_POSE.y + P.l3 / 2.0
        pairs = 0
        for sols in by_branch.values():
            if len(sols) == 2:
                mid = (sols[0].inputs.yA1 + sols[1].inputs.yA1) / 2.0
                assert mid == pytest.approx(y_c1, abs=1e-9)
                pairs += 1
        assert pairs == 4


class TestBranchStructure:
    def test_count_is_product_of_root_factors(self):
        rng = random.Random(555)
        checked = 0
        while checked < 30:
            pose = Pose(rng.uniform(-100.0, 75.0), rng.uniform(-150.0, 150.0),
                        rng.uniform(150.0, 500.0))
            try:
                solutions = ik.solve(pose, P, check_roundtrip=False)
            except Unreachable:
                continue
            checked += 1
            assert len(solutions) <= 32
            expected = 0
            alpha_base = math.acos((pose.x + P.b - P.d) / P.l4)
            beta_base = math.acos((pose.x + P.d - P.b) / P.l6)
            for s_alpha in {alpha_base, -alpha_base}:
                m1 = P.l2 ** 2 - ((pose.z - P.l4 * math.sin(s_alpha)) - P.l1) ** 2
                for s_beta in {beta_base, -beta_base}:
                    z_c3 = pose.z - P.l8 - P.l6 * math.sin(s_beta) - P.l7
                    m3 = P.l6 ** 2 - (z_c3 - P.l1) ** 2
                    if m1 < 0.0 or m3 < 0.0:
                        continue
                    r1 = 1 if m1 == 0.0 else 2
                    r3 = 1 if m3 == 0.0 else 2
                    expected += r1 * r1 * r3
            assert len(solutions) == expected


@settings(max_examples=30, deadline=None)
@given(st.floats(-100.0, 75.0), st.floats(-120.0, 120.0), st.floats(200.0, 460.0))
def test_roundtrip_property(x, y, z):
    try:
        solutions = ik.solve(Pose(x, y, z), P)
    except Unreachable:
        return
    for sol in solutions:
        assert sol.consistent, (sol.inputs, sol.roundtrip, sol.roundtrip_residual)
        assert sol.roundtrip_residual <= 1e-6


def test_roundtrip_against_random_fk_images():
    rng = random.Random(31337)
    checked = 0
    while checked < 40:
        inputs = random_feasible_inputs(rng)
        try:
            fk_solutions = fk.solve(inputs, P)
        except Exception:
            continue
        for fk_sol in fk_solutions:
            checked += 1
            matches = [
                s for s in ik.solve(fk_sol.pose, P)
                if max(abs(a - b) for a, b in zip(s.inputs.as_tuple(), inputs.as_tuple())) <= 1e-6
            ]
            assert matches, (inputs, fk_sol.pose)


def roundtrip_oracle(pose, sol):
    """The round trip over the whole direct map: min pose deviation over both elbows.

    Direct branches take every ``fk.solve`` answer; parallel-singular ones
    pin gamma from the solution, as ``ik.solve`` does.
    """
    if sol.parallel_singular:
        z_c1 = pose.z - P.l4 * math.sin(sol.alpha)
        answers = fk.solve_at_gamma(sol.inputs, P, (pose.y + P.l3 / 2.0 - sol.inputs.yA1) / P.l2,
                                    (z_c1 - P.l1) / P.l2)
        mode = "singular-family"
    else:
        answers = fk.solve(sol.inputs, P)
        mode = "direct"
    best = min((max(abs(a.pose.x - pose.x), abs(a.pose.y - pose.y), abs(a.pose.z - pose.z))
                for a in answers), default=math.inf)
    return (mode if best <= ik.ROUNDTRIP_TOL else "failed"), best


def grid_poses():
    """Seeded poses of the 21^3 reference grid, both fold planes, two edge poses."""
    xs, ys, zs = (grid(REFERENCE_BOX[k], 21) for k in ("x_range", "y_range", "z_range"))
    rng = random.Random(2024)
    box = [Pose(rng.choice(xs), rng.choice(ys), rng.choice(zs)) for _ in range(600)]
    folds = [Pose(x, y, z) for x in (80.0, -130.0)
             for y in grid(REFERENCE_BOX["y_range"], 5) for z in grid(REFERENCE_BOX["z_range"], 9)]
    # x = d - b makes alpha = pi/2, so z = l1 + l4 puts C1 at rail-link height:
    # sin(gamma) = 0 on the alpha > 0 branches and both elbows coincide
    return box + folds + [boundary_pose_m3(), Pose(P.d - P.b, 0.0, P.l1 + P.l4)]


def test_roundtrip_on_the_own_elbow_matches_the_full_direct_map():
    zero_sin_gamma = 0
    checked = 0
    for pose in grid_poses():
        try:
            solutions = ik.solve(pose, P)
        except Unreachable:
            continue
        for sol in solutions:
            label, residual = roundtrip_oracle(pose, sol)
            assert sol.roundtrip == label, (pose, sol.branch)
            assert sol.roundtrip_residual.hex() == residual.hex(), (pose, sol.branch)
            checked += 1
            zero_sin_gamma += pose.z - P.l4 * math.sin(sol.alpha) == P.l1
    assert checked > 500
    assert zero_sin_gamma > 0


def test_ik_reaches_fk_only_through_module_attributes():
    """``ik`` names FK functions as ``fk.<name>`` at each call, so rebinding a
    module attribute (a tracer, ``monkeypatch``) reaches every call."""
    tree = ast.parse(Path(ik.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "fk" for alias in node.names}
    attribute_of = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    bare = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "fk" and id(node) not in attribute_of]
    assert imported == set()
    assert bare == []
