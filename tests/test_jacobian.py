import math
import random

import numpy as np
import pytest

from trirail import fk, ik, jacobian
from trirail.errors import CotangentSingular, NonComparable
from trirail.jacobian import SingularityKind
from trirail.params import JointInputs, Pose, REFERENCE_PARAMS
from trirail.verify import (
    REFERENCE_INPUTS,
    matching_ik_solution,
    sample_regular_configurations,
)

from test_ik import boundary_pose_m3

P = REFERENCE_PARAMS


def worked_configuration():
    pose = next(s for s in fk.solve(REFERENCE_INPUTS, P)
                if s.branch.as_tuple() == (1, 1, 1)).pose
    solution = matching_ik_solution(pose, REFERENCE_INPUTS, P)
    assert solution is not None
    return pose, solution


def det_jp_factors(pose, solution):
    """(B, h12, h3, cot(alpha) - cot(beta)): det(Jp) is their product, with
    B = yA1 - l3 - yA2 the planar-loop gap."""
    b_value = solution.inputs.yA1 - P.l3 - solution.inputs.yA2
    h12 = (pose.z - P.l4 * math.sin(solution.alpha)) - P.l1
    h3 = (pose.z - P.l8 - P.l6 * math.sin(solution.beta) - P.l7) - P.l1
    cot_a = math.cos(solution.alpha) / math.sin(solution.alpha)
    cot_b = math.cos(solution.beta) / math.sin(solution.beta)
    return b_value, h12, h3, cot_a - cot_b


def assert_b_factor_vanishes(pose, solution, pair):
    """The parallel class comes from the B factor: |B| is the only factor of
    det(Jp) that vanishes at the threshold's scale, and rows 1 and 2 of Jp then
    coincide, differing by -B in the u column alone."""
    b_value, h12, h3, cot_gap = det_jp_factors(pose, solution)
    assert abs(b_value) / P.l2 <= jacobian.SINGULARITY_THRESHOLD
    assert min(abs(h12) / P.l2, abs(h3) / P.l6, abs(cot_gap)) > jacobian.SINGULARITY_THRESHOLD
    row1, row2 = pair.jp.tolist()[:2]
    assert (row1[0], row1[2]) == (row2[0], row2[2])
    assert row1[1] - row2[1] == pytest.approx(-b_value, abs=1e-9)


class TestBuild:
    def test_worked_configuration_diagonal(self):
        pose, solution = worked_configuration()
        pair = jacobian.build(pose, solution, P)
        assert pair.u[0] == pytest.approx(-83.006, abs=1e-3)
        assert pair.u[1] == pytest.approx(83.006, abs=1e-3)
        assert pair.u[2] == pytest.approx(34.363, abs=1e-3)
        assert pair.det_jq == pytest.approx(-2.368e5, rel=1e-3)

    def test_off_diagonal_exactly_zero(self):
        pose, solution = worked_configuration()
        pair = jacobian.build(pose, solution, P)
        off = pair.jq[~np.eye(3, dtype=bool)]
        assert np.all(off == 0.0)

    def test_det_jq_is_exact_product(self):
        pose, solution = worked_configuration()
        pair = jacobian.build(pose, solution, P)
        assert pair.det_jq == pair.u[0] * pair.u[1] * pair.u[2]

    def test_u_matches_radicand_mirror_identity(self):
        # u_ii = -/+sqrt(Mi) according to the chain root sign; chains 1 and 2 share M1
        for solution in ik.solve(Pose(-20.0, 30.0, 400.0), P, check_roundtrip=False):
            if solution.parallel_singular:
                continue
            pose = Pose(-20.0, 30.0, 400.0)
            pair = jacobian.build(pose, solution, P)
            roots = (math.sqrt(solution.M1), math.sqrt(solution.M1), math.sqrt(solution.M3))
            for u_i, sign, root in zip(pair.u, solution.branch.root_signs, roots):
                assert u_i == pytest.approx(-sign * root, abs=1e-9)

    def test_boundary_m3_zero_diagonal_entry(self):
        pose = boundary_pose_m3()
        for solution in ik.solve(pose, P, check_roundtrip=False):
            if 3 not in solution.serial_witnesses:
                continue
            pair = jacobian.build(pose, solution, P)
            assert pair.u[2] == 0.0
            assert pair.det_jq == 0.0

    def test_fold_raises_cotangent_singular(self):
        # x = 80 puts cos(alpha) = 1 exactly: distal link folded onto X
        pose = Pose(80.0, 0.0, 250.0)
        solution = ik.solve(pose, P, check_roundtrip=False)[0]
        with pytest.raises(CotangentSingular):
            jacobian.build(pose, solution, P)

    def test_rows_follow_the_constraint_gradients(self):
        pose, solution = worked_configuration()
        pair = jacobian.build(pose, solution, P)
        sin_a, cos_a = math.sin(solution.alpha), math.cos(solution.alpha)
        h12 = (pose.z - P.l4 * sin_a) - P.l1
        assert pair.jp[0, 0] == pytest.approx((cos_a / sin_a) * h12, rel=1e-12)
        assert pair.jp[0, 2] == h12
        assert pair.jp[1, 0] == pair.jp[0, 0]
        assert pair.jp[0, 1] == pair.u[0]
        assert pair.jp[1, 1] == pair.u[1]
        assert pair.jp[2, 1] == pair.u[2]


class TestDeterminantFactorisation:
    def test_analytic_factorisation_oracle(self):
        # det(Jp) = B * h12 * h3 * (cot(alpha) - cot(beta)) for every config
        rng = random.Random(2024)
        checked = 0
        while checked < 200:
            pose = Pose(rng.uniform(-100.0, 75.0), rng.uniform(-150.0, 150.0),
                        rng.uniform(150.0, 500.0))
            try:
                solutions = ik.solve(pose, P, check_roundtrip=False)
            except Exception:
                continue
            for solution in solutions:
                try:
                    pair = jacobian.build(pose, solution, P)
                except CotangentSingular:
                    continue
                checked += 1
                b_value, h12, h3, cot_gap = det_jp_factors(pose, solution)
                expected = b_value * h12 * h3 * cot_gap
                assert pair.det_jp == pytest.approx(expected, rel=1e-9, abs=1e-6)


class TestFdCheck:
    def test_worked_configuration_matches(self):
        pose, solution = worked_configuration()
        assert jacobian.fd_check(pose, solution, P, step=1e-6) <= 1e-5

    def test_truncation_shrinks_quadratically(self):
        pose, solution = worked_configuration()
        coarse = jacobian.fd_check(pose, solution, P, step=1.0)
        fine = jacobian.fd_check(pose, solution, P, step=0.1)
        assert 30.0 <= coarse / fine <= 300.0

    def test_near_singular_reports_without_failing(self):
        # small B: conditioning degrades but the check must still return
        inputs = JointInputs(REFERENCE_INPUTS.yA1, REFERENCE_INPUTS.yA1 - P.l3 - 0.05,
                             REFERENCE_INPUTS.yA3)
        sol = next(s for s in fk.solve(inputs, P) if s.branch.as_tuple() == (1, 1, 1))
        ik_sol = matching_ik_solution(sol.pose, inputs, P)
        deviation = jacobian.fd_check(sol.pose, ik_sol, P, step=1e-6)
        assert math.isfinite(deviation)

    def test_non_matching_pose_raises(self):
        pose, solution = worked_configuration()
        with pytest.raises(NonComparable):
            jacobian.fd_check(Pose(pose.x, pose.y, pose.z + 5.0), solution, P)


def min_norm_u(pair):
    """Smallest |u| normalised by its link length (l2, l2, l6)."""
    return min(abs(u) / length for u, length in zip(pair.u, (P.l2, P.l2, P.l6)))


class TestClassify:
    def test_worked_configuration_regular(self):
        pose, solution = worked_configuration()
        pair = jacobian.build(pose, solution, P)
        cls = jacobian.classify(pair, P)
        assert cls.kind is SingularityKind.REGULAR
        assert min_norm_u(pair) > jacobian.SERIAL_THRESHOLD
        assert abs(cls.norm_det_jp) > jacobian.SINGULARITY_THRESHOLD

    def test_serial_equivalence_invariant(self):
        # min normalised |u| at or below the serial threshold <=> serial class
        poses = [boundary_pose_m3(), Pose(-20.0, 30.0, 400.0)]
        for pose in poses:
            for solution in ik.solve(pose, P, check_roundtrip=False):
                try:
                    pair = jacobian.build(pose, solution, P)
                except CotangentSingular:
                    continue
                cls = jacobian.classify(pair, P)
                fired = min_norm_u(pair) <= jacobian.SERIAL_THRESHOLD
                is_serial = cls.kind in (SingularityKind.SERIAL,
                                         SingularityKind.COMPREHENSIVE)
                assert fired == is_serial

    def test_m3_boundary_classifies_serial_with_witness(self):
        pose = boundary_pose_m3()
        hits = 0
        for solution in ik.solve(pose, P, check_roundtrip=False):
            if 3 not in solution.serial_witnesses or solution.parallel_singular:
                continue
            pair = jacobian.build(pose, solution, P)
            cls = jacobian.classify(pair, P)
            assert cls.kind in (SingularityKind.SERIAL, SingularityKind.COMPREHENSIVE)
            assert pair.u[2] == 0.0
            hits += 1
        assert hits > 0

    def test_m1_boundary_is_comprehensive(self):
        # x = 8 gives cos(alpha) = 0.6 exactly; z chosen so M1 = 0 exactly.
        # The merged chain-1/2 roots force u11 = u22 = 0 AND equal Jp rows.
        pose = Pose(8.0, 0.0, P.l1 + P.l4 * 0.8 + P.l2)
        solutions = ik.solve(pose, P, check_roundtrip=False)
        hits = 0
        for solution in solutions:
            if 1 not in solution.serial_witnesses:
                continue
            assert solution.M1 == 0.0
            pair = jacobian.build(pose, solution, P)
            cls = jacobian.classify(pair, P)
            assert cls.kind is SingularityKind.COMPREHENSIVE
            assert pair.u[0] == 0.0 and pair.u[1] == 0.0
            assert_b_factor_vanishes(pose, solution, pair)
            hits += 1
        assert hits > 0

    def test_rows12_dependence_tracks_planar_loop_gap(self):
        # rows 1 and 2 of Jp depend exactly on u11 - u22 = -B
        for delta, expected in ((30.0, SingularityKind.REGULAR),
                                (0.05, SingularityKind.PARALLEL)):
            inputs = JointInputs(100.0, 100.0 - P.l3 - delta, 0.0)
            sol = next(s for s in fk.solve(inputs, P)
                       if s.branch.as_tuple() == (1, 1, 1))
            ik_sol = matching_ik_solution(sol.pose, inputs, P)
            pair = jacobian.build(sol.pose, ik_sol, P)
            cls = jacobian.classify(pair, P)
            assert cls.kind is expected
            if expected is SingularityKind.PARALLEL:
                assert_b_factor_vanishes(sol.pose, ik_sol, pair)

    def test_distal_rows_never_pairwise_dependent_on_sample(self):
        # the distal row (3) should stay independent of rows 1/2 for this
        # geometry; sampled, not asserted as a universal impossibility
        rng = random.Random(77)
        violations = []
        checked = 0
        while checked < 10000:
            x = rng.uniform(-100.0, 79.0)
            z = rng.uniform(150.0, 500.0)
            cos_a = (x + P.b - P.d) / P.l4
            cos_b = (x + P.d - P.b) / P.l6
            if abs(cos_a) >= 1.0 or abs(cos_b) >= 1.0:
                continue
            sin_a = rng.choice((1.0, -1.0)) * math.sqrt(1.0 - cos_a * cos_a)
            sin_b = rng.choice((1.0, -1.0)) * math.sqrt(1.0 - cos_b * cos_b)
            m1 = P.l2 ** 2 - ((z - P.l4 * sin_a) - P.l1) ** 2
            m3 = P.l6 ** 2 - ((z - P.l8 - P.l6 * sin_b - P.l7) - P.l1) ** 2
            if m1 <= 0.0 or m3 <= 0.0 or abs(sin_a) < 1e-6 or abs(sin_b) < 1e-6:
                continue
            checked += 1
            h12 = (z - P.l4 * sin_a) - P.l1
            h3 = (z - P.l8 - P.l6 * sin_b - P.l7) - P.l1
            row1 = np.array([(cos_a / sin_a) * h12, -math.sqrt(m1), h12])
            row3 = np.array([(cos_b / sin_b) * h3, -math.sqrt(m3), h3])
            n1, n3 = np.linalg.norm(row1), np.linalg.norm(row3)
            if n1 == 0.0 or n3 == 0.0:
                continue
            cross = np.linalg.norm(np.cross(row1 / n1, row3 / n3))
            if cross <= 1e-6:
                violations.append((x, z, sin_a, sin_b, cross))
        if violations:
            print("distal-row dependence found:", violations[:5])
        assert violations == []


def test_classification_of_sampled_regular_points_is_stable():
    for pose, solution in sample_regular_configurations(P, 10):
        pair = jacobian.build(pose, solution, P)
        cls = jacobian.classify(pair, P)
        assert cls.kind is SingularityKind.REGULAR
        assert jacobian.fd_check(pose, solution, P) <= 1e-5
