import math
import random
from fractions import Fraction

import numpy as np
import pytest

from trirail import fk, ik, jacobian, workspace
from trirail.errors import CotangentSingular, NonComparable
from trirail.jacobian import SingularityKind
from trirail.params import MAX_LENGTH, JointInputs, Pose, REFERENCE_PARAMS
from trirail.verify import (
    REFERENCE_INPUTS,
    matching_ik_solution,
    sample_regular_configurations,
)

from test_ik import WORKED_POSE, boundary_pose_m3
from test_workspace import FALLBACK_Z

P = REFERENCE_PARAMS


def worked_configuration():
    pose = next(s for s in fk.solve(REFERENCE_INPUTS, P)
                if s.branch == (1, 1, 1)).pose
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
    row1, row2 = pair.jp[:2]
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
        off = [pair.jq[i][j] for i in range(3) for j in range(3) if i != j]
        assert off == [0.0] * 6

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
        assert pair.jp[0][0] == pytest.approx((cos_a / sin_a) * h12, rel=1e-12)
        assert pair.jp[0][2] == h12
        assert pair.jp[1][0] == pair.jp[0][0]
        assert pair.jp[0][1] == pair.u[0]
        assert pair.jp[1][1] == pair.u[1]
        assert pair.jp[2][1] == pair.u[2]


class TestDeterminantFactorisation:
    def test_cofactor_expansion_factors_symbolically(self):
        # the expansion jacobian.build and the workspace kernel both evaluate
        sympy = pytest.importorskip("sympy")
        cot_a, cot_b, h12, h3, u11, u22, u33 = sympy.symbols("cot_a cot_b h12 h3 u11 u22 u33")
        det = jacobian._det3(((cot_a * h12, u11, h12), (cot_a * h12, u22, h12),
                              (cot_b * h3, u33, h3)))
        assert sympy.expand(det - (u22 - u11) * h12 * h3 * (cot_a - cot_b)) == 0
        # u22 - u11 is the planar-loop gap B = yA1 - l3 - yA2 of det_jp_factors
        y, l3, y_a1, y_a2 = sympy.symbols("y l3 yA1 yA2")
        gap = ((y - l3 / 2) - y_a2) - ((y + l3 / 2) - y_a1)
        assert sympy.expand(gap - (y_a1 - l3 - y_a2)) == 0

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
        sol = next(s for s in fk.solve(inputs, P) if s.branch == (1, 1, 1))
        ik_sol = matching_ik_solution(sol.pose, inputs, P)
        deviation = jacobian.fd_check(sol.pose, ik_sol, P, step=1e-6)
        assert math.isfinite(deviation)

    def test_non_matching_pose_raises(self):
        pose, solution = worked_configuration()
        with pytest.raises(NonComparable):
            jacobian.fd_check(Pose(pose.x, pose.y, pose.z + 5.0), solution, P)

    def test_singular_jp_raises_non_comparable(self):
        # alpha = pi/2 and z = l1 + l4 put h12 = 0, so rows 1 and 2 of Jp are
        # (0, u, 0) and det Jp = 0 exactly on the working branches
        pose = Pose(P.d - P.b, 0.0, P.l1 + P.l4)
        working = [s for s in ik.solve(pose, P) if not s.parallel_singular]
        assert working
        for solution in working:
            assert jacobian.build(pose, solution, P).det_jp == 0.0
            with pytest.raises(NonComparable, match="Jp is singular"):
                jacobian.fd_check(pose, solution, P)


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
                       if s.branch == (1, 1, 1))
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


class TestLabel:
    @pytest.mark.parametrize("threshold", [jacobian.SINGULARITY_THRESHOLD, 0.5])
    @pytest.mark.parametrize("pose, count, folds", [
        pytest.param(WORKED_POSE, 8, 0, id="worked"),
        pytest.param(Pose(80.0, 0.0, 250.0), 8, 8, id="fold-x80"),
        pytest.param(boundary_pose_m3(), 4, 0, id="boundary-m3"),
        # x = -6 has no working branch
        pytest.param(Pose(-6.0, 0.0, FALLBACK_Z), 2, 0, id="fallback-x-6"),
    ])
    def test_each_branch_is_classify_of_build_or_none_on_fold(self, pose, count, folds,
                                                              threshold):
        solutions = ik.solve(pose, P, check_roundtrip=False)
        expected = []
        for solution in solutions:
            try:
                expected.append(jacobian.classify(jacobian.build(pose, solution, P), P,
                                                  threshold))
            except CotangentSingular:
                expected.append(None)
        labels = jacobian.label(pose, solutions, P, threshold)
        assert repr(labels) == repr(expected)
        assert (len(labels), labels.count(None)) == (count, folds)

    def test_no_solutions_no_labels(self):
        assert jacobian.label(WORKED_POSE, [], P) == []


def test_classification_of_sampled_regular_points_is_stable():
    for pose, solution in sample_regular_configurations(P, 10):
        pair = jacobian.build(pose, solution, P)
        cls = jacobian.classify(pair, P)
        assert cls.kind is SingularityKind.REGULAR
        assert jacobian.fd_check(pose, solution, P) <= 1e-5


def _fma(x, y, z):
    """x * y + z rounded once, computed exactly."""
    return float(Fraction(x) * Fraction(y) + Fraction(z))


def norm_rows():
    """300 seeded rows with entries from 1e-3 to 1e3 in magnitude, then extreme
    Jp rows: a cotangent entry at its bound MAX_LENGTH / COT_GUARD, signed
    zeros, and a u near 1e-13 beside h near l (u**2 + h**2 = l**2)."""
    rng = random.Random(20261018)
    rows = [[rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3)]
            for _ in range(300)]
    big = MAX_LENGTH / jacobian.COT_GUARD
    return rows + [[big, 1e-13, MAX_LENGTH], [-big, -0.0, -MAX_LENGTH],
                   [big, MAX_LENGTH, big], [0.0, -0.0, 0.0],
                   [-0.0, MAX_LENGTH, 0.0], [3.7e-4, -1.3e-13, 280.0]]


def test_row_norms_round_like_an_fma_dot():
    # classify's norms, and through them the pinned query digest, are
    # sqrt(fma(c, c, fma(b, b, a*a))); a plain a*a + b*b + c*c differs in the
    # last bit on about one row in twelve
    rows = norm_rows()
    expected = [math.sqrt(_fma(c, c, _fma(b, b, a * a))) for a, b, c in rows]
    assert [jacobian._row_norm(*row) for row in rows] == expected
    # the workspace kernel's np.matmul norms must round the same way
    columns = np.array(rows).T
    for shape in ((len(rows),), (2, 3, len(rows) // 6)):
        norms = workspace._norms(*(c.reshape(shape) for c in columns)).reshape(-1).tolist()
        mismatched = sum(n != e for n, e in zip(norms, expected))
        assert mismatched == 0, (
            f"{mismatched} of {len(rows)} row norms differ from sqrt(fma(c, c, fma(b, b, a*a))): "
            "numpy's BLAS dot kernel on this host does not round like an FMA dot, so "
            "the workspace determinants and the pinned CSV bytes will differ"
        )


def classify_with_three_norms(pair, params, threshold=jacobian.SINGULARITY_THRESHOLD):
    """``classify`` as it reads with one ``_row_norm`` call per Jp row."""
    u11, u22, u33 = pair.u
    n1, n2, n3 = (jacobian._row_norm(*row) for row in pair.jp)
    norm_det_jp = 0.0 if min(n1, n2, n3) == 0.0 else pair.det_jp / (n1 * n2 * n3)
    kind = jacobian._KINDS[jacobian._class_index(u11, u22, u33, params,
                                                 abs(norm_det_jp) <= threshold)]
    return jacobian.Classification(kind, norm_det_jp,
                                   (u11 / params.l2) * (u22 / params.l2) * (u33 / params.l6))


def hand_built_pair(row1, row2, row3):
    """A :class:`JacobianPair` of the given Jp rows, with u taken from their
    middle entries as ``build`` does."""
    jp = (tuple(row1), tuple(row2), tuple(row3))
    u11, u22, u33 = row1[1], row2[1], row3[1]
    jq = ((u11, 0.0, 0.0), (0.0, u22, 0.0), (0.0, 0.0, u33))
    return jacobian.JacobianPair(jp, jq, jacobian._det3(jp), u11 * u22 * u33)


def twin_row_cases():
    """(row 1, row 2, row 3, whether rows 1 and 2 share a norm) for seeded
    rows: row 2 equal to row 1, differing only in the sign of b, one ulp
    apart in |b|, or differing in a or in c; signed zeros among them."""
    rng = random.Random(20261020)
    cases = []
    for _ in range(40):
        a, b, c = (rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(3))
        row3 = [rng.uniform(-500.0, 500.0) for _ in range(3)]
        cases += [([a, b, c], [a, b, c], row3, True),
                  ([a, b, c], [a, -b, c], row3, True),
                  ([a, b, c], [a, math.nextafter(b, math.inf), c], row3, False),
                  ([a, b, c], [a, -math.nextafter(b, 0.0), c], row3, False),
                  ([a, b, c], [math.nextafter(a, math.inf), b, c], row3, False),
                  ([a, b, c], [a, b, -c], row3, False)]
    return cases + [([1.5, 0.0, 2.0], [1.5, -0.0, 2.0], [3.0, 4.0, 5.0], True),
                    ([-0.0, 3.0, 0.0], [0.0, -3.0, -0.0], [3.0, 4.0, 5.0], True),
                    ([0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [3.0, 4.0, 5.0], True)]


def test_twin_rows_share_one_norm(monkeypatch):
    norms = []
    row_norm = jacobian._row_norm

    def counted(a, b, c):
        norms.append((a, b, c))
        return row_norm(a, b, c)

    cases = twin_row_cases()
    expected = [repr(classify_with_three_norms(hand_built_pair(*rows[:3]), P)) for rows in cases]
    monkeypatch.setattr(jacobian, "_row_norm", counted)
    for (row1, row2, row3, twin), reference in zip(cases, expected):
        norms.clear()
        assert repr(jacobian.classify(hand_built_pair(row1, row2, row3), P)) == reference
        assert len(norms) == (2 if twin else 3), (row1, row2)
