import ast
import math
import random
import struct
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from trirail import fk
from trirail.errors import (
    AlphaUnreachable,
    ChainIIUnreachable,
    GammaOutOfRange,
    IndeterminateGamma,
)
from trirail.params import MAX_LENGTH, JointInputs, Pose, REFERENCE_PARAMS

from _closure_oracle import oracle_poses
from conftest import random_feasible_inputs, readers

P = REFERENCE_PARAMS
WORKED_INPUTS = JointInputs(162.6907, -143.3209, -24.6776)
WORKED_POSE = (-15.4714, 9.6849, 456.3315)

# Frozen from the verified first run, cross-checked by the closure oracle.
WORKED_SOLUTION_SET = (
    (-83.087262, 9.6849, -58.209926),
    (-83.087262, 9.6849, 118.209926),
    (-15.471376, 9.6849, -396.331547),
    (-15.471376, 9.6849, 456.331547),
)
DERIVED_INPUTS = JointInputs(70.0, -90.0, 0.0)
DERIVED_POSE = (-6.506683, -10.0, 463.636195)


def feasible_inputs_strategy():
    def build(y_a1, magnitude, sign, frac):
        b_value = magnitude if sign else -magnitude
        y_a2 = y_a1 - P.l3 - b_value
        y_mid = y_a1 - b_value / 2.0 - P.l3 / 2.0
        return JointInputs(y_a1, y_a2, y_mid + frac * 0.9 * P.l6)

    return st.builds(
        build,
        st.floats(-200.0, 200.0),
        st.floats(5.0, 0.9 * 2.0 * P.l2),
        st.booleans(),
        st.floats(-1.0, 1.0),
    )


class TestSolveGamma:
    def test_worked_example_values(self):
        cos_g, sines = fk.solve_gamma(WORKED_INPUTS, P)
        assert cos_g == pytest.approx(-0.2964493, abs=1e-7)
        # documented sine is only good to ~2e-6 against its own cosine
        assert sines[0] == pytest.approx(0.9550467, abs=5e-6)
        assert sines[1] == -sines[0]

    def test_exact_closure_of_cosine(self):
        # -B/(2*l2) must sit exactly on the planar-loop closure circle
        cos_g, sines = fk.solve_gamma(WORKED_INPUTS, P)
        B = WORKED_INPUTS.yA1 - P.l3 - WORKED_INPUTS.yA2
        radius = math.hypot(B + P.l2 * cos_g, P.l2 * sines[0])
        assert radius == pytest.approx(P.l2, abs=1e-9)

    def test_zero_b_is_singular(self):
        with pytest.raises(IndeterminateGamma):
            fk.solve_gamma(JointInputs(100.0, -40.0, 0.0), P)

    def test_plain_arithmetic_case(self):
        cos_g, _ = fk.solve_gamma(JointInputs(210.0, 0.0, 0.0), P)
        assert cos_g == -0.125

    def test_out_of_range(self):
        with pytest.raises(GammaOutOfRange):
            fk.solve_gamma(JointInputs(1000.0, 0.0, 0.0), P)


class TestSolveT:
    def test_worked_example_roots(self):
        gamma = math.atan2(0.9550467, -0.2964493)
        roots = fk.solve_t(gamma, -24.6776, 9.6849, P)
        assert sorted(roots) == pytest.approx([-494.8317, -39.9945], abs=1e-3)

    def test_unreachable_when_rail3_too_far(self):
        with pytest.raises(ChainIIUnreachable):
            fk.solve_t(1.0, 500.0, 0.0, P)

    def test_symmetric_case(self):
        # y == yA3 gives t = -H1 +/- l6 exactly
        gamma = 0.7
        h1 = P.l2 * math.sin(gamma)
        roots = fk.solve_t(gamma, 12.5, 12.5, P)
        assert roots == (-h1 + P.l6, -h1 - P.l6)


def alpha_candidates(t):
    """(sign, alpha, beta) of each ``fk._alpha_roots`` root of a chain offset t
    whose ``fk._candidate`` beta is on the unit circle."""
    out = []
    for sign, alpha in fk._alpha_roots(t, P):
        beta = candidate_beta(alpha, t, P)
        if beta is not None:
            out.append((sign, alpha, beta))
    return out


def candidate_beta(alpha, t, params):
    """The beta ``fk._candidate`` recovers on (t, alpha), or None off the unit circle.

    The elbow's y, sin(gamma) and r1 and rail 3 are 0: beta does not depend on them.
    """
    candidate = fk._candidate(params, 0.0, 0.0, 0.0, 0.0, t, alpha)
    return None if candidate is None else candidate[2]


class TestSolveAlpha:
    """``fk._alpha_roots`` with ``fk._candidate``: (sign, alpha, beta) triples for a chain offset t."""

    @staticmethod
    def alphas(t):
        candidates = alpha_candidates(t)
        return [alpha for _, alpha, _ in candidates]

    def test_worked_example_contains_documented_root(self):
        alphas = self.alphas(-39.9945)
        matches = [a for a in alphas
                   if math.cos(a) == pytest.approx(0.469603, abs=1e-5)
                   and math.sin(a) == pytest.approx(0.882877, abs=1e-5)]
        assert len(matches) == 1

    def test_every_root_satisfies_the_loop_equation(self):
        for t in (-39.9945, -100.0, 150.0, 0.0):
            from trirail.fk import _alpha_coefficients
            J1, J2, J3 = _alpha_coefficients(t, P)
            for alpha in self.alphas(t):
                assert J1 * math.sin(alpha) + J2 * math.cos(alpha) + J3 == pytest.approx(
                    0.0, abs=1e-6
                )

    def test_triangle_inequality(self):
        with pytest.raises(AlphaUnreachable):
            alpha_candidates(P.l4 + P.l6 + 1.0)

    def test_t_zero_roots_are_symmetric_and_close_the_x_loop(self):
        candidates = alpha_candidates(0.0)
        assert len(candidates) == 2
        assert candidates[0][1] == pytest.approx(-candidates[1][1], abs=1e-12)
        for _, alpha, beta in candidates:
            sin_b = (P.l4 * math.sin(alpha) - 0.0) / P.l6
            cos_b = (P.l4 * math.cos(alpha) + 2 * P.d - 2 * P.b) / P.l6
            assert sin_b ** 2 + cos_b ** 2 == pytest.approx(1.0, abs=1e-12)
            assert beta == math.atan2(sin_b, cos_b)


class TestSolve:
    def test_contains_worked_pose(self):
        solutions = fk.solve(WORKED_INPUTS, P)
        best = min(
            max(abs(s.pose.x - WORKED_POSE[0]), abs(s.pose.y - WORKED_POSE[1]),
                abs(s.pose.z - WORKED_POSE[2]))
            for s in solutions
        )
        assert best <= 5e-3

    def test_full_solution_set_frozen(self):
        solutions = fk.solve(WORKED_INPUTS, P)
        assert len(solutions) == len(WORKED_SOLUTION_SET)
        for sol, expected in zip(solutions, WORKED_SOLUTION_SET):
            assert sol.pose.as_tuple() == pytest.approx(expected, abs=1e-5)

    def test_singular_inputs_raise(self):
        with pytest.raises(IndeterminateGamma):
            fk.solve(JointInputs(100.0, -40.0, 0.0), P)

    def test_derived_case_confirmed_by_oracle(self):
        solutions = fk.solve(DERIVED_INPUTS, P)
        assert any(
            sol.pose.as_tuple() == pytest.approx(DERIVED_POSE, abs=1e-5)
            for sol in solutions
        )
        assert oracle_poses(DERIVED_INPUTS, P) == tuple(
            tuple(round(v, 5) for v in s.pose.as_tuple()) for s in solutions
        )

    def test_empty_when_rail3_out_of_reach(self):
        # regular gamma, but |y - yA3| > l6 for both elbows
        solutions = fk.solve(JointInputs(0.0, -150.0, 500.0), P)
        assert solutions == []

    def test_sorted_lexicographically(self):
        solutions = fk.solve(WORKED_INPUTS, P)
        keys = [s.pose.as_tuple() for s in solutions]
        assert keys == sorted(keys)

    def test_residuals_below_tolerance(self):
        for sol in fk.solve(WORKED_INPUTS, P):
            assert sol.residual <= 1e-6
            recomputed = fk.residuals(sol.pose, sol.intermediates, WORKED_INPUTS, P)
            assert max(recomputed) == sol.residual


class TestResiduals:
    def test_worked_example_row_survives_reconstruction(self):
        # 4-decimal published values close the loops to table-rounding level
        from trirail.verify import pose_consistency_residual
        from trirail.params import Pose
        residual = pose_consistency_residual(
            Pose(*WORKED_POSE), WORKED_INPUTS, P
        )
        assert residual <= 1e-2

    def test_spurious_elbow_rejected_loudly(self):
        cos_g, sines = fk.solve_gamma(WORKED_INPUTS, P)
        candidates = fk.enumerate_candidates(WORKED_INPUTS, P, -cos_g, sines)
        assert candidates, "flipped elbow should still assemble candidates"
        for cand in candidates:
            assert cand.residual_vector[0] == pytest.approx(85.4035, abs=1e-3)

    def test_flipped_candidates_never_emitted(self):
        cos_g, sines = fk.solve_gamma(WORKED_INPUTS, P)
        flipped = fk.enumerate_candidates(WORKED_INPUTS, P, -cos_g, sines)
        emitted = fk.solve(WORKED_INPUTS, P)
        for cand in flipped:
            for sol in emitted:
                assert abs(cand.pose.x - sol.pose.x) > 1e-3 or \
                       abs(cand.pose.y - sol.pose.y) > 1e-3


class TestSolveAtGamma:
    def test_reproduces_regular_solution(self):
        base = fk.solve(WORKED_INPUTS, P)[0]
        pinned = fk.solve_at_gamma(
            WORKED_INPUTS, P,
            math.cos(base.intermediates.gamma), math.sin(base.intermediates.gamma),
        )
        assert any(
            s.pose.as_tuple() == pytest.approx(base.pose.as_tuple(), abs=1e-9)
            for s in pinned
        )

    def test_off_circle_gamma_yields_nothing(self):
        assert fk.solve_at_gamma(WORKED_INPUTS, P, 0.9, 0.9) == []


def circle_params(l4):
    """Parameters whose t-definition and X-closure give sin beta = l4 * sin(alpha) - t
    and cos beta = l4 * cos(alpha), both exactly: l6 = 1 and 2d - 2b cancels
    without rounding."""
    return P._replace(b=2.0 ** -30, d=2.0 ** -30, l4=l4, l6=1.0)


def float_bits(value):
    return struct.unpack("<q", struct.pack("<d", value))[0]


def bits_float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def last_on_circle(off_circle, lo, hi):
    """The largest float in [lo, hi) with ``off_circle(v) <= CIRCLE_TOL``, for a
    non-decreasing ``off_circle`` that holds at ``lo`` and fails at ``hi``;
    bisects the bit patterns, which order non-negative floats."""
    lo, hi = float_bits(lo), float_bits(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if off_circle(bits_float(mid)) <= fk.CIRCLE_TOL else (lo, mid)
    return bits_float(lo)


class TestRecoverBeta:
    """The unit-circle test on the beta that ``fk._candidate`` recovers."""

    @pytest.mark.parametrize("alpha", [0.0, math.pi])
    def test_cosine_past_one_plus_tolerance_is_rejected(self, alpha):
        params = circle_params(math.nextafter(1.0 + fk.CIRCLE_TOL, 2.0))
        assert abs(params.l4 * math.cos(alpha)) == params.l4
        assert candidate_beta(alpha, 0.0, params) is None

    @pytest.mark.parametrize("alpha", [0.0, math.pi])
    def test_cosine_edge_of_the_circle_tolerance(self, alpha):
        # sin beta = 0 (to 1e-16 at alpha = pi): the circle test alone decides
        edge = last_on_circle(lambda c: c * c - 1.0, 1.0, 1.0 + fk.CIRCLE_TOL)
        beyond = math.nextafter(edge, 2.0)
        assert beyond < 1.0 + fk.CIRCLE_TOL
        assert candidate_beta(alpha, 0.0, circle_params(edge)) == pytest.approx(alpha)
        assert candidate_beta(alpha, 0.0, circle_params(beyond)) is None

    def test_sine_edge_of_the_circle_tolerance(self):
        # cos beta = 1 exactly and sin beta = -t
        edge = last_on_circle(lambda t: t * t + 1.0 - 1.0, 0.0, 1e-4)
        params = circle_params(1.0)
        assert candidate_beta(0.0, edge, params) == math.atan2(-edge, 1.0)
        assert candidate_beta(0.0, math.nextafter(edge, 1.0), params) is None


#: Two candidates within these of each other in x, y and z (mm) and in gamma,
#: alpha and beta (rad) are one solution.
SAME_MM = 2e-9
SAME_RAD = 2e-12


def coincident(a, b):
    return (all(abs(u - v) <= SAME_MM for u, v in zip(a.pose.as_tuple(), b.pose.as_tuple()))
            and all(abs(u - v) <= SAME_RAD
                    for u, v in zip(a.intermediates[:3], b.intermediates[:3])))


def pose_then_angles(sol):
    """(x, y, z, gamma, alpha, beta): the order of solve's output."""
    return (*sol.pose, *sol.intermediates[:3])


def candidate(x, y, z, gamma, alpha, beta, residual=0.0):
    return fk.FkSolution(Pose(x, y, z), fk.FkBranch(1, 1, 1),
                         fk.FkIntermediates(gamma, alpha, beta, 0.0), residual, (residual,) * 4)


#: anchor coordinates (mm): zero, worked-example values, a rounding midpoint, and
#: values near and beyond MAX_LENGTH, where the ulp nears or exceeds 1e-9
MM_ANCHORS = (0.0, -83.087262, 456.331547, 0.5e-9, MAX_LENGTH, -MAX_LENGTH,
              3.0 * MAX_LENGTH, 1e7)
RAD_ANCHORS = (0.0, 1.2345678901235, 0.5e-12, -math.pi, math.pi)


@st.composite
def candidate_lists(draw):
    """Candidates that copy one of a few anchors (a copy is a double root) and move
    some coordinates by up to 2.5 rounding steps, so that neighbours coincide,
    straddle a rounding boundary or just miss the merge tolerance; some carry a
    signed zero or fail closure."""
    anchors = draw(st.lists(st.tuples(*[st.sampled_from(MM_ANCHORS)] * 3,
                                      *[st.sampled_from(RAD_ANCHORS)] * 3),
                            min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(1, 8))):
        coords = list(draw(st.sampled_from(anchors)))
        for i in draw(st.sets(st.integers(0, 5), max_size=6)):
            coords[i] += draw(st.integers(-25, 25)) * (1e-10 if i < 3 else 1e-13)
            if coords[i] == 0.0 and draw(st.booleans()):
                coords[i] = -0.0
        residual = draw(st.sampled_from((0.0, 5e-7, fk.CLOSURE_TOL, 2e-6)))
        out.append(candidate(*coords, residual))
    return out


@settings(max_examples=200, deadline=None)
@given(candidate_lists())
# 0.8e-9 mm apart: one kept
@example([candidate(-0.4e-9, 1.0, 2.0, 0.1, 0.2, 0.3), candidate(0.4e-9, 1.0, 2.0, 0.1, 0.2, 0.3)])
# 0.02e-9 mm apart across a rounding boundary: one kept
@example([candidate(0.49e-9, 1.0, 2.0, 0.1, 0.2, 0.3), candidate(0.51e-9, 1.0, 2.0, 0.1, 0.2, 0.3)])
# 0.9e-12 rad apart: one kept
@example([candidate(1.0, 2.0, 3.0, 0.1, -0.45e-12, 0.3),
          candidate(1.0, 2.0, 3.0, 0.1, 0.45e-12, 0.3)])
# signed zeros and an exact double root: one kept
@example([candidate(0.0, -0.0, 5.0, 0.0, 1.0, 2.0), candidate(-0.0, 0.0, 5.0, -0.0, 1.0, 2.0)])
# a chain along z: the middle one is within 2e-9 mm of both ends, which are
# 3e-9 mm apart; both ends kept, the middle one dropped
@example([candidate(1.0, 2.0, 5.0, 0.1, 0.2, 0.3), candidate(1.0, 2.0, 5.0 + 1.5e-9, 0.1, 0.2, 0.3),
          candidate(1.0, 2.0, 5.0 + 3e-9, 0.1, 0.2, 0.3)])
# equal z, 3e-9 mm apart in x: both kept
@example([candidate(1.0, 2.0, 5.0, 0.1, 0.2, 0.3), candidate(1.0 + 3e-9, 2.0, 5.0, 0.1, 0.2, 0.3)])
# equal x, y and z, 3e-12 rad apart in beta: both kept
@example([candidate(1.0, 2.0, 5.0, 0.1, 0.2, 0.3), candidate(1.0, 2.0, 5.0, 0.1, 0.2, 0.3 + 3e-12)])
def test_finish_keeps_the_first_of_each_coincident_group(candidates):
    got = fk._finish(candidates, fk.CLOSURE_TOL)
    passing = [c for c in candidates if c.residual <= fk.CLOSURE_TOL]
    # kept objects are passing inputs, each once
    kept_at = [next(i for i, c in enumerate(passing) if c is k) for k in got]
    assert len(set(kept_at)) == len(got)
    assert [pose_then_angles(k) for k in got] == sorted(pose_then_angles(k) for k in got)
    for i, a in enumerate(got):
        assert not any(coincident(a, b) for b in got[i + 1:])
    for i, c in enumerate(passing):
        if i not in kept_at:
            assert any(coincident(c, passing[j]) for j in kept_at if j < i)


def test_exact_double_t_root_gives_one_solution_per_branch():
    # B = -l3 puts the platform at y = 0, so |y - yA3| = l6 and H2 = 0 exactly
    inputs = JointInputs(0.0, 0.0, -P.l6)
    cos_g, sines = fk.solve_gamma(inputs, P)
    candidates = fk.enumerate_candidates(inputs, P, cos_g, sines)
    for gamma_sign in (1, -1):
        roots = {c.branch.t_sign: c.intermediates.t for c in candidates
                 if c.branch.sin_gamma_sign == gamma_sign}
        assert set(roots) == {1, -1} and roots[1] == roots[-1]
    solutions = fk.solve(inputs, P)
    assert sorted((s.branch.sin_gamma_sign, s.branch.alpha_sign) for s in solutions) == [
        (-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert all(s.branch.t_sign == 1 for s in solutions)


@settings(max_examples=60, deadline=None)
@given(feasible_inputs_strategy())
def test_cosine_exactness_property(inputs):
    try:
        solutions = fk.solve(inputs, P)
    except (IndeterminateGamma, GammaOutOfRange):
        return
    B = inputs.yA1 - P.l3 - inputs.yA2
    for sol in solutions:
        assert abs(math.cos(sol.intermediates.gamma) + B / (2.0 * P.l2)) <= 1e-12
        assert max(sol.residual_vector) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(feasible_inputs_strategy(), st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))
def test_partial_decoupling_is_bitwise(inputs, frac_a, frac_b):
    # same (yA1, yA2), two different rail-3 values: y identical per branch
    y_mid = inputs.yA3
    variant_a = JointInputs(inputs.yA1, inputs.yA2, y_mid + frac_a * 30.0)
    variant_b = JointInputs(inputs.yA1, inputs.yA2, y_mid + frac_b * 30.0)
    try:
        sols_a = fk.solve(variant_a, P)
        sols_b = fk.solve(variant_b, P)
    except (IndeterminateGamma, GammaOutOfRange):
        return
    ys_a = {s.branch: s.pose.y for s in sols_a}
    ys_b = {s.branch: s.pose.y for s in sols_b}
    for branch in set(ys_a) & set(ys_b):
        assert ys_a[branch] == ys_b[branch]  # bitwise


@settings(max_examples=25, deadline=None)
@given(feasible_inputs_strategy())
def test_determinism_property(inputs):
    try:
        first = fk.solve(inputs, P)
        second = fk.solve(inputs, P)
    except (IndeterminateGamma, GammaOutOfRange):
        return
    assert [s.pose.as_tuple() for s in first] == [s.pose.as_tuple() for s in second]
    assert [s.branch for s in first] == [s.branch for s in second]


def test_oracle_equivalence_on_random_grid():
    rng = random.Random(987123)
    cases = 0
    nonempty = 0
    while cases < 100:
        inputs = random_feasible_inputs(rng)
        try:
            solutions = fk.solve(inputs, P)
        except (IndeterminateGamma, GammaOutOfRange):
            continue
        cases += 1
        mine = tuple(tuple(round(v, 5) for v in s.pose.as_tuple()) for s in solutions)
        reference = oracle_poses(inputs, P)
        assert len(mine) == len(reference), (inputs, mine, reference)
        for a, b in zip(mine, reference):
            assert max(abs(u - v) for u, v in zip(a, b)) <= 1e-4
        if mine:
            nonempty += 1
    assert nonempty >= 50  # the comparison must not be vacuous


def test_one_copy_of_the_residual_formulas():
    """Both FK paths build candidates through ``_candidate``, and only it and
    ``residuals`` reach ``_chain_residuals``."""
    assert readers(fk, "_chain_residuals") == {"residuals", "_candidate"}
    assert readers(fk, "_candidate") == {"enumerate_candidates", "distance_at_gamma"}


def arithmetic_users_in_fk(name):
    """Functions of ``fk.py`` with ``name``, or an attribute called ``name``,
    inside an arithmetic or comparison expression."""
    tree = ast.parse(Path(fk.__file__).read_text(encoding="utf-8"))
    arithmetic = (ast.BinOp, ast.UnaryOp, ast.Compare, ast.AugAssign, ast.BoolOp)
    return {function.name for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
            for expression in ast.walk(function) if isinstance(expression, arithmetic)
            for node in ast.walk(expression)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)}


def test_rail_3_enters_fk_only_as_its_offset_from_y():
    """``ik`` gives the two rail-3 roots mirrored about an elbow's y one round
    trip.  That holds while FK computes with yA3 only where ``_t_roots``
    squares ``y - yA3`` and ``_chain_residuals`` takes its hypot."""
    assert arithmetic_users_in_fk("yA3") == {"_t_roots", "_chain_residuals"}


class TestSymbolicIdentities:
    """The closed forms FK solves, checked in exact algebra: sin and cos are
    symbols with sin^2 = 1 - cos^2."""

    @pytest.fixture
    def sympy(self):
        return pytest.importorskip("sympy")

    def test_planar_closure_is_b_times_2_l2_cos_gamma_plus_b(self, sympy):
        yA1, yA2, l2, l3, s, c = sympy.symbols("yA1 yA2 l2 l3 s c", real=True)
        B = yA1 - l3 - yA2
        # the two components of B2C2, whose length _planar_residual compares with l2
        closure = (yA1 + l2 * c - l3 - yA2) ** 2 + (l2 * s) ** 2 - l2 ** 2
        assert sympy.expand(sympy.expand(closure).subs(s ** 2, 1 - c ** 2)
                            - B * (2 * l2 * c + B)) == 0
        length = sympy.lambdify((yA1, yA2, s, c),
                                sympy.sqrt(closure + l2 ** 2).subs({l2: P.l2, l3: P.l3}))
        rng = random.Random(7)
        for _ in range(20):
            gamma = rng.uniform(-3.0, 3.0)
            rails = rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0)
            sin_g, cos_g = math.sin(gamma), math.cos(gamma)
            assert fk._planar_residual(*rails, P, sin_g, cos_g) == pytest.approx(
                abs(length(*rails, sin_g, cos_g) - P.l2), abs=1e-9)

    def test_chain_3_closure_is_h1_plus_t_squared_equal_h2(self, sympy):
        (y, yA3, l1, l2, l4, l6, l7, l8,
         sg, sa, sb) = sympy.symbols("y yA3 l1 l2 l4 l6 l7 l8 sg sa sb", real=True)
        z = l1 + l2 * sg + l4 * sa  # the platform height of _candidate
        z_c3 = z - l8 - l6 * sb - l7  # C3, as _chain_residuals places it
        t = l4 * sa - l6 * sb
        H1 = l2 * sg - l8 - l7
        H2 = l6 ** 2 - (y - yA3) ** 2
        # |B3C3| = l6 in the (y, z) plane
        closure = (y - yA3) ** 2 + (z_c3 - l1) ** 2 - l6 ** 2
        assert sympy.expand(closure - ((H1 + t) ** 2 - H2)) == 0

    def test_alpha_equation_eliminates_beta(self, sympy):
        from types import SimpleNamespace

        t, l4, l6, b, d, sa, ca = sympy.symbols("t l4 l6 b d sa ca", real=True)
        J1, J2, J3 = fk._alpha_coefficients(t, SimpleNamespace(l4=l4, l6=l6, b=b, d=d))
        # l6 sin(beta) from the t-definition, l6 cos(beta) from the X-closure
        l6_sin_b, l6_cos_b = l4 * sa - t, l4 * ca + 2 * d - 2 * b
        circle = sympy.expand(l6_sin_b ** 2 + l6_cos_b ** 2 - l6 ** 2).subs(sa ** 2, 1 - ca ** 2)
        assert sympy.expand(circle + (J1 * sa + J2 * ca + J3)) == 0
