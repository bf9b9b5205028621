"""The IK round trip on each solution's own branch, against full enumeration.

``ik.solve`` builds one planar-loop elbow, ``fk.roundtrip_elbow``, per
alpha slot and pair of rail-1/2 roots, and every solution of that group
shares it.  Per solution it asks ``fk.distance_at_gamma`` for one distance
on that elbow and hands it the solution's chain offset t and its alpha as
a hint; the second rail-3 root of a beta slot reuses the first's answer
where the two lie bit for bit mirrored about the elbow's y.  FK then builds only the candidate on the nearest t root and alpha
root, unless another root could give a candidate as near the target or
coincident with it.  Whatever FK builds, ``(roundtrip, roundtrip_residual)``
must be bit for bit what ``_roundtrip_oracle.roundtrip`` gets by solving
every root.
"""

import math
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from trirail import fk, ik
from trirail.errors import IndeterminateGamma, GammaOutOfRange, Unreachable
from trirail.params import JointInputs, MechanismParams, Pose, REFERENCE_PARAMS

from _roundtrip_oracle import roundtrip
from conftest import random_feasible_inputs
from test_ik import WORKED_POSE, boundary_pose_m3

P = REFERENCE_PARAMS
#: b = d and l6 < l4: both beta fold planes, x = -l6 (beta = pi) and
#: x = l6 (beta = 0), lie inside alpha's reach.
FOLD_PARAMS = MechanismParams(
    a=300.0, b=50.0, d=50.0, l1=30.0, l2=280.0, l3=140.0,
    l4=250.0, l5=90.0, l6=150.0, l7=10.0, l8=5.0,
).validate()
#: (closure_tol, roundtrip_tol): the defaults, a closure filter loosened to
#: 1.0, which checks that loosening it changes no output (no candidate on
#: these poses has a residual above 1e-6), and a round-trip tolerance no
#: solution meets.
TOLERANCES = [(fk.CLOSURE_TOL, ik.ROUNDTRIP_TOL), (1.0, ik.ROUNDTRIP_TOL),
              (fk.CLOSURE_TOL, 1e-15)]


def assert_matches_oracle(pose, params=P, tolerances=TOLERANCES[0]):
    """``ik.solve(pose)`` with its round trip checked against the oracle, per solution."""
    closure_tol, roundtrip_tol = tolerances
    try:
        solutions = ik.solve(pose, params, closure_tol=closure_tol, roundtrip_tol=roundtrip_tol)
    except Unreachable:
        return []
    for s in solutions:
        mode, residual = roundtrip(pose, s, params, closure_tol, roundtrip_tol)
        assert (s.roundtrip, repr(s.roundtrip_residual)) == (mode, repr(residual)), s
    return solutions


@pytest.fixture
def built(monkeypatch):
    """``{id(inputs): [candidates built per call]}`` of every ``fk.enumerate_candidates``
    call, keyed by the rails it was called with."""
    calls = {}
    original = fk.enumerate_candidates

    def counted(inputs, *args, **kwargs):
        out = original(inputs, *args, **kwargs)
        calls.setdefault(id(inputs), []).append(len(out))
        return out

    monkeypatch.setattr(fk, "enumerate_candidates", counted)
    return calls


@pytest.fixture
def distances(monkeypatch):
    """The rails of every ``fk.distance_at_gamma`` call, in call order."""
    calls = []
    original = fk.distance_at_gamma

    def counted(pose, inputs, *args, **kwargs):
        calls.append(inputs)
        return original(pose, inputs, *args, **kwargs)

    monkeypatch.setattr(fk, "distance_at_gamma", counted)
    return calls


@pytest.fixture
def elbows(monkeypatch):
    """``(yA1, yA2, z_c1)`` of every ``fk.roundtrip_elbow`` call, in call order."""
    calls = []
    original = fk.roundtrip_elbow

    def counted(yA1, yA2, y_c1, z_c1, params, parallel):
        calls.append((yA1, yA2, z_c1))
        return original(yA1, yA2, y_c1, z_c1, params, parallel)

    monkeypatch.setattr(fk, "roundtrip_elbow", counted)
    return calls


@settings(max_examples=150, deadline=None)
@given(st.floats(-140.0, 100.0), st.floats(-260.0, 260.0), st.floats(150.0, 500.0),
       st.sampled_from(TOLERANCES))
def test_poses_around_the_reference_box(x, y, z, tolerances):
    assert_matches_oracle(Pose(x, y, z), tolerances=tolerances)


@pytest.mark.parametrize("tolerances", TOLERANCES)
def test_seeded_poses_take_every_route(tolerances):
    rng = random.Random(20261018)
    routes = set()
    for _ in range(150):
        pose = Pose(rng.uniform(-140.0, 100.0), rng.uniform(-260.0, 260.0),
                    rng.uniform(150.0, 500.0))
        routes.update(s.roundtrip for s in assert_matches_oracle(pose, tolerances=tolerances))
    if tolerances[1] < 1e-14:
        assert "failed" in routes
    else:
        # solutions with equal rail-1/2 root signs are parallel-singular
        assert routes == {"direct", "singular-family"}


@pytest.mark.parametrize("tolerances", TOLERANCES)
def test_m3_stroke_boundary_within_ulps(tolerances):
    base = boundary_pose_m3()
    for direction in (-math.inf, math.inf):
        z = base.z
        for _ in range(4):
            assert_matches_oracle(Pose(base.x, base.y, z), tolerances=tolerances)
            z = math.nextafter(z, direction)


@pytest.mark.parametrize("tolerances", TOLERANCES)
@pytest.mark.parametrize("x", [80.0, -130.0])
def test_reference_fold_planes(x, tolerances):
    # x = 80 puts alpha at 0 and x = -130 puts beta at pi: one elbow each
    checked = 0
    for j in range(5):
        for k in range(9):
            pose = Pose(x, -250.0 + 125.0 * j, 180.0 + 37.5 * k)
            checked += len(assert_matches_oracle(pose, tolerances=tolerances))
    assert checked > 0


@pytest.mark.parametrize("tolerances", TOLERANCES)
@pytest.mark.parametrize("fold", [-FOLD_PARAMS.l6, FOLD_PARAMS.l6])
@pytest.mark.parametrize("offset", [0.0, -1e-9, -1e-6, -1e-3])
def test_beta_near_zero_and_pi(fold, offset, tolerances):
    # beta = pi on x = -l6 and beta = 0 on x = l6; offsets move inwards
    x = fold - math.copysign(offset, fold)
    checked = 0
    for y in (-100.0, 0.0, 100.0):
        for z in (-150.0, 0.0, 150.0, 300.0):
            checked += len(assert_matches_oracle(Pose(x, y, z), FOLD_PARAMS, tolerances))
    assert checked > 0


#: Rails where |y - yA3| = l6 makes H2 = 0: both t roots coincide.
DOUBLE_T_ROOT_INPUTS = JointInputs(0.0, 0.0, -P.l6)


@pytest.mark.parametrize("tolerances", TOLERANCES)
def test_exact_double_t_root(tolerances):
    for sol in fk.solve(DOUBLE_T_ROOT_INPUTS, P):
        assert assert_matches_oracle(sol.pose, tolerances=tolerances)


def test_one_candidate_per_solution_at_the_worked_pose(built):
    solutions = ik.solve(WORKED_POSE, P)
    assert len(solutions) == 8
    # every round trip took the predicted candidate alone: no full enumeration
    assert built == {}
    assert {s.roundtrip for s in solutions} == {"direct", "singular-family"}
    assert_matches_oracle(WORKED_POSE)


def assert_one_elbow_per_group(pose, solutions, elbows):
    """One elbow was built per (alpha, yA1, yA2) group of ``solutions``, none twice."""
    groups = {(s.inputs.yA1, s.inputs.yA2, pose.z - P.l4 * math.sin(s.alpha)) for s in solutions}
    assert sorted(elbows) == sorted(groups)


def test_solutions_of_one_alpha_and_rails_1_and_2_share_an_elbow(elbows):
    solutions = ik.solve(WORKED_POSE, P)
    assert (len(solutions), len(elbows)) == (8, 4)
    assert_one_elbow_per_group(WORKED_POSE, solutions, elbows)
    assert_matches_oracle(WORKED_POSE)


def test_no_elbow_without_the_round_trip(elbows):
    solutions = ik.solve(WORKED_POSE, P, check_roundtrip=False)
    assert len(solutions) == 8
    assert elbows == []
    assert {s.roundtrip for s in solutions} == {"skipped"}


def test_mirrored_rail_3_roots_share_one_round_trip(distances):
    solutions = assert_matches_oracle(WORKED_POSE)
    assert len(distances) < len(solutions) == 8
    # each call stands for its own solution or its mirrored twin
    called = {id(inputs) for inputs in distances}
    for s in solutions:
        if id(s.inputs) not in called:
            first = next(t for t in mirrored_pair(solutions, s) if t is not s)
            assert id(first.inputs) in called
            assert (s.roundtrip, s.roundtrip_residual) == (first.roundtrip,
                                                           first.roundtrip_residual)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([P, FOLD_PARAMS]), st.integers(0, 1),
       st.sampled_from([fk.CLOSURE_TOL, 1.0]))
def test_rail_3_mirrored_about_the_elbow_gives_the_same_distance(rng, params, elbow,
                                                                 closure_tol):
    """FK reads rail 3 only as |y - yA3|: the rails with yA3 mirrored about
    the elbow's y give every distance bit for bit, on the hinted path and
    on the fallback."""
    inputs = random_feasible_inputs(rng, params)
    try:
        cos_gamma, sin_gammas = fk.solve_gamma(inputs, params)
    except (IndeterminateGamma, GammaOutOfRange):
        return
    e = fk._elbow("direct", inputs.yA1, inputs.yA2, cos_gamma, sin_gammas[elbow], params)
    mirrored = inputs._replace(yA3=e.y + (e.y - inputs.yA3))
    assume(abs(e.y - mirrored.yA3) == abs(e.y - inputs.yA3))
    every = fk.solve_at_gamma(inputs, params, cos_gamma, sin_gammas[elbow],
                              closure_tol=closure_tol)
    assert repr(fk.solve_at_gamma(mirrored, params, cos_gamma, sin_gammas[elbow],
                                  closure_tol=closure_tol)) == repr(every)
    for predicted, other in product(every, every):
        target = Pose(0.5 * (predicted.pose.x + other.pose.x), predicted.pose.y,
                      0.5 * (predicted.pose.z + other.pose.z))
        exact = fk.nearest(target, [predicted])[1]
        hint_t, hint_alpha = predicted.intermediates.t, predicted.intermediates.alpha
        for reach in (exact, 0.0, 5e-324):
            distance = [repr(fk.distance_at_gamma(target, rails, params, e,
                                                  closure_tol=closure_tol,
                                                  hint=(hint_t, hint_alpha, reach)))
                        for rails in (inputs, mirrored)]
            assert distance[0] == distance[1]


#: Both alpha slots reach rails 1 and 2 here: 16 solutions in 8 groups.
TWO_ALPHA_SLOT_POSE = Pose(75.01344042169464, -21.115370479377333, 263.1548298323095)


def test_each_alpha_slot_builds_its_own_elbows(elbows):
    solutions = assert_matches_oracle(TWO_ALPHA_SLOT_POSE)
    assert (len(solutions), len(elbows)) == (16, 8)
    assert {s.branch.alpha_sign for s in solutions} == {1, -1}
    assert_one_elbow_per_group(TWO_ALPHA_SLOT_POSE, solutions, elbows)


def mirrored_pair(solutions, solution):
    """``solution`` and the one on its other rail-3 root: same rails 1 and 2,
    alpha and beta."""
    key = (solution.inputs.yA1, solution.inputs.yA2, solution.alpha, solution.beta)
    pair = [s for s in solutions if (s.inputs.yA1, s.inputs.yA2, s.alpha, s.beta) == key]
    assert len(pair) == 2
    return pair


def test_declined_hint_builds_every_candidate(built):
    pose = fk.solve(DOUBLE_T_ROOT_INPUTS, P)[0].pose
    solutions = ik.solve(pose, P)
    declined = next(s for s in solutions if s.inputs == DOUBLE_T_ROOT_INPUTS)
    pair = mirrored_pair(solutions, declined)
    # both t roots times both alpha roots, in one call for the mirrored pair:
    # no fallback either
    assert [n for s in pair for n in built.get(id(s.inputs), [])] == [4]
    assert {s.roundtrip for s in pair} == {"direct"}
    assert_matches_oracle(pose)


#: A pose of rails (0, 0, -230): FK re-derives y as -2.8e-14, so the round trip
#: of rails (-139.16..., 139.16..., -230) fails by rounding at H2 = 1.5e-11.
H2_ROUNDING_POSE = Pose(74.91534611252757, 0.0, 258.62799509103365)


def test_failed_roundtrip_after_a_declined_hint_solves_once(built):
    solutions = ik.solve(H2_ROUNDING_POSE, P)
    failing = next(s for s in solutions
                   if s.roundtrip == "failed" and s.inputs.yA3 == -230.0)
    # the declined hint built all four candidates: no unhinted repeat
    assert built[id(failing.inputs)] == [4]
    assert math.isfinite(failing.roundtrip_residual)
    assert_matches_oracle(H2_ROUNDING_POSE)


def assert_hint_keeps_the_nearest_distance(inputs, params, cos_gamma, sin_gamma, closure_tol):
    """The contract ``ik`` relies on: whatever the hint, ``fk.distance_at_gamma``
    is the full list's nearest distance, bit for bit.

    Each candidate in turn is the predicted one, and targets are placed
    between it and each other candidate, so that other roots do compete
    once ``reach`` is large.  A ``reach`` of 0 or the least subnormal puts
    almost every target out of reach, so the fallback runs too.
    """
    every = fk.solve_at_gamma(inputs, params, cos_gamma, sin_gamma, closure_tol=closure_tol)
    elbow = fk._elbow("direct", inputs.yA1, inputs.yA2, cos_gamma, sin_gamma, params)
    for predicted in every:
        hint_t, hint_alpha = predicted.intermediates.t, predicted.intermediates.alpha
        for other in every:
            for blend in (0.0, 0.3, 0.5, 0.7):
                target = Pose(predicted.pose.x + blend * (other.pose.x - predicted.pose.x),
                              predicted.pose.y,
                              predicted.pose.z + blend * (other.pose.z - predicted.pose.z))
                exact = fk.nearest(target, [predicted])[1]
                for reach in (exact, exact * 1.25, 0.0, 5e-324):
                    distance = fk.distance_at_gamma(target, inputs, params, elbow,
                                                    closure_tol=closure_tol,
                                                    hint=(hint_t, hint_alpha, reach))
                    assert repr(distance) == repr(fk.nearest(target, every)[1])
    return every


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([P, FOLD_PARAMS]), st.integers(0, 1),
       st.sampled_from([fk.CLOSURE_TOL, 1.0]))
def test_hinted_nearest_distance_is_the_full_one(rng, params, elbow, closure_tol):
    inputs = random_feasible_inputs(rng, params)
    try:
        cos_gamma, sin_gammas = fk.solve_gamma(inputs, params)
    except (IndeterminateGamma, GammaOutOfRange):
        return
    assert_hint_keeps_the_nearest_distance(inputs, params, cos_gamma, sin_gammas[elbow],
                                           closure_tol)


@pytest.mark.parametrize("closure_tol", [fk.CLOSURE_TOL, 1.0])
@pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9])
def test_hinted_nearest_distance_near_a_double_alpha_root(gap, closure_tol):
    # the alpha roots of t meet where the distal links' circles touch,
    # at t^2 = (l4 + l6)^2 - 4 (d - b)^2; the t roots stay far apart
    t = math.sqrt((P.l4 + P.l6) ** 2 - 4.0 * (P.d - P.b) ** 2) - gap
    sin_gamma, cos_gamma = -0.5, math.sqrt(0.75)
    root = t + P.l2 * sin_gamma - P.l8 - P.l7  # t = -H1 + sqrt(H2)
    y = P.l2 * cos_gamma - P.l3 / 2.0
    inputs = JointInputs(0.0, -P.l3 + 2.0 * P.l2 * cos_gamma,
                         y - math.sqrt(P.l6 ** 2 - root ** 2))
    every = assert_hint_keeps_the_nearest_distance(inputs, P, cos_gamma, sin_gamma, closure_tol)
    assert len(every) == 4
