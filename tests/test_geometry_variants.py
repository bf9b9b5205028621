"""The engine must hold for any valid geometry, not just the reference one.

The reference design has l7 = l8 = 0, so these tests pin the spacer-link
terms and the general proportions: solver-vs-oracle equivalence, round
trips, and velocity-model agreement on a geometry with every length
nonzero, plus a hypothesis sweep over random valid dimension sets.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from trirail import fk, ik, jacobian
from trirail.errors import GammaOutOfRange, IndeterminateGamma, TrirailError
from trirail.jacobian import SingularityKind
from trirail.params import JointInputs, MechanismParams
from trirail.verify import matching_ik_solution

from _closure_oracle import oracle_poses
from conftest import SPACER_PARAMS


def feasible_inputs(rng, p):
    y1 = rng.uniform(-150.0, 150.0)
    b_value = rng.choice((1.0, -1.0)) * rng.uniform(10.0, 0.85 * 2.0 * p.l2)
    y2 = y1 - p.l3 - b_value
    y_mid = y1 - b_value / 2.0 - p.l3 / 2.0
    return JointInputs(y1, y2, y_mid + rng.uniform(-0.85 * p.l6, 0.85 * p.l6))


def test_spacer_geometry_matches_oracle_and_roundtrips():
    rng = random.Random(7)
    total = 0
    for _ in range(25):
        inputs = feasible_inputs(rng, SPACER_PARAMS)
        solutions = fk.solve(inputs, SPACER_PARAMS)
        mine = tuple(tuple(round(v, 5) for v in s.pose.as_tuple()) for s in solutions)
        assert mine == oracle_poses(inputs, SPACER_PARAMS)
        for sol in solutions:
            assert sol.residual <= 1e-6
            matches = [
                t for t in ik.solve(sol.pose, SPACER_PARAMS)
                if max(abs(a - b) for a, b in zip(t.inputs.as_tuple(), inputs.as_tuple())) <= 1e-6
            ]
            assert matches and matches[0].consistent
            total += 1
    assert total >= 60


def test_spacer_geometry_velocity_model():
    rng = random.Random(11)
    checked = 0
    while checked < 20:
        inputs = feasible_inputs(rng, SPACER_PARAMS)
        try:
            solutions = fk.solve(inputs, SPACER_PARAMS)
        except TrirailError:
            continue
        for sol in solutions:
            ik_sol = matching_ik_solution(sol.pose, inputs, SPACER_PARAMS)
            if ik_sol is None or ik_sol.parallel_singular or ik_sol.serial_witnesses:
                continue
            try:
                pair = jacobian.build(sol.pose, ik_sol, SPACER_PARAMS)
            except TrirailError:
                continue
            if jacobian.classify(pair, SPACER_PARAMS).kind is not SingularityKind.REGULAR:
                continue
            assert jacobian.fd_check(sol.pose, ik_sol, SPACER_PARAMS, 1e-6) <= 1e-5
            checked += 1
            if checked >= 20:
                break
    assert checked >= 20


def test_distal_fold_at_pi_is_a_single_branch():
    # b = d puts the alpha = pi fold inside the beta reach: x = -l4 gives
    # cos(alpha) = -1 exactly and the +/-pi elbows are the same assembly
    p = MechanismParams(a=200.0, b=100.0, d=100.0, l1=30.0, l2=250.0, l3=120.0,
                        l4=150.0, l5=80.0, l6=200.0, l7=0.0, l8=0.0).validate()
    from trirail.params import Pose
    pose = Pose(-150.0, 0.0, 200.0)
    solutions = ik.solve(pose, p, check_roundtrip=False)
    assert solutions, "fold pose should be reachable for this geometry"
    alphas = {s.branch.alpha_sign for s in solutions}
    assert alphas == {1}
    inputs_seen = [s.inputs.as_tuple() for s in solutions]
    assert len(inputs_seen) == len(set(inputs_seen))  # no near-duplicates


def geometry_strategy():
    return st.builds(
        lambda b, d, l1, l2, ratio, l4, l6, l7, l8: MechanismParams(
            a=2.0 * b, b=b, d=d, l1=l1, l2=l2, l3=ratio * l2,
            l4=l4, l5=0.5 * l6, l6=l6, l7=l7, l8=l8,
        ).validate(),
        st.floats(60.0, 300.0),    # b
        st.floats(20.0, 120.0),    # d
        st.floats(10.0, 80.0),     # l1
        st.floats(150.0, 400.0),   # l2
        st.floats(0.3, 1.2),       # l3 / l2
        st.floats(100.0, 300.0),   # l4
        st.floats(120.0, 350.0),   # l6
        st.floats(0.0, 40.0),      # l7
        st.floats(0.0, 40.0),      # l8
    )


@settings(max_examples=40, deadline=None)
@given(geometry_strategy(), st.integers(0, 2 ** 31 - 1))
def test_closure_soundness_holds_for_any_valid_geometry(params, seed):
    rng = random.Random(seed)
    inputs = feasible_inputs(rng, params)
    try:
        solutions = fk.solve(inputs, params)
    except (IndeterminateGamma, GammaOutOfRange):
        return
    b_value = inputs.yA1 - params.l3 - inputs.yA2
    for sol in solutions:
        assert max(sol.residual_vector) <= 1e-6
        # y = yA1 - B/2 - l3/2: the closure-exact planar-loop relation
        assert abs((sol.pose.y - inputs.yA1 + params.l3 / 2.0) + b_value / 2.0) <= 1e-9
        matches = [
            t for t in ik.solve(sol.pose, params)
            if max(abs(a - b) for a, b in zip(t.inputs.as_tuple(), inputs.as_tuple())) <= 1e-6
        ]
        assert matches, (params, inputs, sol.pose)
