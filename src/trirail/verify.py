"""Built-in reproduction checks for the reference design.

The reference design ships with a documented worked example: one direct
case (rail inputs with four candidate poses, one of which is starred as
the assembly actually built) and one inverse case (eight real rail
triples for the starred pose).  ``run_builtin_checks`` re-derives all of
it, spot-checks the velocity model against finite differences, and
exercises the structural properties (partial decoupling, the approach to
the parallel singularity, mobility arithmetic).

Three of the four documented direct poses do not satisfy the planar-loop
closure under the coordinate conventions used here: two enumerate the
sign-flipped elbow of cos(gamma) (closure violation ~85 mm) and one
appears to carry a transcription slip in x.  They are reported with their
reconstruction residuals rather than asserted, and do not fail the suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from . import fk, ik, jacobian, topology
from .errors import NonComparable, TrirailError
from .jacobian import Classification, SingularityKind
from .params import JointInputs, Pose, ValidatedParams, REFERENCE_PARAMS

#: Documented worked example: rail inputs of the direct case (mm).
REFERENCE_INPUTS = JointInputs(162.6907, -143.3209, -24.6776)
#: Documented worked example: the starred direct pose (mm).
REFERENCE_POSE = Pose(-15.4714, 9.6849, 456.3315)
#: Documented worked example: the starred inverse solution (mm).
REFERENCE_INVERSE_INPUTS = JointInputs(162.6909, -143.3211, -24.6778)
#: All four documented direct poses, starred one at index 2.
DOCUMENTED_DIRECT_POSES = (
    Pose(64.6353, 175.6965, 370.1818),
    Pose(-128.8290, 175.6965, 119.7372),
    Pose(-15.4714, 9.6849, 456.3315),
    Pose(-128.8290, 9.6849, 118.2099),
)
STARRED_DIRECT_INDEX = 2
#: Real inverse solutions documented for the starred pose.
EXPECTED_INVERSE_COUNT = 8

#: Default tolerances against the documented 4-decimal values (mm).
TOL_DIRECT = 5e-3
TOL_INVERSE = 5e-2
FD_TOL = 1e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def pose_consistency_residual(pose: Pose, inputs: JointInputs, params: ValidatedParams) -> float:
    """Worst closure violation of a claimed (pose, inputs) pair, best branch.

    Reconstructs the configuration angles from the pose for every distal
    elbow combination and returns the smallest achievable max-residual:
    both planar-loop link lengths, the parallelogram-chain link length,
    and the X-closure.  Large values expose claimed pairs that no assembly
    satisfies.
    """
    l1, l2, l3, l4, l6, l7, l8 = (params.l1, params.l2, params.l3, params.l4,
                                  params.l6, params.l7, params.l8)
    b, d = params.b, params.d
    cos_alpha = (pose.x + b - d) / l4
    cos_beta = (pose.x + d - b) / l6
    if abs(cos_alpha) > 1.0 or abs(cos_beta) > 1.0:
        return math.inf
    cos_gamma = (pose.y - inputs.yA1 + l3 / 2.0) / l2
    best = math.inf
    for s_a in (1.0, -1.0):
        sin_alpha = s_a * math.sqrt(1.0 - cos_alpha * cos_alpha)
        sin_gamma = (pose.z - l4 * sin_alpha - l1) / l2
        chain1 = abs(math.hypot(l2 * cos_gamma, l2 * sin_gamma) - l2)
        chain2 = abs(math.hypot(inputs.yA1 + l2 * cos_gamma - l3 - inputs.yA2, l2 * sin_gamma) - l2)
        for s_b in (1.0, -1.0):
            sin_beta = s_b * math.sqrt(1.0 - cos_beta * cos_beta)
            z_c3 = pose.z - l8 - l6 * sin_beta - l7
            chain3 = abs(math.hypot(pose.y - inputs.yA3, z_c3 - l1) - l6)
            x_loop = abs(l4 * cos_alpha + 2.0 * d - l6 * cos_beta - 2.0 * b)
            best = min(best, max(chain1, chain2, chain3, x_loop))
    return best


def matching_ik_solution(pose: Pose, inputs: JointInputs, params: ValidatedParams, tol: float = 1e-6):
    """The inverse solution of ``pose`` whose inputs match ``inputs``."""
    for sol in ik.solve(pose, params, check_roundtrip=False):
        dev = max(abs(sol.inputs.yA1 - inputs.yA1),
                  abs(sol.inputs.yA2 - inputs.yA2),
                  abs(sol.inputs.yA3 - inputs.yA3))
        if dev <= tol:
            return sol
    return None


def rail_spacing_sweep(
    params: ValidatedParams,
    deltas,
    threshold: float = jacobian.SINGULARITY_THRESHOLD,
) -> list[Classification]:
    """Class of direct branch (1, 1, 1) as the rail spacing closes on l3.

    Rails 1 and 3 stay at the worked example's inputs and
    ``yA2 = yA1 - l3 - delta``, so the planar loop approaches its parallel
    singularity as delta shrinks.  Each branch is matched to its inverse
    solution, whose Jacobian pair is classified.  Raises
    :class:`NonComparable` when the tracked branch or its inverse solution
    cannot be found.
    """
    out = []
    for delta in deltas:
        inputs = JointInputs(REFERENCE_INPUTS.yA1,
                             REFERENCE_INPUTS.yA1 - params.l3 - delta,
                             REFERENCE_INPUTS.yA3)
        try:
            pose = fk.matched_pose(inputs, (1, 1, 1), params)
        except NonComparable:
            raise NonComparable(f"tracked branch vanished at delta={delta}") from None
        ik_sol = matching_ik_solution(pose, inputs, params)
        if ik_sol is None:
            raise NonComparable(f"branch matching failed at delta={delta}")
        out.append(jacobian.classify(jacobian.build(pose, ik_sol, params),
                                     params, threshold))
    return out


def sample_regular_configurations(params: ValidatedParams, count: int, seed: int = 20260809):
    """Deterministic sample of regular (pose, IkSolution) evaluation points."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        y_a1 = rng.uniform(-200.0, 200.0)
        magnitude = rng.uniform(20.0, 0.9 * 2.0 * params.l2)
        b_value = magnitude if rng.random() < 0.5 else -magnitude
        y_a2 = y_a1 - params.l3 - b_value
        y_mid = y_a1 - b_value / 2.0 - params.l3 / 2.0
        y_a3 = y_mid + rng.uniform(-0.9 * params.l6, 0.9 * params.l6)
        try:
            solutions = fk.solve(JointInputs(y_a1, y_a2, y_a3), params)
        except TrirailError:
            continue
        for fk_sol in solutions:
            ik_sol = matching_ik_solution(fk_sol.pose, JointInputs(y_a1, y_a2, y_a3), params)
            if ik_sol is None or ik_sol.parallel_singular or ik_sol.serial_witnesses:
                continue
            try:
                pair = jacobian.build(fk_sol.pose, ik_sol, params)
            except TrirailError:
                continue
            cls = jacobian.classify(pair, params)
            if cls.kind is not SingularityKind.REGULAR:
                continue
            out.append((fk_sol.pose, ik_sol))
            if len(out) >= count:
                break
    return out


def _check(name: str, fn) -> CheckResult:
    try:
        passed, detail = fn()
    except Exception as exc:  # a failing check must report, not crash the suite
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, passed, detail)


def run_builtin_checks(
    params: ValidatedParams = REFERENCE_PARAMS,
    *,
    tol_direct: float = TOL_DIRECT,
    tol_inverse: float = TOL_INVERSE,
    singularity_threshold: float = jacobian.SINGULARITY_THRESHOLD,
) -> list[CheckResult]:
    """Run every built-in check; all must pass for a healthy build."""
    results = []

    def direct_worked_example():
        solutions = fk.solve(REFERENCE_INPUTS, params)
        _, dist = fk.nearest(REFERENCE_POSE, solutions)
        return dist <= tol_direct, (
            f"{len(solutions)} closure-consistent poses; starred pose matched to {dist:.2e} mm"
        )

    def direct_alternate_rows():
        solutions = fk.solve(REFERENCE_INPUTS, params)
        parts = []
        for index, pose in enumerate(DOCUMENTED_DIRECT_POSES):
            if index == STARRED_DIRECT_INDEX:
                continue
            residual = pose_consistency_residual(pose, REFERENCE_INPUTS, params)
            _, nearest = fk.nearest(pose, solutions)
            parts.append(f"row {index + 1}: closure residual {residual:.2f} mm, "
                         f"nearest consistent pose {nearest:.2f} mm away")
        return True, "; ".join(parts)

    def spurious_elbow_rejected():
        cos_gamma, sin_gammas = fk.solve_gamma(REFERENCE_INPUTS, params)
        candidates = fk.enumerate_candidates(REFERENCE_INPUTS, params, -cos_gamma, sin_gammas)
        if not candidates:
            return False, "sign-flipped elbow produced no candidates to reject"
        worst = min(c.residual_vector[0] for c in candidates)
        emitted = fk.solve(REFERENCE_INPUTS, params)
        leaked = any(fk.nearest(c.pose, emitted)[1] < 1e-6 for c in candidates)
        return worst > 10.0 and not leaked, (
            f"flipped cos(gamma) violates planar closure by {worst:.2f} mm on every branch"
        )

    def inverse_worked_example():
        solutions = ik.solve(REFERENCE_POSE, params)
        consistent = [s for s in solutions if s.consistent]
        best = min(
            (max(abs(s.inputs.yA1 - REFERENCE_INVERSE_INPUTS.yA1),
                 abs(s.inputs.yA2 - REFERENCE_INVERSE_INPUTS.yA2),
                 abs(s.inputs.yA3 - REFERENCE_INVERSE_INPUTS.yA3)) for s in solutions),
            default=math.inf,
        )
        ok = (len(solutions) == EXPECTED_INVERSE_COUNT
              and len(consistent) == EXPECTED_INVERSE_COUNT
              and best <= tol_inverse)
        return ok, (
            f"{len(solutions)} real solutions ({len(consistent)} round-trip consistent); "
            f"starred inputs matched to {best:.2e} mm"
        )

    def inverse_roundtrip():
        solutions = fk.solve(REFERENCE_INPUTS, params)
        worst = 0.0
        checked = 0
        for fk_sol in solutions:
            for ik_sol in ik.solve(fk_sol.pose, params):
                if not ik_sol.consistent:
                    return False, (
                        f"solution {ik_sol.inputs.as_tuple()} failed round-trip "
                        f"({ik_sol.roundtrip_residual:.2e} mm)"
                    )
                worst = max(worst, ik_sol.roundtrip_residual)
                checked += 1
        return checked > 0 and worst <= 1e-6, (
            f"{checked} inverse solutions round-tripped, worst {worst:.2e} mm"
        )

    def topology_fixture():
        rep = topology.reference_report()
        ok = rep.dof == 3 and rep.deltas == (1, -1) and rep.coupling_degree == 1
        return ok, f"dof={rep.dof}, deltas={rep.deltas}, coupling={rep.coupling_degree}"

    def jacobian_fd():
        points = sample_regular_configurations(params, 5)
        base, _ = fk.nearest(REFERENCE_POSE, fk.solve(REFERENCE_INPUTS, params))
        if base is None:
            raise TrirailError("no solutions to match against")
        starred = matching_ik_solution(base.pose, REFERENCE_INPUTS, params, tol=1e-3)
        if starred is not None:
            points.append((base.pose, starred))
        if not points:
            return False, "no regular configurations found"
        worst = max(jacobian.fd_check(pose, sol, params) for pose, sol in points)
        return worst <= FD_TOL, f"{len(points)} configurations, worst deviation {worst:.2e}"

    def jacobian_det_product():
        points = sample_regular_configurations(params, 5)
        for pose, sol in points:
            pair = jacobian.build(pose, sol, params)
            if pair.det_jq != pair.u[0] * pair.u[1] * pair.u[2]:
                return False, "det(Jq) deviates from the diagonal product"
        return bool(points), f"exact on {len(points)} configurations"

    def output_decoupling():
        groups: dict[tuple[int, int, int], set[float]] = {}
        hits = 0
        for offset in range(10):
            y_a3 = REFERENCE_INPUTS.yA3 + (offset - 5) * 12.5
            try:
                solutions = fk.solve(replace(REFERENCE_INPUTS, yA3=y_a3), params)
            except TrirailError:
                continue
            for sol in solutions:
                groups.setdefault(sol.branch.as_tuple(), set()).add(sol.pose.y)
                hits += 1
        stable = all(len(ys) == 1 for ys in groups.values())
        return hits > 0 and stable, (
            f"{hits} solutions over the rail-3 sweep; y constant per branch: {stable}"
        )

    def parallel_approach():
        try:
            classes = rail_spacing_sweep(params, (10.0, 1.0, 0.1), singularity_threshold)
        except NonComparable as exc:
            return False, str(exc)
        dets = [abs(cls.norm_det_jp) for cls in classes]
        kinds = [cls.kind for cls in classes]
        monotone = dets[0] > dets[1] > dets[2]
        consistent = all(
            (kind in (SingularityKind.PARALLEL, SingularityKind.COMPREHENSIVE))
            == (det <= singularity_threshold)
            for kind, det in zip(kinds, dets)
        )
        ok = (monotone and consistent
              and kinds[0] is SingularityKind.REGULAR
              and kinds[-1] is SingularityKind.PARALLEL)
        return ok, (
            "normalised det(Jp) " + " > ".join(f"{v:.2e}" for v in dets)
            + f"; classes {[k.value for k in kinds]}"
        )

    results.append(_check("direct-worked-example", direct_worked_example))
    results.append(_check("direct-alternate-rows", direct_alternate_rows))
    results.append(_check("spurious-elbow-rejected", spurious_elbow_rejected))
    results.append(_check("inverse-worked-example", inverse_worked_example))
    results.append(_check("inverse-roundtrip", inverse_roundtrip))
    results.append(_check("topology-fixture", topology_fixture))
    results.append(_check("jacobian-fd", jacobian_fd))
    results.append(_check("jacobian-det-product", jacobian_det_product))
    results.append(_check("output-decoupling", output_decoupling))
    results.append(_check("parallel-approach", parallel_approach))
    return results
