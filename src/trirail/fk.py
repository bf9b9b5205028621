"""Direct kinematics: rail displacements to platform poses, all branches.

The solution pipeline mirrors the loop structure of the mechanism:

1. Planar loop (rails 1 and 2).  Expanding the closure ``|B2C2| = l2``
   gives ``B*(2*l2*cos(gamma) + B) = 0`` with ``B = yA1 - l3 - yA2``, so
   the only regular root is ``cos(gamma) = -B/(2*l2)``; the elbow choice
   ``sin(gamma) = +/-sqrt(1 - cos^2)`` is a free branch.  ``B = 0`` leaves
   gamma undetermined (parallel singularity).  The platform y follows as
   ``y = yA1 + l2*cos(gamma) - l3/2`` and is independent of rail 3: the
   mechanism is partially decoupled.

2. Parallelogram chain (rail 3).  With y known, the vertical offset
   ``t = l4*sin(alpha) - l6*sin(beta)`` solves ``(H1 + t)^2 = H2`` where
   ``H1 = l2*sin(gamma) - l8 - l7`` and ``H2 = l6^2 - (y - yA3)^2``: two
   more branches ``t = -H1 +/- sqrt(H2)``.

3. Distal links.  Eliminating beta between the t-definition and the
   X-closure ``l4*cos(alpha) + 2d - l6*cos(beta) = 2b`` leaves
   ``J1*sin(alpha) + J2*cos(alpha) + J3 = 0``, solved through the
   tangent half-angle: up to two alpha per t.

Every one of the up-to-eight candidates is then checked against the full
set of loop-closure residuals; :func:`solve` returns only candidates whose
worst residual is below tolerance, sorted by pose.  Sign conventions are
never trusted: a candidate assembled with the wrong elbow simply fails its
residual check.  Coincident candidates are merged by one rule, in
:func:`_finish`: a candidate within 2e-9 mm in x, y and z and within
2e-12 rad in gamma, alpha and beta of one already kept is dropped.  A double
root needs no case of its own: :func:`solve_t` and the alpha solver always
return both roots, and the second copy falls to that rule.

Each candidate is an :class:`FkSolution` holding an :class:`FkBranch` and
an :class:`FkIntermediates`.  All three are immutable named tuples: the
inverse round trip builds several per solution, and a tuple costs a
fraction of a frozen dataclass to construct.  Read them by field name.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    AlphaUnreachable,
    ChainIIUnreachable,
    GammaOutOfRange,
    IndeterminateGamma,
    NonComparable,
)
from .params import JointInputs, Pose, ValidatedParams

#: |B| below this is treated as the parallel singularity of rails 1/2 (mm).
EPS_B = 1e-9
#: arccos/arcsin arguments within this of +/-1 are clamped; beyond, rejected.
ACOS_CLAMP = 1e-12
#: Closure tolerance for generated solutions (mm).
CLOSURE_TOL = 1e-6
#: A recovered (sin, cos) pair for beta may deviate this much from the unit circle.
CIRCLE_TOL = 1e-9
#: Relative guard for the vanishing leading coefficient of the half-angle quadratic.
TAN_HALF_GUARD = 1e-9


class FkBranch(NamedTuple):
    """Sign choices that select one assembly out of up to eight."""

    sin_gamma_sign: int
    t_sign: int
    alpha_sign: int

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)


class FkIntermediates(NamedTuple):
    """The angles and chain offset that fix a candidate's configuration.

    gamma, alpha and beta are radians; t is the parallelogram-chain
    offset in mm.
    """

    gamma: float
    alpha: float
    beta: float
    t: float


class FkSolution(NamedTuple):
    pose: Pose
    branch: FkBranch
    intermediates: FkIntermediates
    residual: float
    residual_vector: tuple[float, float, float, float]


def solve_gamma(inputs: JointInputs, params: ValidatedParams) -> tuple[float, tuple[float, float]]:
    """Closure-consistent cos(gamma) plus both elbow values of sin(gamma).

    Raises :class:`IndeterminateGamma` at the B = 0 parallel singularity
    and :class:`GammaOutOfRange` when the loop cannot close.
    """
    B = inputs.yA1 - params.l3 - inputs.yA2
    if abs(B) <= EPS_B:
        raise IndeterminateGamma(
            f"yA1 - l3 - yA2 = {B:.3g} mm: planar-loop angle undetermined (parallel singularity)"
        )
    cos_gamma = -B / (2.0 * params.l2)
    if abs(cos_gamma) > 1.0:
        if abs(cos_gamma) > 1.0 + ACOS_CLAMP:
            raise GammaOutOfRange(
                f"|yA1 - l3 - yA2| = {abs(B):.12g} mm exceeds 2*l2 = {2.0 * params.l2:.12g} mm"
            )
        cos_gamma = math.copysign(1.0, cos_gamma)
    sin_gamma = math.sqrt(max(0.0, 1.0 - cos_gamma * cos_gamma))
    return cos_gamma, (sin_gamma, -sin_gamma)


def solve_t(gamma: float, yA3: float, pose_y: float, params: ValidatedParams) -> tuple[float, float]:
    """Both roots of the parallelogram-chain offset t = -H1 +/- sqrt(H2).

    Raises :class:`ChainIIUnreachable` when H2 < 0 (platform y out of reach
    of rail 3).  At H2 = 0 the two roots are equal; :func:`_finish` keeps one
    of the coincident candidates they give.
    """
    H1 = params.l2 * math.sin(gamma) - params.l8 - params.l7
    H2 = params.l6 * params.l6 - (pose_y - yA3) * (pose_y - yA3)
    if H2 < 0.0:
        raise ChainIIUnreachable(
            f"|y - yA3| = {abs(pose_y - yA3):.6g} mm exceeds l6 = {params.l6:.6g} mm"
        )
    root = math.sqrt(H2)
    return (-H1 + root, -H1 - root)


def _alpha_coefficients(t: float, params: ValidatedParams) -> tuple[float, float, float]:
    l4, l6, b, d = params.l4, params.l6, params.b, params.d
    J1 = 2.0 * l4 * t
    J2 = 4.0 * l4 * (b - d)
    J3 = l6 * l6 - l4 * l4 - t * t - 4.0 * (b - d) * (b - d)
    return J1, J2, J3


def _alpha_candidates(t: float, params: ValidatedParams):
    """(sign, alpha, beta) triples solving J1*sin + J2*cos + J3 = 0.

    Roots whose recovered beta leaves the unit circle are dropped; a double
    root is listed twice.  Raises :class:`AlphaUnreachable` when no real
    angle exists.
    """
    J1, J2, J3 = _alpha_coefficients(t, params)
    disc = J1 * J1 + J2 * J2 - J3 * J3
    if disc < 0.0:
        raise AlphaUnreachable(
            f"no real distal angle for t = {t:.6g} mm (discriminant {disc:.3g} < 0)"
        )
    root = math.sqrt(disc)
    denom = J2 - J3
    guard = TAN_HALF_GUARD * max(abs(J2), abs(J3), 1.0)
    if abs(denom) > guard:
        raw = [(1, 2.0 * math.atan((J1 + root) / denom)),
               (-1, 2.0 * math.atan((J1 - root) / denom))]
    elif abs(J1) > guard:
        # Leading quadratic coefficient vanishes: one root folds to pi, the
        # other comes from the linear remainder 2*J1*k + (J2 + J3) = 0.
        raw = [(1, 2.0 * math.atan(-(J2 + J3) / (2.0 * J1))), (-1, math.pi)]
    else:
        raise AlphaUnreachable("degenerate half-angle equation (J1 = 0 and J2 = J3)")
    out = []
    for sign, alpha in raw:
        beta = _recover_beta(alpha, t, params)
        if beta is not None:
            out.append((sign, alpha, beta))
    return out


def _recover_beta(alpha: float, t: float, params: ValidatedParams):
    """beta from the t-definition and the X-closure; None if inconsistent."""
    sin_beta = (params.l4 * math.sin(alpha) - t) / params.l6
    cos_beta = (params.l4 * math.cos(alpha) + 2.0 * params.d - 2.0 * params.b) / params.l6
    if abs(cos_beta) > 1.0 + CIRCLE_TOL:
        return None
    if abs(sin_beta * sin_beta + cos_beta * cos_beta - 1.0) > CIRCLE_TOL:
        return None
    return math.atan2(sin_beta, cos_beta)


def residuals(
    pose: Pose,
    intermediates: FkIntermediates,
    inputs: JointInputs,
    params: ValidatedParams,
) -> tuple[float, float, float, float]:
    """Absolute loop-closure violations (mm) of a candidate configuration.

    In order: planar-loop link length |B2C2| - l2, parallelogram-chain
    link length |B3C3| - l6, the t-definition, and the X-direction closure.
    """
    gamma, alpha, beta = intermediates.gamma, intermediates.alpha, intermediates.beta
    return (_planar_residual(inputs, params, math.sin(gamma), math.cos(gamma)),
            *_chain_residuals(pose, intermediates.t, inputs.yA3, params, math.sin(alpha),
                              math.cos(alpha), math.sin(beta), math.cos(beta)))


def _planar_residual(inputs: JointInputs, params: ValidatedParams, sin_g: float, cos_g: float):
    """|B2C2| - l2 of :func:`residuals`, from sin and cos of gamma."""
    l2 = params.l2
    return abs(math.hypot(inputs.yA1 + l2 * cos_g - params.l3 - inputs.yA2, l2 * sin_g) - l2)


def _chain_residuals(pose: Pose, t: float, yA3: float, params: ValidatedParams,
                     sin_a: float, cos_a: float, sin_b: float, cos_b: float):
    """The last three violations of :func:`residuals`, from sin and cos of alpha and beta."""
    l4, l6 = params.l4, params.l6
    z_c3 = pose.z - params.l8 - l6 * sin_b - params.l7
    return (abs(math.hypot(pose.y - yA3, z_c3 - params.l1) - l6),
            abs(l4 * sin_a - l6 * sin_b - t),
            abs(l4 * cos_a + 2.0 * params.d - l6 * cos_b - 2.0 * params.b))


def enumerate_candidates(
    inputs: JointInputs,
    params: ValidatedParams,
    cos_gamma: float,
    sin_gammas: tuple[float, ...],
) -> list[FkSolution]:
    """All assemblable candidates for given gamma values, residual-unfiltered.

    Diagnostic surface: :func:`solve` filters this list by closure
    residual, but spurious-branch investigations (e.g. the sign-flipped
    cos(gamma) of the planar loop) need the rejected candidates too.
    """
    l1, l2, l3, l4, d, b = params.l1, params.l2, params.l3, params.l4, params.d, params.b
    out: list[FkSolution] = []
    seen_sin = set()
    for sin_gamma in sin_gammas:
        if sin_gamma in seen_sin:
            # sin = -0.0 duplicates sin = 0.0; at cos(gamma) = -1 their gammas
            # are +pi and -pi, which no tolerance on gamma in _finish merges
            continue
        seen_sin.add(sin_gamma)
        gamma_sign = 1 if sin_gamma >= 0.0 else -1
        gamma = math.atan2(sin_gamma, cos_gamma)
        y = inputs.yA1 + l2 * cos_gamma - l3 / 2.0
        try:
            t_values = solve_t(gamma, inputs.yA3, y, params)
        except ChainIIUnreachable:
            continue
        # one elbow: the planar-loop residual does not depend on t or alpha
        r1 = _planar_residual(inputs, params, math.sin(gamma), math.cos(gamma))
        for t_sign, t in zip((1, -1), t_values):
            try:
                alphas = _alpha_candidates(t, params)
            except AlphaUnreachable:
                continue
            for alpha_sign, alpha, beta in alphas:
                sin_a, cos_a = math.sin(alpha), math.cos(alpha)
                pose = Pose._trusted(-b + l4 * cos_a + d, y, l1 + l2 * sin_gamma + l4 * sin_a)
                vec = (r1, *_chain_residuals(pose, t, inputs.yA3, params, sin_a, cos_a,
                                             math.sin(beta), math.cos(beta)))
                out.append(FkSolution(pose, FkBranch(gamma_sign, t_sign, alpha_sign),
                                      FkIntermediates(gamma, alpha, beta, t), max(vec), vec))
    return out


#: A candidate within this of a kept one in x, y and z (mm) and in gamma,
#: alpha and beta (rad) coincides with it, and :func:`_finish` drops it.
_COINCIDENT_MM = 2e-9
_COINCIDENT_RAD = 2e-12


def _near(a: FkSolution, b: FkSolution) -> bool:
    pa, pb, ia, ib = a.pose, b.pose, a.intermediates, b.intermediates
    return (abs(pa.x - pb.x) <= _COINCIDENT_MM and abs(pa.y - pb.y) <= _COINCIDENT_MM
            and abs(pa.z - pb.z) <= _COINCIDENT_MM
            and abs(ia.gamma - ib.gamma) <= _COINCIDENT_RAD
            and abs(ia.alpha - ib.alpha) <= _COINCIDENT_RAD
            and abs(ia.beta - ib.beta) <= _COINCIDENT_RAD)


def _order(sol: FkSolution) -> tuple[float, ...]:
    pose, inter = sol.pose, sol.intermediates
    return (pose.x, pose.y, pose.z, inter.gamma, inter.alpha, inter.beta)


def _finish(candidates: list[FkSolution], closure_tol: float) -> list[FkSolution]:
    """Candidates within ``closure_tol``, coincident ones merged, sorted by pose then angles.

    A passing candidate is dropped when it is :func:`_near` one already kept
    (the second copy of a double root of t or alpha), so the first of a
    coincident group in enumeration order is the one kept.
    """
    kept: list[FkSolution] = []
    for sol in candidates:
        if sol.residual > closure_tol:
            continue
        for k in kept:
            if _near(sol, k):
                break
        else:
            kept.append(sol)
    kept.sort(key=_order)
    return kept


def solve(
    inputs: JointInputs,
    params: ValidatedParams,
    *,
    closure_tol: float = CLOSURE_TOL,
) -> list[FkSolution]:
    """All closure-consistent poses for the given rail displacements.

    Enumerates every sign branch (elbow of gamma, root of t, root of
    alpha), keeps candidates whose worst closure residual is at most
    ``closure_tol``, and returns them sorted by (x, y, z).  An empty list
    means the inputs are regular but out of reach; singular inputs raise
    :class:`IndeterminateGamma`.
    """
    cos_gamma, sin_gammas = solve_gamma(inputs, params)
    return _finish(enumerate_candidates(inputs, params, cos_gamma, sin_gammas), closure_tol)


def solve_at_gamma(
    inputs: JointInputs,
    params: ValidatedParams,
    cos_gamma: float,
    sin_gamma: float,
    *,
    closure_tol: float = CLOSURE_TOL,
) -> list[FkSolution]:
    """Direct solutions with the planar-loop angle pinned by the caller.

    At the B = 0 singularity the loop equations leave gamma free, so
    :func:`solve` refuses; a caller that knows the angle (for instance
    from an inverse solution whose configuration is being re-checked) can
    still close the remaining chain through this entry point.  Away from
    it, passing one elbow of :func:`solve_gamma` gives that elbow's share
    of :func:`solve`.  The full residual filter applies: a pinned gamma off
    the closure circle yields no solutions.
    """
    return _finish(
        enumerate_candidates(inputs, params, cos_gamma, (sin_gamma,)), closure_tol
    )


def nearest(pose: Pose, solutions) -> tuple[FkSolution | None, float]:
    """The solution whose pose is nearest ``pose`` and its worst-coordinate
    distance (mm); ``(None, inf)`` when there are no solutions."""
    best, best_dev = None, math.inf
    for sol in solutions:
        dev = max(abs(sol.pose.x - pose.x), abs(sol.pose.y - pose.y), abs(sol.pose.z - pose.z))
        if dev < best_dev:
            best, best_dev = sol, dev
    return best, best_dev


def matched_pose(inputs: JointInputs, branch: tuple[int, int, int],
                 params: ValidatedParams) -> Pose:
    """The pose of the direct solution on ``branch``; raises :class:`NonComparable`
    when no solution of ``inputs`` is on it."""
    for sol in solve(inputs, params):
        if sol.branch == branch:
            return sol.pose
    raise NonComparable(f"branch {branch} disappeared at inputs {inputs.as_tuple()}")
