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
residual check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AlphaUnreachable,
    ChainIIUnreachable,
    GammaOutOfRange,
    IndeterminateGamma,
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


@dataclass(frozen=True)
class FkBranch:
    """Sign choices that select one assembly out of up to eight."""

    sin_gamma_sign: int
    t_sign: int
    alpha_sign: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.sin_gamma_sign, self.t_sign, self.alpha_sign)


@dataclass(frozen=True)
class FkIntermediates:
    """The angles and chain offset that fix a candidate's configuration.

    gamma, alpha and beta are radians; t is the parallelogram-chain
    offset in mm.
    """

    gamma: float
    alpha: float
    beta: float
    t: float


@dataclass(frozen=True)
class FkSolution:
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


def solve_t(gamma: float, yA3: float, pose_y: float, params: ValidatedParams) -> tuple[float, ...]:
    """Both roots of the parallelogram-chain offset t = -H1 +/- sqrt(H2).

    Raises :class:`ChainIIUnreachable` when H2 < 0 (platform y out of reach
    of rail 3); returns a single merged root when H2 = 0.
    """
    H1 = params.l2 * math.sin(gamma) - params.l8 - params.l7
    H2 = params.l6 * params.l6 - (pose_y - yA3) * (pose_y - yA3)
    if H2 < 0.0:
        raise ChainIIUnreachable(
            f"|y - yA3| = {abs(pose_y - yA3):.6g} mm exceeds l6 = {params.l6:.6g} mm"
        )
    root = math.sqrt(H2)
    if root == 0.0:
        return (-H1,)
    return (-H1 + root, -H1 - root)


def _alpha_coefficients(t: float, params: ValidatedParams) -> tuple[float, float, float]:
    l4, l6, b, d = params.l4, params.l6, params.b, params.d
    J1 = 2.0 * l4 * t
    J2 = 4.0 * l4 * (b - d)
    J3 = l6 * l6 - l4 * l4 - t * t - 4.0 * (b - d) * (b - d)
    return J1, J2, J3


def _alpha_candidates(t: float, params: ValidatedParams):
    """(sign, alpha, beta) triples solving J1*sin + J2*cos + J3 = 0.

    Roots whose recovered beta leaves the unit circle are dropped.  Raises
    :class:`AlphaUnreachable` when no real angle exists.
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
    if disc == 0.0 and len(out) == 2:
        out = out[:1]  # double root
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
    l1, l2, l3, l4 = params.l1, params.l2, params.l3, params.l4
    l6, l7, l8, b, d = params.l6, params.l7, params.l8, params.b, params.d
    sin_g, cos_g = math.sin(intermediates.gamma), math.cos(intermediates.gamma)
    sin_a, cos_a = math.sin(intermediates.alpha), math.cos(intermediates.alpha)
    sin_b, cos_b = math.sin(intermediates.beta), math.cos(intermediates.beta)
    r1 = abs(math.hypot(inputs.yA1 + l2 * cos_g - l3 - inputs.yA2, l2 * sin_g) - l2)
    z_c3 = pose.z - l8 - l6 * sin_b - l7
    r2 = abs(math.hypot(pose.y - inputs.yA3, z_c3 - l1) - l6)
    r3 = abs(l4 * sin_a - l6 * sin_b - intermediates.t)
    r4 = abs(l4 * cos_a + 2.0 * d - l6 * cos_b - 2.0 * b)
    return (r1, r2, r3, r4)


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
            continue  # sin = -0.0 duplicates sin = 0.0
        seen_sin.add(sin_gamma)
        gamma_sign = 1 if sin_gamma >= 0.0 else -1
        gamma = math.atan2(sin_gamma, cos_gamma)
        y = inputs.yA1 + l2 * cos_gamma - l3 / 2.0
        try:
            t_values = solve_t(gamma, inputs.yA3, y, params)
        except ChainIIUnreachable:
            continue
        for t_index, t in enumerate(t_values):
            t_sign = 1 if t_index == 0 else -1
            try:
                alphas = _alpha_candidates(t, params)
            except AlphaUnreachable:
                continue
            for alpha_sign, alpha, beta in alphas:
                pose = Pose._trusted(
                    -b + l4 * math.cos(alpha) + d,
                    y,
                    l1 + l2 * sin_gamma + l4 * math.sin(alpha),
                )
                inter = FkIntermediates(gamma, alpha, beta, t)
                vec = residuals(pose, inter, inputs, params)
                out.append(FkSolution(
                    pose=pose,
                    branch=FkBranch(gamma_sign, t_sign, alpha_sign),
                    intermediates=inter,
                    residual=max(vec),
                    residual_vector=vec,
                ))
    return out


def _finish(candidates: list[FkSolution], closure_tol: float) -> list[FkSolution]:
    kept: dict[tuple, FkSolution] = {}
    for sol in candidates:
        if sol.residual > closure_tol:
            continue
        key = (
            round(sol.pose.x, 9), round(sol.pose.y, 9), round(sol.pose.z, 9),
            round(sol.intermediates.gamma, 12),
            round(sol.intermediates.alpha, 12),
            round(sol.intermediates.beta, 12),
        )
        if key not in kept:
            kept[key] = sol
    return sorted(
        kept.values(),
        key=lambda s: (s.pose.x, s.pose.y, s.pose.z,
                       s.intermediates.gamma, s.intermediates.alpha, s.intermediates.beta),
    )


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
