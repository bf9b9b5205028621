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
return both roots, and the second copy falls to that rule.  It compares
flat keys ``(z, x, y, gamma, alpha, beta)``, z first: the candidates of one
query share y and often agree in x in pairs, but z tells them apart, so one
comparison settles most pairs.  The rule is a conjunction of comparisons
without side effects, so their order changes neither what is kept nor
which copy.

One function, :func:`_candidate`, builds each candidate from its t and
alpha: sin and cos of alpha, beta from the t-definition and the X-closure,
sin and cos of beta, the pose, and the residual vector through
:func:`_chain_residuals`, whose formulas :func:`residuals` shares.

The inverse round trip needs only the distance from its pose to the
nearest solution on one elbow: :func:`distance_at_gamma`.  It takes an
:class:`Elbow` from :func:`roundtrip_elbow`, which holds the terms every
candidate on that elbow shares (gamma, platform y, H1 and the planar-loop
residual), so the inverse solutions with the same alpha and rails 1 and 2
compute them once.  Where the solution's branch settles the answer, it
calls :func:`_candidate` for that one root.

Each candidate is an :class:`FkSolution` holding an :class:`FkBranch` and
an :class:`FkIntermediates`.  All three are immutable named tuples; read
them by field name.
"""

from __future__ import annotations

import math
import sys
from operator import itemgetter
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


class Elbow(NamedTuple):
    """The planar-loop elbow that confirms inverse solutions; see :func:`roundtrip_elbow`.

    ``mode`` is the round trip's route, "direct" or "singular-family".
    ``gamma`` is atan2 of the sine and cosine, ``y`` the platform y (mm),
    ``H1`` the gamma term of :func:`solve_t`, ``r1`` the planar-loop
    residual (mm) and ``scale`` the sum of the lengths (mm) that bound the
    rounding of the elbow's candidates.
    """

    mode: str
    cos_gamma: float
    sin_gamma: float
    gamma: float
    y: float
    H1: float
    r1: float
    scale: float


def solve_gamma(inputs: JointInputs, params: ValidatedParams) -> tuple[float, tuple[float, float]]:
    """Closure-consistent cos(gamma) plus both elbow values of sin(gamma).

    Raises :class:`IndeterminateGamma` at the B = 0 parallel singularity
    and :class:`GammaOutOfRange` when the loop cannot close.
    """
    B = inputs.yA1 - params.l3 - inputs.yA2
    if _parallel(B):
        raise IndeterminateGamma(f"yA1 - l3 - yA2 = {B:.3g} mm: planar-loop angle "
                                 "undetermined (parallel singularity)")
    return _solve_gamma(B, params)


def _parallel(B):
    """Whether rails 1 and 2 sit l3 apart, ``B = yA1 - l3 - yA2`` within
    :data:`EPS_B` of zero: the planar-loop parallel singularity.  Takes a
    float, or a numpy array elementwise."""
    return abs(B) <= EPS_B


def _solve_gamma(B: float, params: ValidatedParams) -> tuple[float, tuple[float, float]]:
    """cos(gamma) and both values of sin(gamma) at a B off the singularity."""
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
    return _t_roots(params.l2 * math.sin(gamma) - params.l8 - params.l7, yA3, pose_y, params)


def _t_roots(H1: float, yA3: float, pose_y: float, params: ValidatedParams) -> tuple[float, float]:
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


def _alpha_roots(t: float, params: ValidatedParams) -> list[tuple[int, float]]:
    """Both (sign, alpha) roots of J1*sin + J2*cos + J3 = 0, before beta is recovered.

    A double root is listed twice.  Raises :class:`AlphaUnreachable` when
    no real angle exists.
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
    return raw


def _candidate(params: ValidatedParams, yA3: float, y: float, sin_gamma: float, r1: float,
               t: float, alpha: float):
    """x, z, beta, sin(beta) and the residual vector of the candidate on
    (t, alpha) of an elbow with platform y and planar-loop residual ``r1``.

    beta follows from the t-definition and the X-closure; None when their
    (sin, cos) pair is off the unit circle.
    """
    l4, l6 = params.l4, params.l6
    sin_a, cos_a = math.sin(alpha), math.cos(alpha)
    sin_beta = (l4 * sin_a - t) / l6
    cos_beta = (l4 * cos_a + 2.0 * params.d - 2.0 * params.b) / l6
    # |cos beta| > 1 + CIRCLE_TOL puts this above about 2 * CIRCLE_TOL, so it fails here too
    if abs(sin_beta * sin_beta + cos_beta * cos_beta - 1.0) > CIRCLE_TOL:
        return None
    beta = math.atan2(sin_beta, cos_beta)
    sin_b, cos_b = math.sin(beta), math.cos(beta)
    z = params.l1 + params.l2 * sin_gamma + l4 * sin_a
    return (-params.b + l4 * cos_a + params.d, z, beta, sin_b,
            (r1, *_chain_residuals(y, z, t, yA3, params, sin_a, cos_a, sin_b, cos_b)))


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
    return (_planar_residual(inputs.yA1, inputs.yA2, params, math.sin(gamma), math.cos(gamma)),
            *_chain_residuals(pose.y, pose.z, intermediates.t, inputs.yA3, params,
                              math.sin(alpha), math.cos(alpha), math.sin(beta), math.cos(beta)))


def _planar_residual(yA1: float, yA2: float, params: ValidatedParams, sin_g: float, cos_g: float):
    """|B2C2| - l2 of :func:`residuals`, from rails 1 and 2 and sin and cos of gamma."""
    l2 = params.l2
    return abs(math.hypot(yA1 + l2 * cos_g - params.l3 - yA2, l2 * sin_g) - l2)


def _chain_residuals(y: float, z: float, t: float, yA3: float, params: ValidatedParams,
                     sin_a: float, cos_a: float, sin_b: float, cos_b: float):
    """The last three violations of :func:`residuals` at platform (y, z),
    from sin and cos of alpha and beta."""
    l4, l6 = params.l4, params.l6
    z_c3 = z - params.l8 - l6 * sin_b - params.l7
    return (abs(math.hypot(y - yA3, z_c3 - params.l1) - l6),
            abs(l4 * sin_a - l6 * sin_b - t),
            abs(l4 * cos_a + 2.0 * params.d - l6 * cos_b - 2.0 * params.b))


def enumerate_candidates(inputs: JointInputs, params: ValidatedParams, cos_gamma: float,
                         sin_gammas: tuple[float, ...]) -> list[FkSolution]:
    """All assemblable candidates for given gamma values, residual-unfiltered.

    Diagnostic surface: :func:`solve` filters this list by closure
    residual, but spurious-branch investigations (e.g. the sign-flipped
    cos(gamma) of the planar loop) need the rejected candidates too.
    """
    yA1, yA2, yA3 = inputs
    out: list[FkSolution] = []
    seen_sin = set()
    for sin_gamma in sin_gammas:
        if sin_gamma in seen_sin:
            # sin = -0.0 duplicates sin = 0.0; at cos(gamma) = -1 their gammas
            # are +pi and -pi, which no tolerance on gamma in _finish merges
            continue
        seen_sin.add(sin_gamma)
        gamma_sign = 1 if sin_gamma >= 0.0 else -1
        gamma, y, H1, r1 = _elbow_terms(yA1, yA2, cos_gamma, sin_gamma, params)
        try:
            t_values = _t_roots(H1, yA3, y, params)
        except ChainIIUnreachable:
            continue
        for t_sign, t in zip((1, -1), t_values):
            try:
                roots = _alpha_roots(t, params)
            except AlphaUnreachable:
                continue
            for alpha_sign, alpha in roots:
                candidate = _candidate(params, yA3, y, sin_gamma, r1, t, alpha)
                if candidate is None:
                    continue
                x, z, beta, _, vec = candidate
                # finite by construction, so Pose's check is skipped
                out.append(tuple.__new__(FkSolution, (
                    tuple.__new__(Pose, (x, y, z)),
                    tuple.__new__(FkBranch, (gamma_sign, t_sign, alpha_sign)),
                    tuple.__new__(FkIntermediates, (gamma, alpha, beta, t)), max(vec), vec)))
    return out


def _elbow_terms(yA1: float, yA2: float, cos_gamma: float, sin_gamma: float,
                 params: ValidatedParams) -> tuple[float, float, float, float]:
    """gamma, platform y, the H1 of :func:`solve_t` and the planar-loop
    residual of one elbow: every candidate on it shares them."""
    gamma = math.atan2(sin_gamma, cos_gamma)
    sin_g = math.sin(gamma)
    return (gamma, yA1 + params.l2 * cos_gamma - params.l3 / 2.0,
            params.l2 * sin_g - params.l8 - params.l7,
            _planar_residual(yA1, yA2, params, sin_g, math.cos(gamma)))


def roundtrip_elbow(yA1: float, yA2: float, y_c1: float, z_c1: float,
                    params: ValidatedParams, parallel: bool) -> Elbow:
    """The elbow that confirms every inverse solution with rails 1 and 2 at
    ``yA1`` and ``yA2`` and chain-1 joint C1 at (``y_c1``, ``z_c1``).

    ``parallel`` is :func:`_parallel` of the rails, which the caller has
    decided already.  Away from the singularity ("direct") cos(gamma) comes
    from the rails as in :func:`solve_gamma`, and sin(gamma) takes the sign
    of ``z_c1 - l1``; on it ("singular-family") both are pinned from C1.
    """
    l2 = params.l2
    if parallel:
        mode, cos_gamma, sin_gamma = "singular-family", (y_c1 - yA1) / l2, (z_c1 - params.l1) / l2
    else:
        mode, (cos_gamma, (sin_gamma, _)) = "direct", _solve_gamma(yA1 - params.l3 - yA2, params)
        # the solution's own elbow; sin = 0 is a single elbow, kept as +0.0 like solve
        if z_c1 < params.l1 and sin_gamma:
            sin_gamma = -sin_gamma
    return _elbow(mode, yA1, yA2, cos_gamma, sin_gamma, params)


def _elbow(mode: str, yA1: float, yA2: float, cos_gamma: float, sin_gamma: float,
           params: ValidatedParams) -> Elbow:
    """The :class:`Elbow` of route ``mode`` at the given cos and sin of gamma."""
    scale = params.l4 + params.l6 + abs(params.b) + abs(params.d) + abs(params.l1) + params.l2
    return tuple.__new__(Elbow, (mode, cos_gamma, sin_gamma,
                                 *_elbow_terms(yA1, yA2, cos_gamma, sin_gamma, params), scale))


#: A candidate within this of a kept one in x, y and z (mm) and in gamma,
#: alpha and beta (rad) coincides with it, and :func:`_finish` drops it.
_COINCIDENT_MM = 2e-9
_COINCIDENT_RAD = 2e-12


#: Sort key of :func:`_finish`: pose, then intermediates.  It orders kept
#: candidates as (x, y, z, gamma, alpha, beta) would; see :func:`_finish`.
_BY_POSE = itemgetter(0, 2)


def _finish(candidates: list[FkSolution], closure_tol: float) -> list[FkSolution]:
    """Candidates within ``closure_tol``, coincident ones merged, sorted by pose then angles.

    A passing candidate is dropped when it is within ``_COINCIDENT_MM`` in
    x, y and z and ``_COINCIDENT_RAD`` in gamma, alpha and beta of one
    already kept (the second copy of a double root of t or alpha), so the
    first of a coincident group in enumeration order is the one kept.  The
    fields of each kept candidate sit beside it as a flat key, z first, the
    field in which the candidates of one query differ most often; the order
    of the comparisons does not change their conjunction.

    Sorting by ``(pose, intermediates)`` orders as (x, y, z, gamma, alpha,
    beta) would: the first of the six fields in which two kept candidates
    differ decides both.  Only where none differs, each pair being one
    object or ``==``, could t decide, and then the later candidate has been
    merged, since equal floats are 0 apart.  A NaN alone escapes that, and
    no candidate of :func:`enumerate_candidates` holds one: gamma, y, t and
    alpha come out finite or the elbow or root is skipped, and x, z and
    beta follow from them, z infinite only with an infinite residual.
    """
    kept: list[FkSolution] = []
    keys: list[tuple[float, ...]] = []
    for sol in candidates:
        if sol.residual > closure_tol:
            continue
        (x, y, z), _, (gamma, alpha, beta, _), _, _ = sol
        for kz, kx, ky, k_gamma, k_alpha, k_beta in keys:
            if (abs(z - kz) <= _COINCIDENT_MM and abs(x - kx) <= _COINCIDENT_MM
                    and abs(y - ky) <= _COINCIDENT_MM
                    and abs(gamma - k_gamma) <= _COINCIDENT_RAD
                    and abs(alpha - k_alpha) <= _COINCIDENT_RAD
                    and abs(beta - k_beta) <= _COINCIDENT_RAD):
                break
        else:
            kept.append(sol)
            keys.append((z, x, y, gamma, alpha, beta))
    kept.sort(key=_BY_POSE)
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
    return _finish(enumerate_candidates(inputs, params, cos_gamma, (sin_gamma,)), closure_tol)


#: A chord c of the unit circle spans an arc of at most pi/2 * c, and a
#: candidate within 2 * reach in x and z is within a chord of
#: 2 * sqrt(2) * reach / l4 in (cos, sin) of alpha.
_ARC_PER_REACH = math.pi * math.sqrt(2.0)
#: Rounding of a sum, per mm of its terms' magnitudes: a few ulps.
_SLOP_PER_MM = 8.0 * sys.float_info.epsilon


def distance_at_gamma(pose: Pose, inputs: JointInputs, params: ValidatedParams, elbow: Elbow,
                      *, closure_tol: float = CLOSURE_TOL,
                      hint: tuple[float, float, float]) -> float:
    """The worst-coordinate distance (mm) from ``pose`` to the nearest
    :func:`solve_at_gamma` solution on ``elbow``, bit for bit; inf when
    there is none.

    ``hint = (t, alpha, reach)`` predicts the branch of the nearest solution
    and only saves work.  The candidate on the t root nearest ``t`` and the
    alpha root nearest ``alpha`` is built alone, as plain floats, unless
    another root could give a passing candidate within ``2 * reach`` of it
    in x and z or coincident with it.  Its distance is returned if it passes
    the closure filter and lies within ``reach``; otherwise every root is
    solved.

    All candidates of an elbow share y, and their x and z depend on alpha
    only.  A candidate within ``2 * reach`` of the predicted one in x and z
    has its alpha within ``_ARC_PER_REACH * reach / l4``; a coincident one
    (see :func:`_finish`) is within ``_COINCIDENT_RAD``.  ``window`` is the larger
    of the two, and the hint is declined when another root could fall
    inside it:

    * the other alpha root of the same t is compared directly;
    * a candidate on the other t root t' that passes ``closure_tol`` has,
      by the X-closure of both candidates, ``l6 |cos(beta') - cos(beta)| <=
      near = l4 * window + 2 * closure_tol``, hence
      ``l6 ||sin(beta')| - |sin(beta)|| <= 2 * near / |sin(beta)|``, and by
      the t-definition of both, t' lies within ``near * (1 + 2 / |sin(beta)|)``
      of t (same sign of sin(beta)) or of ``t + 2 * l6 * sin(beta)``
      (opposite sign).  Near the fold planes sin(beta) -> 0 and the bound
      declines by itself.

    ``slop`` bounds the rounding of the pose and residual sums: a few ulps
    of their largest terms.

    The answer reads rail 3 only as ``|elbow.y - inputs.yA3|``: ``_t_roots``
    squares ``y - yA3`` and ``_chain_residuals`` passes it to ``math.hypot``,
    on the hinted path and through :func:`solve_at_gamma` alike.  So rails
    whose yA3 lies bit for bit mirrored about ``elbow.y`` get the same
    distance, and :func:`ik.solve` asks once for such a pair.
    """
    hint_t, hint_alpha, reach = hint
    y = elbow.y
    try:
        t, t_other = _t_roots(elbow.H1, inputs.yA3, y, params)
        if abs(t_other - hint_t) < abs(t - hint_t):
            t_other, t = t, t_other
        (_, alpha), (_, other) = _alpha_roots(t, params)
    except (ChainIIUnreachable, AlphaUnreachable):
        pass
    else:
        if abs(other - hint_alpha) < abs(alpha - hint_alpha):
            alpha, other = other, alpha
        l4, l6 = params.l4, params.l6
        slop = _SLOP_PER_MM * (reach + closure_tol + abs(t) + abs(t_other) + elbow.scale)
        window = max(_ARC_PER_REACH * (reach + slop) / l4, _COINCIDENT_RAD)
        gap = abs(other - alpha)
        candidate = (None if min(gap, 2.0 * math.pi - gap) <= window
                     else _candidate(params, inputs.yA3, y, elbow.sin_gamma, elbow.r1, t, alpha))
        if candidate is not None:
            x, z, _, sin_b, vec = candidate
            near = l4 * window + 2.0 * (closure_tol + slop)
            # |shift| <= near * (1 + 2/|sin|), multiplied through by |sin| so sin = 0 declines
            bound = near * (abs(sin_b) + 2.0)
            shift = t_other - t
            declined = (abs(shift) * abs(sin_b) <= bound
                        or abs(shift - 2.0 * l6 * sin_b) * abs(sin_b) <= bound)
            # the filter of _finish and the distance of nearest, on the one candidate
            if not declined and not max(vec) > closure_tol:
                distance = max(abs(x - pose.x), abs(y - pose.y), abs(z - pose.z))
                if distance <= reach:
                    return distance
    return nearest(pose, solve_at_gamma(inputs, params, elbow.cos_gamma, elbow.sin_gamma,
                                        closure_tol=closure_tol))[1]


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
