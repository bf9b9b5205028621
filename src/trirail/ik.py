"""Inverse kinematics: a target pose to all real rail displacements.

For a pose (x, y, z) the distal angles follow directly from x:
``alpha = +/-arccos((x + b - d)/l4)`` and ``beta = +/-arccos((x + d - b)/l6)``.
Each chain then leaves a quadratic for its rail position,
``yAi = yCi +/- sqrt(Mi)``, so the theoretical solution count is
2 * 2 * 8 = 32; combinations with a negative radicand are complex and
dropped.

Chains 1 and 2 share the attachment height, so M1 = M2 and the two rails
use the same square root.  A consequence worth knowing: whenever the two
root signs agree, ``yA1 - yA2 = l3`` exactly, i.e. the solution sits on
the parallel singularity of the planar loop.  Such configurations are
genuine static assemblies but the direct map cannot re-derive the pose
from the inputs alone; the round-trip check pins the loop angle from the
solution itself and verifies the pose lies in the singular family.

Every other solution is confirmed by the direct map on its own planar-loop
elbow: cos(gamma) is re-derived from the rails, and the sign of sin(gamma)
is the one the solution fixes through ``zC1 - l1``.  Either way the elbow
depends on alpha and rails 1 and 2 only, so :func:`solve` builds one,
:func:`fk.roundtrip_elbow`, per alpha slot and pair of rail-1/2 roots, and
every solution of that group shares it (both roots of rail 3, per beta
slot).  Per solution it asks FK for one number, :func:`fk.distance_at_gamma`:
the distance from the target to the nearest direct solution on that elbow.
FK reads rail 3 only as ``|y - yA3|`` with y the elbow's platform y, so
where the two rail-3 roots of a beta slot lie bit for bit mirrored about
it, the second root takes the first one's answer without asking again.
The solution's chain offset ``t = l4*sin(alpha) - l6*sin(beta)`` and its
alpha go along as a hint, so FK builds only the candidate they predict.
FK solves every root instead where another root could give a candidate as
near the target or coincident with it, or where the predicted candidate
fails its closure residual or is not within ``roundtrip_tol`` of the
target.  Either way ``roundtrip`` and ``roundtrip_residual`` are bit for bit
what the full enumeration gives.  The ``roundtrip`` field records which
route confirmed each solution.

:class:`IkSolution` and :class:`IkBranch` are immutable named tuples, like
the direct map's results.
"""

from __future__ import annotations

import math
from itertools import product
from operator import itemgetter
from typing import NamedTuple

from . import fk
from .errors import Unreachable
from .params import JointInputs, Pose, ValidatedParams

#: Round-trip agreement required between a solution's re-solved pose and
#: the target (mm, per coordinate).
ROUNDTRIP_TOL = 1e-6


class IkBranch(NamedTuple):
    """Five independent sign choices: distal elbows plus one root per chain."""

    alpha_sign: int
    beta_sign: int
    root_signs: tuple[int, int, int]


class IkSolution(NamedTuple):
    inputs: JointInputs
    branch: IkBranch
    #: chain-1 radicand; chains 1 and 2 share the attachment height, so
    #: chain 2's radicand is M1 too.
    M1: float
    M3: float
    alpha: float
    beta: float
    #: chain indices (1-based) whose radicand is exactly zero (merged root,
    #: rail at its stroke boundary for this pose: serial singularity).
    serial_witnesses: tuple[int, ...]
    #: rails 1/2 spaced exactly l3 apart: planar-loop parallel singularity.
    parallel_singular: bool
    #: "direct" (FK on this solution's own gamma elbow, cos(gamma) from the
    #: rails, reproduced the pose), "singular-family" (FK with the loop angle
    #: pinned from this solution reproduced it), "failed", or "skipped" when
    #: checking was disabled.  ``roundtrip_residual`` is the one distance FK
    #: returns: from the pose to the nearest of all FK solutions on that
    #: elbow, though FK solves every root only where the hinted t and alpha
    #: do not settle it.
    roundtrip: str
    roundtrip_residual: float

    @property
    def consistent(self) -> bool:
        return self.roundtrip in ("direct", "singular-family")


def _clamped_acos(value: float, description: str) -> float:
    if abs(value) > 1.0:
        if abs(value) > 1.0 + fk.ACOS_CLAMP:
            raise Unreachable(f"{description} outside the arccos domain: {value:.9g}")
        value = math.copysign(1.0, value)
    return math.acos(value)


def _bases(x: float, params: ValidatedParams) -> tuple[float, float]:
    """The base angles of alpha and beta at platform x: each distal link's
    elbows are +/-base.  Raises :class:`Unreachable` when x puts either link
    outside its arccos domain."""
    return (_clamped_acos((x + params.b - params.d) / params.l4, "x + b - d relative to l4"),
            _clamped_acos((x + params.d - params.b) / params.l6, "x + d - b relative to l6"))


def _single_elbow(base: float) -> bool:
    """Whether the elbow angles +/-``base`` are one: 0 and pi are their own
    mirror images."""
    return base in (0.0, math.pi)


def _roots(M):
    """How many rail positions ``yC +/- sqrt(M)`` a chain's radicand ``M``
    gives: 0 when it is negative, 1 when it is zero (the two roots merge:
    the rail is at its stroke boundary, a serial singularity) and 2 else.

    Root k (0 for +sqrt(M), 1 for -sqrt(M)) exists where the count is above
    k.  Takes a float, or a numpy array elementwise.  The sqrt of a positive
    float is never zero, so a zero root and a zero radicand are one test.
    """
    return (M >= 0.0) * 1 + (M > 0.0)


def solve(
    pose: Pose,
    params: ValidatedParams,
    *,
    check_roundtrip: bool = True,
    closure_tol: float = fk.CLOSURE_TOL,
    roundtrip_tol: float = ROUNDTRIP_TOL,
) -> list[IkSolution]:
    """All real inverse solutions of ``pose``, sorted by (yA1, yA2, yA3).

    Raises :class:`Unreachable` when x puts either distal link outside its
    arccos domain; returns an empty list when every radicand is negative.
    With ``check_roundtrip`` each solution is confirmed against the direct
    map (see module docstring) and tagged in ``roundtrip``.
    """
    l1, l2, l3, l6 = params.l1, params.l2, params.l3, params.l6
    alpha_base, beta_base = _bases(pose.x, params)
    y_c1, y_c2, y_c3 = pose.y + l3 / 2.0, pose.y - l3 / 2.0, pose.y

    # (s_beta, beta, l6 sin(beta), M3, root_3, rail-3 signs, merged chain 3) per beta slot
    beta_slots = []
    for s_beta in (1,) if _single_elbow(beta_base) else (1, -1):
        beta = s_beta * beta_base
        l6_sin_b = l6 * math.sin(beta)
        z_c3 = pose.z - params.l8 - l6_sin_b - params.l7
        M3 = l6 * l6 - (z_c3 - l1) * (z_c3 - l1)
        roots_3 = _roots(M3)
        if roots_3:
            signs_3, merged_3 = ((1, -1), ()) if roots_3 == 2 else ((1,), (3,))
            beta_slots.append((s_beta, beta, l6_sin_b, M3, math.sqrt(M3), signs_3, merged_3))
    if not beta_slots:
        return []

    out: list[IkSolution] = []
    for s_alpha in (1,) if _single_elbow(alpha_base) else (1, -1):
        alpha = s_alpha * alpha_base
        l4_sin_a = params.l4 * math.sin(alpha)
        z_c1 = pose.z - l4_sin_a
        M1 = l2 * l2 - (z_c1 - l1) * (z_c1 - l1)
        roots_1 = _roots(M1)
        if not roots_1:
            continue
        root_1 = math.sqrt(M1)
        signs_1, merged_1 = ((1, -1), ()) if roots_1 == 2 else ((1,), (1, 2))
        for s1, s2 in product(signs_1, signs_1):
            yA1, yA2 = y_c1 + s1 * root_1, y_c2 + s2 * root_1
            parallel = fk._parallel(yA1 - l3 - yA2)
            # one planar-loop elbow confirms every solution of this alpha, yA1 and yA2
            elbow = check_roundtrip and fk.roundtrip_elbow(yA1, yA2, y_c1, z_c1, params, parallel)
            for s_beta, beta, l6_sin_b, M3, root_3, signs_3, merged_3 in beta_slots:
                for s3 in signs_3:
                    yA3 = y_c3 + s3 * root_3
                    # finite by construction, so JointInputs' check is skipped
                    inputs = tuple.__new__(JointInputs, (yA1, yA2, yA3))
                    if not elbow:
                        roundtrip, residual = "skipped", math.nan
                    else:
                        # FK reads rail 3 only as |y - yA3|: a mirrored root shares the answer
                        offset = abs(elbow.y - yA3)
                        if s3 == 1 or offset != mirror:
                            residual = fk.distance_at_gamma(
                                pose, inputs, params, elbow, closure_tol=closure_tol,
                                hint=(l4_sin_a - l6_sin_b, alpha, roundtrip_tol))
                            roundtrip = elbow.mode if residual <= roundtrip_tol else "failed"
                        mirror = offset
                    out.append(tuple.__new__(IkSolution, (
                        inputs, tuple.__new__(IkBranch, (s_alpha, s_beta, (s1, s2, s3))),
                        M1, M3, alpha, beta, merged_1 + merged_3, parallel,
                        roundtrip, residual)))
    out.sort(key=itemgetter(0, 4, 5))  # (inputs, alpha, beta): (yA1, yA2, yA3, alpha, beta)
    return out
