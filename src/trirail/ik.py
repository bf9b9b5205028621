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
is the one the solution fixes through ``zC1 - l1``.  Both routes ask FK
for one number, :func:`fk.distance_at_gamma`: the distance from the target
to the nearest direct solution on that elbow.  The solution's chain offset
``t = l4*sin(alpha) - l6*sin(beta)`` and its alpha go along as a hint, so
FK builds only the candidate they predict.  FK solves every root instead
where another root could give a candidate as near the target or
coincident with it, or where the predicted candidate fails its closure
residual or is not within ``roundtrip_tol`` of the target.  Either way
``roundtrip`` and ``roundtrip_residual`` are bit for bit what the full
enumeration gives.  The ``roundtrip`` field records which route confirmed
each solution.

:class:`IkSolution` and :class:`IkBranch` are immutable named tuples, like
the direct map's results.
"""

from __future__ import annotations

import math
from itertools import product
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


def _single_elbow(base: float) -> bool:
    """Whether the elbow angles +/-``base`` are one: 0 and pi are their own
    mirror images."""
    return base in (0.0, math.pi)


def _roundtrip(pose: Pose, inputs: JointInputs, y_c1: float, z_c1: float,
               parallel_singular: bool, params: ValidatedParams, closure_tol: float,
               roundtrip_tol: float, t: float, alpha: float) -> tuple[str, float]:
    if parallel_singular:
        cos_gamma = (y_c1 - inputs.yA1) / params.l2
        sin_gamma = (z_c1 - params.l1) / params.l2
        mode = "singular-family"
    else:
        cos_gamma, (sin_gamma, _) = fk.solve_gamma(inputs, params)
        # the branch's own elbow; sin = 0 is a single elbow, kept as +0.0 like fk.solve
        if z_c1 < params.l1 and sin_gamma:
            sin_gamma = -sin_gamma
        mode = "direct"
    best = fk.distance_at_gamma(pose, inputs, params, cos_gamma, sin_gamma,
                                closure_tol=closure_tol, hint=(t, alpha, roundtrip_tol))
    return (mode if best <= roundtrip_tol else "failed"), best


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
    alpha_base = _clamped_acos((pose.x + params.b - params.d) / params.l4,
                               "x + b - d relative to l4")
    beta_base = _clamped_acos((pose.x + params.d - params.b) / params.l6,
                              "x + d - b relative to l6")
    y_c1, y_c2, y_c3 = pose.y + l3 / 2.0, pose.y - l3 / 2.0, pose.y

    alpha_signs = (1,) if _single_elbow(alpha_base) else (1, -1)
    beta_signs = (1,) if _single_elbow(beta_base) else (1, -1)

    out: list[IkSolution] = []
    for s_alpha in alpha_signs:
        alpha = s_alpha * alpha_base
        l4_sin_a = params.l4 * math.sin(alpha)
        z_c1 = pose.z - l4_sin_a
        M1 = l2 * l2 - (z_c1 - l1) * (z_c1 - l1)
        if M1 < 0.0:
            continue
        for s_beta in beta_signs:
            beta = s_beta * beta_base
            l6_sin_b = l6 * math.sin(beta)
            z_c3 = pose.z - params.l8 - l6_sin_b - params.l7
            M3 = l6 * l6 - (z_c3 - l1) * (z_c3 - l1)
            if M3 < 0.0:
                continue
            root_1 = math.sqrt(M1)
            root_3 = math.sqrt(M3)
            sign_sets = (
                (1,) if root_1 == 0.0 else (1, -1),
                (1,) if root_1 == 0.0 else (1, -1),
                (1,) if root_3 == 0.0 else (1, -1),
            )
            merged = tuple(i + 1 for i, signs in enumerate(sign_sets) if len(signs) == 1)
            for s1, s2, s3 in product(*sign_sets):
                # finite by construction, so JointInputs' check is skipped
                inputs = tuple.__new__(JointInputs, (
                    y_c1 + s1 * root_1, y_c2 + s2 * root_1, y_c3 + s3 * root_3,
                ))
                B = inputs.yA1 - l3 - inputs.yA2
                parallel_singular = abs(B) <= fk.EPS_B
                if check_roundtrip:
                    roundtrip, residual = _roundtrip(
                        pose, inputs, y_c1, z_c1, parallel_singular,
                        params, closure_tol, roundtrip_tol, l4_sin_a - l6_sin_b, alpha,
                    )
                else:
                    roundtrip, residual = "skipped", math.nan
                out.append(IkSolution(inputs, IkBranch(s_alpha, s_beta, (s1, s2, s3)),
                                      M1, M3, alpha, beta, merged, parallel_singular,
                                      roundtrip, residual))
    out.sort(key=lambda s: (s.inputs.yA1, s.inputs.yA2, s.inputs.yA3, s.alpha, s.beta))
    return out
