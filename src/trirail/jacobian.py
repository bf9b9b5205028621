"""Velocity model and singularity classification.

Differentiating the three chain-length constraints and substituting the
distal rates ``d(alpha)/dt = -dx/(l4*sin(alpha))`` and
``d(beta)/dt = -dx/(l6*sin(beta))`` couples platform rates
``v1 = (dx, dy, dz)`` and rail rates ``v2 = (dyA1, dyA2, dyA3)`` as

    Jp @ v1 = Jq @ v2

with ``Jq = diag(u11, u22, u33)``, ``uii = yCi - yBi``, and Jp rows

    [cot(angle_i) * (zCi - zBi),  yCi - yBi,  zCi - zBi]

where angle_i is alpha for chains 1 and 2 and beta for chain 3.  The
classes follow the two determinants: det(Jq) -> 0 is a serial singularity
(a chain folds, the platform loses freedom), det(Jp) -> 0 a parallel one
(the platform gains uncontrolled freedom), both at once comprehensive.
:class:`SingularityKind` lists regular, serial, parallel, comprehensive in
that order, so a class is the member at index ``serial + 2 * parallel``;
the workspace labels points with the same index.

Raw determinants carry mm^3; classification therefore normalises each Jp
row by its Euclidean norm and each u by its link length (l2, l2, l6) so a
single dimensionless threshold works at any scale.  The determinant is
formed on Python floats and the three row norms come from one stacked
``np.matmul`` (:func:`_row_norms`, which the workspace kernel shares): the
same IEEE operations as numpy-scalar cofactors and ``np.dot`` per row,
without their per-call overhead on a 3x3 matrix.

:class:`JacobianPair` and :class:`Classification` are immutable named
tuples, built once per classified branch.
"""

from __future__ import annotations

import math
from dataclasses import replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import fk
from .errors import CotangentSingular, NonComparable
from .ik import IkSolution
from .params import Pose, ValidatedParams

#: |sin| below this makes the cotangent rows meaningless.
COT_GUARD = 1e-9
#: Default dimensionless threshold on the normalised det(Jp) (parallel test).
SINGULARITY_THRESHOLD = 1e-3
#: Dimensionless threshold on normalised |u_ii| (serial test).  The
#: serial condition is exact rank loss of the diagonal (a rail at its stroke
#: boundary, u_ii = -/+sqrt(Mi) = 0); this tolerance only absorbs float noise,
#: it is not a nearness measure like the parallel threshold.
SERIAL_THRESHOLD = 1e-9


class SingularityKind(Enum):
    REGULAR = "regular"
    SERIAL = "serial"
    PARALLEL = "parallel"
    COMPREHENSIVE = "comprehensive"


#: The classes in index order: the class of a configuration is
#: ``_KINDS[serial + 2 * parallel]``.
_KINDS = tuple(SingularityKind)


class JacobianPair(NamedTuple):
    jp: np.ndarray
    jq: np.ndarray
    det_jp: float
    det_jq: float

    @property
    def u(self) -> tuple[float, float, float]:
        return (float(self.jq[0, 0]), float(self.jq[1, 1]), float(self.jq[2, 2]))


class Classification(NamedTuple):
    kind: SingularityKind
    norm_det_jp: float
    norm_det_jq: float


def _det3(m) -> float:
    """Determinant of a 3x3 matrix given as nested sequences of floats, by cofactors."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of stacked 3-vectors (the last axis), each bitwise equal to
    ``sqrt(np.dot(r, r))``: ``np.matmul`` of stacked rows calls the same BLAS dot
    as ``np.dot`` (``einsum`` or ``(r * r).sum(-1)`` differ in the last ulp for
    some rows)."""
    return np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])


def build(pose: Pose, solution: IkSolution, params: ValidatedParams) -> JacobianPair:
    """Evaluate the pair at an inverse solution's configuration.

    Raises :class:`CotangentSingular` when sin(alpha) or sin(beta) is
    within :data:`COT_GUARD` of zero (distal fold: the velocity model
    divides by these).
    """
    inputs = solution.inputs
    sin_a, cos_a = math.sin(solution.alpha), math.cos(solution.alpha)
    sin_b, cos_b = math.sin(solution.beta), math.cos(solution.beta)
    if abs(sin_a) < COT_GUARD or abs(sin_b) < COT_GUARD:
        raise CotangentSingular(
            f"sin(alpha) = {sin_a:.3e}, sin(beta) = {sin_b:.3e}: distal link folded onto X"
        )
    y_c1 = pose.y + params.l3 / 2.0
    y_c2 = pose.y - params.l3 / 2.0
    y_c3 = pose.y
    h12 = (pose.z - params.l4 * sin_a) - params.l1
    h3 = (pose.z - params.l8 - params.l6 * sin_b - params.l7) - params.l1
    u11 = y_c1 - inputs.yA1
    u22 = y_c2 - inputs.yA2
    u33 = y_c3 - inputs.yA3
    j0 = (cos_a / sin_a) * h12
    j2 = (cos_b / sin_b) * h3
    jp = ((j0, u11, h12), (j0, u22, h12), (j2, u33, h3))
    jq = ((u11, 0.0, 0.0), (0.0, u22, 0.0), (0.0, 0.0, u33))
    return JacobianPair(np.array(jp), np.array(jq), _det3(jp), u11 * u22 * u33)


def classify(
    pair: JacobianPair,
    params: ValidatedParams,
    threshold: float = SINGULARITY_THRESHOLD,
) -> Classification:
    """Classify a configuration from scale-normalised determinants.

    Parallel fires when the determinant of the row-normalised Jp is at
    most ``threshold`` in magnitude; serial when any |u| normalised by its
    link length is at most :data:`SERIAL_THRESHOLD` (exact rank loss of
    the diagonal, modulo float noise).  The class is the
    :class:`SingularityKind` at index ``serial + 2 * parallel``.
    """
    u11, u22, u33 = pair.u
    l2, l6 = params.l2, params.l6
    serial = (abs(u11) / l2 <= SERIAL_THRESHOLD or abs(u22) / l2 <= SERIAL_THRESHOLD
              or abs(u33) / l6 <= SERIAL_THRESHOLD)
    norms = _row_norms(pair.jp).tolist()
    norm_det_jp = 0.0 if min(norms) == 0.0 else pair.det_jp / (norms[0] * norms[1] * norms[2])
    parallel = abs(norm_det_jp) <= threshold
    return Classification(_KINDS[serial + 2 * parallel], norm_det_jp,
                          (u11 / l2) * (u22 / l2) * (u33 / l6))


def fd_check(
    pose: Pose,
    solution: IkSolution,
    params: ValidatedParams,
    step: float = 1e-6,
) -> float:
    """Max relative deviation of Jp^-1 @ Jq from central differences.

    Differentiates the direct map at ``solution.inputs`` while tracking the
    branch that produced ``pose``; raises :class:`NonComparable` when the
    branch cannot be matched on either side of a perturbation, and
    propagates direct-map errors.  Deviations are relative to the largest
    Jacobian entry (floored at 1).
    """
    base, dev = fk.nearest(pose, fk.solve(solution.inputs, params))
    if dev > 1e-6:
        raise NonComparable("pose is not a direct solution of the given inputs")

    pair = build(pose, solution, params)
    analytic = np.linalg.solve(pair.jp, pair.jq)

    numeric = np.empty((3, 3))
    names = ("yA1", "yA2", "yA3")
    for j, name in enumerate(names):
        plus = fk.matched_pose(
            replace(solution.inputs, **{name: getattr(solution.inputs, name) + step}),
            base.branch, params,
        )
        minus = fk.matched_pose(
            replace(solution.inputs, **{name: getattr(solution.inputs, name) - step}),
            base.branch, params,
        )
        numeric[:, j] = [
            (plus.x - minus.x) / (2.0 * step),
            (plus.y - minus.y) / (2.0 * step),
            (plus.z - minus.z) / (2.0 * step),
        ]
    scale = max(1.0, float(np.max(np.abs(analytic))))
    return float(np.max(np.abs(numeric - analytic)) / scale)
