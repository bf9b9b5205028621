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

Raw determinants carry mm^3; classification therefore normalises each Jp
row by its Euclidean norm and each u by its link length (l2, l2, l6) so a
single dimensionless threshold works at any scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import fk
from .errors import CotangentSingular, NonComparable
from .ik import IkSolution
from .params import JointInputs, Pose, ValidatedParams

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


@dataclass(frozen=True)
class JacobianPair:
    jp: np.ndarray
    jq: np.ndarray
    det_jp: float
    det_jq: float

    @property
    def u(self) -> tuple[float, float, float]:
        return (float(self.jq[0, 0]), float(self.jq[1, 1]), float(self.jq[2, 2]))


@dataclass(frozen=True)
class Classification:
    kind: SingularityKind
    #: 1-based chains whose normalised |u| fell below threshold.
    serial_witnesses: tuple[int, ...]
    #: which row dependence fired, e.g. "rows 1,2 dependent"; None if regular.
    parallel_witness: str | None
    norm_det_jp: float
    norm_det_jq: float
    min_norm_u: float


def _det3(m: np.ndarray) -> float:
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


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
    cot_a = cos_a / sin_a
    cot_b = cos_b / sin_b
    jp = np.array([
        [cot_a * h12, u11, h12],
        [cot_a * h12, u22, h12],
        [cot_b * h3, u33, h3],
    ])
    jq = np.diag([u11, u22, u33])
    return JacobianPair(jp=jp, jq=jq, det_jp=_det3(jp), det_jq=u11 * u22 * u33)


def classify(
    pair: JacobianPair,
    params: ValidatedParams,
    threshold: float = SINGULARITY_THRESHOLD,
) -> Classification:
    """Classify a configuration from scale-normalised determinants.

    Parallel fires when the determinant of the row-normalised Jp is at
    most ``threshold`` in magnitude; serial when any |u| normalised by its
    link length is at most :data:`SERIAL_THRESHOLD` (exact rank loss of
    the diagonal, modulo float noise).  The witness records which chain or
    which row pair fired.
    """
    u = pair.u
    scales = (params.l2, params.l2, params.l6)
    norm_u = tuple(abs(ui) / si for ui, si in zip(u, scales))
    norm_det_jq = (u[0] / scales[0]) * (u[1] / scales[1]) * (u[2] / scales[2])
    serial_witnesses = tuple(i + 1 for i, nu in enumerate(norm_u) if nu <= SERIAL_THRESHOLD)

    rows = [pair.jp[i] for i in range(3)]
    norms = [float(np.sqrt(np.dot(r, r))) for r in rows]
    if min(norms) == 0.0:
        norm_det_jp = 0.0
        parallel_witness = "zero row"
    else:
        norm_det_jp = pair.det_jp / (norms[0] * norms[1] * norms[2])
        parallel_witness = None
        if abs(norm_det_jp) <= threshold:
            units = [(r / n).tolist() for r, n in zip(rows, norms)]
            for i, j in ((0, 1), (0, 2), (1, 2)):
                (a0, a1, a2), (b0, b1, b2) = units[i], units[j]
                # np.cross written out: the same IEEE operations without its per-call overhead
                cross = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
                if float(np.sqrt(np.dot(cross, cross))) <= threshold:
                    parallel_witness = f"rows {i + 1},{j + 1} dependent"
                    break
            else:
                parallel_witness = "rank deficiency across all three rows"

    serial = bool(serial_witnesses)
    parallel = abs(norm_det_jp) <= threshold
    if serial and parallel:
        kind = SingularityKind.COMPREHENSIVE
    elif serial:
        kind = SingularityKind.SERIAL
    elif parallel:
        kind = SingularityKind.PARALLEL
    else:
        kind = SingularityKind.REGULAR
    return Classification(
        kind=kind,
        serial_witnesses=serial_witnesses,
        parallel_witness=parallel_witness if parallel else None,
        norm_det_jp=norm_det_jp,
        norm_det_jq=norm_det_jq,
        min_norm_u=min(norm_u),
    )


def _matched_pose(
    inputs: JointInputs,
    branch_key: tuple[int, int, int],
    params: ValidatedParams,
) -> Pose:
    for sol in fk.solve(inputs, params):
        if sol.branch.as_tuple() == branch_key:
            return sol.pose
    raise NonComparable(f"branch {branch_key} disappeared at inputs {inputs.as_tuple()}")


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
    base_branch = None
    for sol in fk.solve(solution.inputs, params):
        dev = max(abs(sol.pose.x - pose.x), abs(sol.pose.y - pose.y), abs(sol.pose.z - pose.z))
        if dev <= 1e-6:
            base_branch = sol.branch.as_tuple()
            break
    if base_branch is None:
        raise NonComparable("pose is not a direct solution of the given inputs")

    pair = build(pose, solution, params)
    analytic = np.linalg.solve(pair.jp, pair.jq)

    numeric = np.empty((3, 3))
    names = ("yA1", "yA2", "yA3")
    for j, name in enumerate(names):
        plus = _matched_pose(
            replace(solution.inputs, **{name: getattr(solution.inputs, name) + step}),
            base_branch, params,
        )
        minus = _matched_pose(
            replace(solution.inputs, **{name: getattr(solution.inputs, name) - step}),
            base_branch, params,
        )
        numeric[:, j] = [
            (plus.x - minus.x) / (2.0 * step),
            (plus.y - minus.y) / (2.0 * step),
            (plus.z - minus.z) / (2.0 * step),
        ]
    scale = max(1.0, float(np.max(np.abs(analytic))))
    return float(np.max(np.abs(numeric - analytic)) / scale)
