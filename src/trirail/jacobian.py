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
formed by cofactors and each row norm rounds like a fused-multiply-add dot,
all on Python floats.  That row norm is one function, :func:`_row_norm`,
which folds both fused steps into its body.  The rows themselves are one
function, :func:`_jp`, over the heights and joint y's of :mod:`trirail.fk`,
and the workspace kernel calls it on arrays.

:class:`JacobianPair` and :class:`Classification` are immutable named
tuples, built once per classified branch.  ``JacobianPair.jp`` and ``jq``
are nested tuples of Python floats.

:func:`build` and :func:`classify` serve one branch; :func:`label` labels
every inverse branch of a pose with them, giving ``None`` for a distal
fold, and is the one place a fold is caught.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

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
    """Jp and Jq as row tuples of Python floats (Jq diagonal), with their determinants."""

    jp: tuple[tuple[float, float, float], ...]
    jq: tuple[tuple[float, float, float], ...]
    det_jp: float
    det_jq: float

    @property
    def u(self) -> tuple[float, float, float]:
        jq = self.jq
        return (jq[0][0], jq[1][1], jq[2][2])


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


#: Veltkamp's splitter for doubles, 2**27 + 1.
_SPLIT = 134217729.0


def _row_norm(a: float, b: float, c: float) -> float:
    """``sqrt(fma(c, c, fma(b, b, a*a)))``: the Euclidean norm of one Jp row,
    rounded like a BLAS dot that accumulates with fused multiply-adds, which
    the workspace kernel's ``np.matmul`` calls (a plain ``a*a + b*b + c*c``
    differs in the last bit on about one row in twelve).

    Each fma rounds once: its factor splits into two halves of at most 26
    bits (Veltkamp), their three products are exact (Dekker 1971), and
    :func:`math.fsum` rounds the partials and the addend once.

    Exact for every Jp row: entries are at most ``MAX_LENGTH / COT_GUARD`` =
    1e15 in magnitude, so the split (about 1.3e23) and the squares never
    overflow, and each row has u**2 + h**2 = l**2 with l a link length, so an
    entry too tiny for its split halves to square exactly cannot move the
    rounded sum.
    """
    sb, sc = _SPLIT * b, _SPLIT * c
    hb, hc = sb - (sb - b), sc - (sc - c)
    lb, lc = b - hb, c - hc
    return math.sqrt(math.fsum((hc * hc, 2.0 * hc * lc, lc * lc,
                                math.fsum((hb * hb, 2.0 * hb * lb, lb * lb, a * a)))))


def _folded(sin):
    """Whether a distal link with this sin(angle) folds onto X: |sin| below
    :data:`COT_GUARD`, where its cotangent row has no meaning.  Takes a
    float, or a numpy array elementwise."""
    return abs(sin) < COT_GUARD


def _norm_det_jq(u11, u22, u33, params: ValidatedParams):
    """det Jq with each u normalised by its link length (l2, l2, l6).  Takes
    floats, or numpy arrays elementwise."""
    return (u11 / params.l2) * (u22 / params.l2) * (u33 / params.l6)


def _class_index(u11, u22, u33, params: ValidatedParams, parallel):
    """The class index ``serial + 2 * parallel`` into :class:`SingularityKind`.

    Serial fires when any |u| normalised by its link length (l2, l2, l6) is
    at most :data:`SERIAL_THRESHOLD`.  Takes floats and bools, or numpy
    arrays of them elementwise, as the workspace kernel passes.
    """
    l2, l6 = params.l2, params.l6
    serial = ((abs(u11) / l2 <= SERIAL_THRESHOLD) | (abs(u22) / l2 <= SERIAL_THRESHOLD)
              | (abs(u33) / l6 <= SERIAL_THRESHOLD))
    return serial + 2 * parallel


def _jp(j0, j2, h12, h3, u11, u22, u33):
    """The rows of Jp from the cotangent entries ``j0 = cot(alpha)*h12`` and
    ``j2 = cot(beta)*h3``, the chain heights and the u's: chains 1 and 2
    share their a and c.  Takes floats, or numpy arrays elementwise."""
    return (j0, u11, h12), (j0, u22, h12), (j2, u33, h3)


def build(pose: Pose, solution: IkSolution, params: ValidatedParams) -> JacobianPair:
    """Evaluate the pair at an inverse solution's configuration.

    Raises :class:`CotangentSingular` when sin(alpha) or sin(beta) is
    within :data:`COT_GUARD` of zero (distal fold: the velocity model
    divides by these).
    """
    inputs = solution.inputs
    sin_a, cos_a = math.sin(solution.alpha), math.cos(solution.alpha)
    sin_b, cos_b = math.sin(solution.beta), math.cos(solution.beta)
    if _folded(sin_a) or _folded(sin_b):
        raise CotangentSingular(
            f"sin(alpha) = {sin_a:.3e}, sin(beta) = {sin_b:.3e}: distal link folded onto X"
        )
    y_c1, y_c2, y_c3 = fk._joint_ys(pose.y, params)
    h12 = fk._h12(pose.z, params.l4 * sin_a, params)
    h3 = fk._h3(pose.z, params.l6 * sin_b, params)
    u11 = y_c1 - inputs.yA1
    u22 = y_c2 - inputs.yA2
    u33 = y_c3 - inputs.yA3
    jp = _jp((cos_a / sin_a) * h12, (cos_b / sin_b) * h3, h12, h3, u11, u22, u33)
    jq = ((u11, 0.0, 0.0), (0.0, u22, 0.0), (0.0, 0.0, u33))
    return tuple.__new__(JacobianPair, (jp, jq, _det3(jp), u11 * u22 * u33))


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

    A row norm depends only on the squares of the row's entries, so Jp
    rows 1 and 2 share one where their a and c are equal and their b
    differ at most in sign (``build`` gives both rows the same a and c).
    """
    (u11, _, _), (_, u22, _), (_, _, u33) = pair.jq
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = pair.jp
    n1 = _row_norm(a1, b1, c1)
    # _row_norm reads only the squares of a row: twin rows share one norm
    n2 = n1 if a2 == a1 and c2 == c1 and abs(b2) == abs(b1) else _row_norm(a2, b2, c2)
    n3 = _row_norm(a3, b3, c3)
    norm_det_jp = 0.0 if min(n1, n2, n3) == 0.0 else pair.det_jp / (n1 * n2 * n3)
    kind = _KINDS[_class_index(u11, u22, u33, params, abs(norm_det_jp) <= threshold)]
    return tuple.__new__(Classification, (kind, norm_det_jp, _norm_det_jq(u11, u22, u33, params)))


def label(pose: Pose, solutions: list[IkSolution], params: ValidatedParams,
          threshold: float = SINGULARITY_THRESHOLD) -> list[Classification | None]:
    """The class of each inverse branch of ``pose``, in order: its
    :func:`classify` of :func:`build`, or ``None`` where a distal link folds
    (:class:`CotangentSingular`), as a fold has no finite velocity model."""
    out = []
    for solution in solutions:
        try:
            pair = build(pose, solution, params)
        except CotangentSingular:
            out.append(None)
            continue
        out.append(classify(pair, params, threshold))
    return out


def fd_check(
    pose: Pose,
    solution: IkSolution,
    params: ValidatedParams,
    step: float = 1e-6,
) -> float:
    """Max relative deviation of Jp^-1 @ Jq from central differences.

    Differentiates the direct map at ``solution.inputs`` while tracking the
    branch that produced ``pose``; raises :class:`NonComparable` when the
    branch cannot be matched on either side of a perturbation or when Jp is
    singular, and propagates direct-map errors.  Deviations are relative to
    the largest Jacobian entry (floored at 1).
    """
    base, dev = fk.nearest(pose, fk.solve(solution.inputs, params))
    if dev > 1e-6:
        raise NonComparable("pose is not a direct solution of the given inputs")

    pair = build(pose, solution, params)
    jp, u, det = pair.jp, pair.u, pair.det_jp
    if det == 0.0:
        raise NonComparable("Jp is singular (det Jp = 0): Jp^-1 @ Jq does not exist")
    # Jp^-1 @ diag(u): entry (i, j) is cofactor (j, i) of Jp times u_j / det Jp
    analytic = [[(jp[(j + 1) % 3][(i + 1) % 3] * jp[(j + 2) % 3][(i + 2) % 3]
                  - jp[(j + 1) % 3][(i + 2) % 3] * jp[(j + 2) % 3][(i + 1) % 3]) * u[j] / det
                 for j in range(3)] for i in range(3)]

    numeric = []  # column j: d(x, y, z) / d(yA_j)
    for name in ("yA1", "yA2", "yA3"):
        rail = getattr(solution.inputs, name)
        plus, minus = (fk.matched_pose(solution.inputs._replace(**{name: rail + h}),
                                       base.branch, params) for h in (step, -step))
        numeric.append([(p - m) / (2.0 * step) for p, m in zip(plus, minus)])
    scale = max(1.0, *(abs(v) for row in analytic for v in row))
    return max(abs(numeric[j][i] - analytic[i][j]) for i in range(3) for j in range(3)) / scale
