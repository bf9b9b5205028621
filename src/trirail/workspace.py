"""Grid workspace mapping with feasibility and singularity labels.

A box is sampled on a regular grid; each point is tested for inverse
feasibility and every real solution branch is classified through the
velocity model.  A scan returns a :class:`ScanResult`: Python-list columns
(coordinates, solution count, the two smallest determinants, the worst
class) with one entry per point in row-major order, ready for CSV/JSON
export (plot-ready point clouds rather than figures).  A point's class is
the index ``serial + 2 * parallel`` into :class:`SingularityKind`, the
rule of :func:`jacobian.classify`, maximised over the point's branches.

Branches where a distal link folds onto the X axis have no finite
velocity model (the cotangent rows diverge); they are DOF-losing fold
configurations and are labelled serial, with no determinant contribution.

Every reachable pose also admits inverse branches whose chain-1/2 roots
agree, which places the rails exactly at the planar-loop parallel
singularity regardless of the pose; classifying those would paint the
entire workspace singular.  Labels therefore come from the working
(non-degenerate) assemblies, with the degenerate ones consulted only when
nothing else exists (exact boundary poses).

:func:`sample_point` states these rules one pose at a time, returning the
kernel's row for that pose, and is the reference.  :func:`scan` and
:func:`cross_section` apply them with numpy over whole x-planes: the distal
angles depend only on x, so one numpy pass labels every (y, z) point of a
run of consecutive planes across the 32 sign branches.  A pass holds up to
``_PASS_POINTS`` points and a plane larger than that runs alone: a 41 x 41
cross-section takes two passes, a 41^3 scan 41 passes of one plane, and no
numpy array spans the whole grid.  The two agree bit for bit, which keeps
exports byte-identical, because the kernel

* computes the distal angles, their sines, cosines and cotangents once
  per x as Python scalars (``math``, never ``np.sin``/``np.arccos``);
* evaluates every grid expression in the scalar path's operation order;
* takes row norms with ``np.matmul`` of stacked rows, which calls the
  same BLAS dot as ``np.dot`` (``einsum`` or ``(r * r).sum(-1)`` differ
  in the last ulp for some rows).
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import filterfalse, islice

import numpy as np

from . import fk, ik, jacobian
from .errors import CotangentSingular, InvalidParameter, OutOfRange, Unreachable
from .jacobian import _KINDS, SingularityKind
from .params import Pose, ValidatedParams

CSV_HEADER = "x,y,z,feasible,real_solution_count,min_norm_det_jp,min_norm_det_jq,class"


@dataclass(frozen=True)
class ScanSpec:
    """Axis-aligned box, per-axis point count, and classification threshold."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_range: tuple[float, float]
    resolution: int = 41
    singularity_threshold: float = jacobian.SINGULARITY_THRESHOLD

    def __post_init__(self):
        for name in ("x_range", "y_range", "z_range"):
            lo, hi = getattr(self, name)
            # a finite span also keeps every grid coordinate finite
            if not (lo < hi and math.isfinite(hi - lo)):
                raise InvalidParameter(name, f"needs finite min < max, got ({lo}, {hi})")
        if not isinstance(self.resolution, int) or self.resolution < 2:
            raise InvalidParameter("resolution", f"must be an integer >= 2, got {self.resolution!r}")
        if not (math.isfinite(self.singularity_threshold) and self.singularity_threshold > 0):
            raise InvalidParameter(
                "singularity_threshold", f"must be > 0, got {self.singularity_threshold!r}"
            )


# no generated __eq__: list equality of NaN dets depends on object identity
@dataclass(frozen=True, eq=False)
class ScanResult:
    """Labelled points as columns, one entry per point in the same order.

    A point is feasible when its ``real_solution_count`` is positive.
    ``severity`` is the worst class as an index into
    :class:`SingularityKind`, and 0 on infeasible points.
    """

    x: list[float]
    y: list[float]
    z: list[float]
    real_solution_count: list[int]
    min_norm_det_jp: list[float]
    min_norm_det_jq: list[float]
    severity: list[int]

    def __len__(self) -> int:
        return len(self.x)


def _axis_values(bounds: tuple[float, float], n: int) -> list[float]:
    lo, hi = bounds
    step = (hi - lo) / (n - 1)
    return [float(lo + i * step) for i in range(n)]


def sample_point(pose: Pose, params: ValidatedParams,
                 threshold: float) -> tuple[int, float, float, int]:
    """The kernel's row for one pose: (solution count, min |norm det Jp|,
    min |norm det Jq|, worst class index), with NaN dets where no branch is
    classified and (0, nan, nan, 0) when the pose is infeasible."""
    try:
        solutions = ik.solve(pose, params, check_roundtrip=False)
    except Unreachable:
        solutions = []
    if not solutions:
        return 0, math.nan, math.nan, 0
    working = [s for s in solutions if not s.parallel_singular]
    worst = 0
    min_jp = math.nan
    min_jq = math.nan
    for solution in working or solutions:
        try:
            pair = jacobian.build(pose, solution, params)
        except CotangentSingular:
            # a folded branch has no velocity model and is serial
            worst = max(worst, _KINDS.index(SingularityKind.SERIAL))
            continue
        cls = jacobian.classify(pair, params, threshold)
        worst = max(worst, _KINDS.index(cls.kind))
        if math.isnan(min_jp) or abs(cls.norm_det_jp) < min_jp:
            min_jp = abs(cls.norm_det_jp)
        if math.isnan(min_jq) or abs(cls.norm_det_jq) < min_jq:
            min_jq = abs(cls.norm_det_jq)
    return len(solutions), min_jp, min_jq, worst


_AXES = ("x", "y", "z")

#: points per numpy pass: consecutive x-planes are grouped while a pass holds
#: no more than this (a larger plane runs alone).  Each pass costs a fixed
#: ~0.4 ms of numpy calls, but bigger passes raise peak memory: on a 21^3
#: scan, passes of 4 planes (1,764 points) raised peak RSS by ~0.9 MB over
#: one plane per pass, passes of 2 planes by ~0.2 MB.
_PASS_POINTS = 1024
#: the kernel's branch axes: alpha slot, beta slot, root sign of chain 1, 2, 3
_BRANCHES = (0, 1, 2, 3, 4)


def _grid(spec: ScanSpec, axis: str | None = None, value: float | None = None):
    """The grid axes ``[xs, ys, zs]``; with ``axis`` set, that axis holds only ``value``."""
    axes = [_axis_values(r, spec.resolution) for r in (spec.x_range, spec.y_range, spec.z_range)]
    if axis is not None:
        axes[_AXES.index(axis)] = [value]
    return axes


def _elbows(base: float | None, length: float):
    """Both slots of one distal elbow at one x: (live, length * sin, cot, fold) pairs.

    ``base`` is None when the x is out of reach: no slot is live, and the
    placeholder values of a dead slot are never read.
    """
    if base is None:
        return (False, False), (0.0, 0.0), (0.0, 0.0), (False, False)
    angles = (base, -base)
    sines = [math.sin(a) for a in angles]
    folds = [abs(s) < jacobian.COT_GUARD for s in sines]
    # a folded elbow has no velocity model, so its cotangent is never read
    cots = [0.0 if f else math.cos(a) / s for a, s, f in zip(angles, sines, folds)]
    # 0 and pi are their own mirror images: one elbow, not two
    return (True, base not in (0.0, math.pi)), [length * s for s in sines], cots, folds


def _at(values, axis: int) -> np.ndarray:
    """``values`` laid along one branch axis: alpha, beta, root sign of chain 1, 2, 3.

    A list of per-x slot pairs also runs along the x axis.
    """
    a = np.asarray(values)
    shape = [1] * 7
    if a.ndim == 2:
        a = a.T
        shape[5] = a.shape[1]
    shape[axis] = a.shape[0]
    return a.reshape(shape)


def _norms(*row) -> np.ndarray:
    """Euclidean norms of the 3-vectors ``row`` broadcast to one shape, as in ``classify``."""
    return jacobian._row_norms(np.stack(np.broadcast_arrays(*row), axis=-1))


def _label(xs, ys, zs, params: ValidatedParams, threshold: float):
    """Per-point (solution count, min |norm det Jp|, min |norm det Jq|, worst
    severity) lists over the points ``xs`` x ``ys`` x ``zs``, row-major.

    Arrays run over (alpha slot, beta slot, s1, s2, s3, x, point), where a
    point is one (y, z) of a plane; every branch decision is the one
    :func:`ik.solve`, :func:`jacobian.build` and :func:`jacobian.classify`
    make for that branch.
    """
    l1, l2, l3, l6 = params.l1, params.l2, params.l3, params.l6
    per_x = []
    for x in xs:
        try:
            alpha_base = ik._clamped_acos((x + params.b - params.d) / params.l4, "alpha")
            beta_base = ik._clamped_acos((x + params.d - params.b) / params.l6, "beta")
        except Unreachable:
            alpha_base = beta_base = None
        per_x.append(_elbows(alpha_base, params.l4) + _elbows(beta_base, l6))
    live_a, l4_sin_a, cot_a, fold_a, live_b, l6_sin_b, cot_b, fold_b = (
        _at(column, 0 if i < 4 else 1) for i, column in enumerate(zip(*per_x)))

    Y = np.repeat(np.asarray(ys, dtype=float), len(zs))
    Z = np.tile(np.asarray(zs, dtype=float), len(ys))
    y_c1, y_c2, y_c3 = Y + l3 / 2.0, Y - l3 / 2.0, Y
    h12 = (Z - l4_sin_a) - l1
    h3 = (Z - params.l8 - l6_sin_b - params.l7) - l1
    M1 = l2 * l2 - h12 * h12
    M3 = l6 * l6 - h3 * h3
    with np.errstate(invalid="ignore"):
        root_1 = np.sqrt(M1)
        root_3 = np.sqrt(M3)
    s1, s2, s3 = (_at([1.0, -1.0], axis) for axis in (2, 3, 4))
    yA1 = y_c1 + s1 * root_1
    yA2 = y_c2 + s2 * root_1
    yA3 = y_c3 + s3 * root_3
    u11, u22, u33 = y_c1 - yA1, y_c2 - yA2, y_c3 - yA3

    # a zero radicand merges the two roots of its chain into one branch
    exists = (live_a & live_b & (M1 >= 0.0) & (M3 >= 0.0)
              & ((s1 > 0) | (root_1 != 0.0)) & ((s2 > 0) | (root_1 != 0.0))
              & ((s3 > 0) | (root_3 != 0.0)))
    working = exists & (np.abs((yA1 - l3) - yA2) > fk.EPS_B)
    chosen = np.where(working.any(axis=_BRANCHES, keepdims=True), working, exists)
    fold = fold_a | fold_b
    classified = chosen & ~fold

    def per_point(a) -> list:
        return a.ravel().tolist()

    def smallest(values) -> list:
        """Least of ``values`` over the classified branches, NaN where none; overwrites ``values``."""
        np.copyto(values, np.inf, where=~classified)
        return per_point(np.where(classified.any(axis=_BRANCHES), values.min(axis=_BRANCHES),
                                  np.nan))

    j0 = cot_a * h12
    j2 = cot_b * h3
    # |norm det Jp| and then |norm det Jq| are built in one buffer, so a pass
    # holds few arrays of its full size.  No row of Jp vanishes:
    # u**2 + h**2 = l**2 on every branch
    det = (j0 * (u22 * h3 - h12 * u33)
           - u11 * (j0 * h3 - h12 * j2)
           + h12 * (j0 * u33 - u22 * j2))
    det /= _norms(j0, u11, h12) * _norms(j0, u22, h12) * _norms(j2, u33, h3)
    np.abs(det, out=det)
    parallel = det <= threshold
    min_jp = smallest(det)
    np.multiply((u11 / l2) * (u22 / l2), u33 / l6, out=det)
    np.abs(det, out=det)
    min_jq = smallest(det)
    serial = ((np.abs(u11) / l2 <= jacobian.SERIAL_THRESHOLD)
              | (np.abs(u22) / l2 <= jacobian.SERIAL_THRESHOLD)
              | (np.abs(u33) / l6 <= jacobian.SERIAL_THRESHOLD))
    # the class index serial + 2 * parallel of classify; a folded branch is serial
    severity = np.where(fold, np.int8(1), serial + parallel * np.int8(2))
    return (per_point(exists.sum(axis=_BRANCHES)), min_jp, min_jq,
            per_point(np.where(chosen, severity, 0).max(axis=_BRANCHES)))


def _kernel(xs, ys, zs, params: ValidatedParams, threshold: float) -> ScanResult:
    """:func:`sample_point` of every point of ``xs`` x ``ys`` x ``zs``, row-major, as
    columns, in numpy passes of consecutive whole x-planes of up to ``_PASS_POINTS`` points."""
    plane = len(ys) * len(zs)
    step = max(1, _PASS_POINTS // plane)
    labels = ([], [], [], [])
    for i in range(0, len(xs), step):
        for column, part in zip(labels, _label(xs[i:i + step], ys, zs, params, threshold)):
            column.extend(part)
    return ScanResult([x for x in xs for _ in range(plane)],
                      [y for y in ys for _ in zs] * len(xs),
                      zs * (len(xs) * len(ys)),
                      *labels)


def scan(spec: ScanSpec, params: ValidatedParams, *, workers: int = 1) -> ScanResult:
    """One labelled point per grid point in row-major (x, then y, then z) order.

    ``workers`` is accepted for compatibility and has no effect.
    """
    return _kernel(*_grid(spec), params, spec.singularity_threshold)


def cross_section(
    spec: ScanSpec,
    params: ValidatedParams,
    axis: str,
    value: float,
    *,
    workers: int = 1,
) -> ScanResult:
    """Planar slice with the same per-point semantics as :func:`scan`.

    ``axis`` is one of "x", "y", "z"; ``value`` must lie within the spec's
    (inclusive) range on that axis, else :class:`OutOfRange`.  Points run
    row-major over the two remaining axes.  ``workers`` has no effect.
    """
    key = axis.lower()
    if key not in _AXES:
        raise InvalidParameter("axis", f"must be one of x, y, z, got {axis!r}")
    bounds = (spec.x_range, spec.y_range, spec.z_range)[_AXES.index(key)]
    if not (bounds[0] <= value <= bounds[1]):
        raise OutOfRange(f"{key} = {value:g} outside scan range [{bounds[0]:g}, {bounds[1]:g}]")
    return _kernel(*_grid(spec, key, float(value)), params, spec.singularity_threshold)


#: points per piece of export text: bounds the memory an export holds, and the
#: 21^3 box (9,261 points) still goes out in one piece
_EXPORT_ROWS = 1 << 16


def _reprs(values: list[float]) -> list[str]:
    """``repr`` of each value, computed once per distinct value (a grid axis has few)."""
    if len(set(map(repr, filterfalse(None, values)))) > 1:
        # 0.0 and -0.0 are one set element but two reprs
        return list(map(repr, values))
    memo = {v: repr(v) for v in set(values)}
    return list(map(memo.__getitem__, values))


def _rows(result: ScanResult):
    """(x, y, z reprs, count, min jp, min jq, class name) of each point."""
    names = [kind.value for kind in _KINDS]
    return zip(_reprs(result.x), _reprs(result.y), _reprs(result.z),
               result.real_solution_count, result.min_norm_det_jp, result.min_norm_det_jq,
               map(names.__getitem__, result.severity))


def _csv_text(rows, first: bool) -> str:
    """CSV lines of ``rows`` (of :func:`_rows`), after the header on the ``first``
    piece: floats by ``repr``, NaN dets as ``nan``."""
    lines = "".join([f"{x},{y},{z},true,{n},{jp!r},{jq!r},{name}\n" if n
                     else f"{x},{y},{z},false,0,nan,nan,none\n"
                     for x, y, z, n, jp, jq, name in rows])
    return f"{CSV_HEADER}\n{lines}" if first else lines


def _json_text(rows, first: bool, last: bool) -> str:
    """The records of ``rows`` (of :func:`_rows`) as one piece of ``json.dumps`` of
    all records with ``indent=1``, byte for byte: floats by ``float.__repr__``
    (which ``str`` is), NaN dets as null, the class as a quoted ASCII string."""
    records = ",\n".join([
        f' {{\n  "x": {x},\n  "y": {y},\n  "z": {z},\n  "feasible": true,\n'
        f'  "real_solution_count": {n},\n  "min_norm_det_jp": {jp if jp == jp else "null"},\n'
        f'  "min_norm_det_jq": {jq if jq == jq else "null"},\n  "class": "{name}"\n }}'
        if n else
        f' {{\n  "x": {x},\n  "y": {y},\n  "z": {z},\n  "feasible": false,\n'
        f'  "real_solution_count": 0,\n  "min_norm_det_jp": null,\n'
        f'  "min_norm_det_jq": null,\n  "class": "none"\n }}'
        for x, y, z, n, jp, jq, name in rows])
    if first and last and not records:
        return "[]\n"
    return ("[\n" if first else ",\n") + records + ("\n]\n" if last else "")


def _chunks(result: ScanResult, fmt: str) -> Iterator[str]:
    """The export text of ``result`` in pieces of up to ``_EXPORT_ROWS`` points."""
    rows = _rows(result)
    # no points still make one piece: the header, or "[]"
    for start in range(0, max(len(result), 1), _EXPORT_ROWS):
        piece = islice(rows, _EXPORT_ROWS)
        first, last = start == 0, start + _EXPORT_ROWS >= len(result)
        yield _csv_text(piece, first) if fmt == "csv" else _json_text(piece, first, last)


def export(samples: ScanResult, fmt: str, destination) -> None:
    """Write points as CSV or JSON; bit-stable for identical inputs.

    The text is built and written ``_EXPORT_ROWS`` points at a time, so an
    export holds one piece of it in memory, not the whole file.
    """
    if fmt not in ("csv", "json"):
        raise InvalidParameter("format", f"must be csv or json, got {fmt!r}")
    try:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_chunks(samples, fmt))
    except OSError as exc:
        raise OSError(f"writing {destination}: {exc}") from exc


def check_writable(destination) -> None:
    """Raise the error :func:`export` would raise if ``destination`` cannot be
    opened for writing, before any work is spent on the points; a file that
    did not exist is not left behind."""
    existed = os.path.lexists(destination)
    try:
        with open(destination, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise OSError(f"writing {destination}: {exc}") from exc
    if not existed:
        os.remove(destination)


def summary(samples: ScanResult) -> dict[str, int]:
    """Counts by label: total, feasible, and one bucket per class."""
    infeasible = samples.real_solution_count.count(0)
    by_class = {kind.value: samples.severity.count(k) for k, kind in enumerate(_KINDS)}
    # infeasible points carry severity 0
    by_class[SingularityKind.REGULAR.value] -= infeasible
    return {"total": len(samples), "feasible": len(samples) - infeasible, **by_class}
