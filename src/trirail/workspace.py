"""Grid workspace mapping with feasibility and singularity labels.

A box is sampled on a regular grid; each point is tested for inverse
feasibility and every real solution branch is classified through the
velocity model.  A scan returns a :class:`ScanResult`: the grid's three
axes and read-only numpy label columns (solution count, the two smallest
determinants, the worst class) with one entry per point in row-major
order, ready for CSV/JSON export (plot-ready point clouds rather than
figures).  A point's class is the index ``serial + 2 * parallel`` into
:class:`SingularityKind`, the rule of :func:`jacobian.classify`, maximised
over the point's branches.

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
:func:`cross_section` apply them with numpy in two stages.  The distal
angles depend on x alone and the chain radicands on x and z alone, so
whether each of the 32 sign branches exists never depends on y; y only
shifts the rails.

* Stage A runs once per call over (x, z, alpha slot, beta slot, s1, s2,
  s3).  It decides which branches exist and lists them as cells grouped by
  (x, z), each with its y-free terms: the signed roots and the Jp entries
  of the distal links.  A cell's terms are taken by index from the arrays
  over (x, z, slot) that hold them, the indices and root signs following
  from its flat index in the grid of branches (:func:`_cells`).
* Stage B runs over (cell, y) pairs, that is over existing branches only
  (about a fifth of all).  It selects first, in chunks of consecutive whole
  (x, z) groups: it decides which branches work and which each point
  chooses, its working ones or all of its existing ones when none works.
  It keeps only the cells that some point chooses, with their rows of
  choices and their terms; on the reference design the others are the
  branches whose rails 1 and 2 sit l3 apart, half of all cells.  Then it
  labels the kept cells in passes of consecutive whole groups, each of up
  to ``_PASS_PAIRS`` pairs: a 21^3 scan takes 3 passes and a 41 x 41
  cross-section one.  A pass labels each run of classified pairs whose u =
  y_c - yA, the y offset of each chain's joint C from its rail A, are equal
  bit for bit from one y to the next in a cell.  A pair's determinants, row
  norms and serial test read only its cell's y-free terms and its u's, so a
  run's labels are computed once, at its start, and are exact for the whole
  run.  The rounding of y_c + r seldom changes along y: a 21^3 scan labels
  3,294 runs for its 27,468 classified pairs.  Each pair reads its run's
  labels (or fixed ones when it is not classified), the labels are reduced
  per point with ``reduceat`` over the cells of each (x, z), and the
  results are written into label arrays over (x, z) by y.  The temporaries
  of a chunk or a pass are bounded by ``_PASS_PAIRS``.  The kept cells'
  rows of choices hold one bool per kept pair; the label arrays span the
  grid, and one transposed copy of each puts it in row-major order.
  The result freezes those copies in place, without a further copy.

The kernel

* computes the distal angles, their sines, cosines and cotangents once
  per x as Python scalars (``math``, never ``np.sin``/``np.arccos``);
* takes every branch decision from the function the scalar path calls for
  it: the reach and base angles of the distal links (:func:`ik._bases`),
  whether a chain root exists or two merge (:func:`ik._roots`), the parallel
  B test (:func:`fk._parallel`), the distal fold (:func:`jacobian._folded`),
  the normalised det Jq (:func:`jacobian._norm_det_jq`) and the class index
  (:func:`jacobian._class_index`).  Each rule uses operators only, so it acts
  on arrays elementwise in the scalar operation order, and the kernel names
  no tolerance of its own;
* evaluates the remaining grid terms (h12, h3, the radicands, u and the Jp
  entries) in the scalar path's operation order;
* takes row norms with ``np.matmul`` of stacked rows, whose BLAS dot
  accumulates with fused multiply-adds and so rounds like
  :func:`jacobian._row_norm`.

These make the two agree bit for bit, which keeps exports byte-identical;
the staging changes no value, as every operation on a cell or a pair is
elementwise, no group is split between chunks or passes, a per-point
minimum or maximum does not depend on the order of the branches, and a
dropped cell would add only NaN dets and class 0, which the minimum and
maximum ignore.
Labels are shared along y only between pairs whose inputs are equal bit
for bit; where the rounding of a rail differs, so may the determinant
bits, and the pair starts a run of its own.

An export writes a point as three slots: its x, its y, and a tail holding
its z and its labels.  Each axis value's text is formatted once, each tail
once per run of equal labels along y (:func:`_tails`), and each distinct
bit pattern of the dets in those tails once: the 21^3 box's 9,261 points
take 856 tails and 917 float texts.  The text is joined and written a
few hundred points at a time (``_WRITE_ROWS``), so each string and its
encoded copy stay well below glibc's 128 KB mmap threshold and reuse heap
pages.  On a 2-core Xeon the ``perfbench`` workloads label and export
about 1.44M points/s on the 21^3 box and about 820k points/s on 41 x 41
sections.
"""

from __future__ import annotations

import math
import operator
import os
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, cycle, islice, repeat

import numpy as np

from . import fk, ik, jacobian
from .errors import CotangentSingular, InvalidParameter, OutOfRange, Unreachable, clipped
from .jacobian import _KINDS, SingularityKind
from .params import Pose, ValidatedParams, _Checked, _real

CSV_HEADER = "x,y,z,feasible,real_solution_count,min_norm_det_jp,min_norm_det_jq,class"


class ScanSpec(_Checked, namedtuple("ScanSpec", ("x_range", "y_range", "z_range", "resolution",
                                                  "singularity_threshold"),
                                     defaults=(41, jacobian.SINGULARITY_THRESHOLD))):
    """Axis-aligned box, per-axis point count, and classification threshold.

    A checked named tuple: every way to build one validates it, and it
    compares and hashes as the plain tuple of its fields.  Each range is
    kept as a tuple of two floats and the resolution as an ``int``.
    """

    __slots__ = ()

    @staticmethod
    def __post_init__(spec):
        ranges = []
        for name in ("x_range", "y_range", "z_range"):
            pair = getattr(spec, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise InvalidParameter(name, f"must be a (min, max) pair, got {clipped(pair)}")
            lo, hi = (_real(name, end) for end in pair)
            # a finite span also keeps every grid coordinate finite
            if not (lo < hi and math.isfinite(hi - lo)):
                raise InvalidParameter(name, "needs finite min < max, got "
                                             f"({clipped(pair[0])}, {clipped(pair[1])})")
            ranges.append((lo, hi))
        try:
            resolution = operator.index(spec.resolution)
        except TypeError:
            resolution = 0
        # operator.index takes a bool as an int, but a bool is no resolution
        if isinstance(spec.resolution, bool) or resolution < 2:
            raise InvalidParameter("resolution", f"must be an integer >= 2, got {spec.resolution!r}")
        threshold = _real("singularity_threshold", spec.singularity_threshold)
        if not (math.isfinite(threshold) and threshold > 0):
            raise InvalidParameter("singularity_threshold", "must be finite and > 0, got "
                                                            f"{clipped(spec.singularity_threshold)}")
        return (*ranges, resolution, spec.singularity_threshold)


def _product(xs: list, ys: list, zs: list) -> tuple[Iterator, Iterator, Iterator]:
    """Iterators over the x, y and z of each point of the row-major product
    ``xs`` x ``ys`` x ``zs``, or over what stands for them (their export
    text); the y and z iterators never end."""
    nz = len(zs)
    return (chain.from_iterable(map(repeat, xs, repeat(len(ys) * nz))),
            cycle(chain.from_iterable(map(repeat, ys, repeat(nz)))),
            cycle(zs))


#: each label column's name and dtype, and the least and greatest value of an integer one
_LABEL_COLUMNS = (("real_solution_count", np.intp, 0, np.iinfo(np.intp).max),
                  ("min_norm_det_jp", np.float64, None, None),
                  ("min_norm_det_jq", np.float64, None, None),
                  ("severity", np.int8, 0, len(_KINDS) - 1))


# no generated __eq__: array == is elementwise, so comparing two results would raise
@dataclass(frozen=True, eq=False)
class ScanResult:
    """Labelled points of the grid ``xs`` x ``ys`` x ``zs``: read-only numpy
    label columns with one entry per point in row-major (x, then y, then z)
    order.  ``x``, ``y`` and ``z`` list each point's coordinates, derived from
    the axes.

    A point is feasible when its ``real_solution_count`` (``np.intp``) is
    positive.  ``severity`` (``np.int8``) is the worst class as an index into
    :class:`SingularityKind`, and 0 on infeasible points.  The two det columns
    are float64, NaN where no branch is classified.  Each column is a copy of
    what the constructor was given.
    """

    xs: list[float]
    ys: list[float]
    zs: list[float]
    real_solution_count: np.ndarray
    min_norm_det_jp: np.ndarray
    min_norm_det_jq: np.ndarray
    severity: np.ndarray

    def __post_init__(self, copy: bool = True):
        for name in ("xs", "ys", "zs"):
            # export writes each axis value by repr, which has no JSON form for nan or inf
            if not all(map(math.isfinite, getattr(self, name))):
                raise InvalidParameter(name, "must hold finite values")
        for name, dtype, lo, hi in _LABEL_COLUMNS:
            given = np.asarray(getattr(self, name))
            if given.shape != (len(self),):
                # a column that is not 1-D may hold as many entries as the grid
                got = given.size if given.ndim == 1 else f"shape {given.shape}"
                raise InvalidParameter(name, f"needs {len(self)} entries, one per grid point, "
                                             f"got {got}")
            # checked before the cast, which would truncate a fraction and could
            # wrap a bad class index into range
            if lo is not None and not np.all((lo <= given) & (given <= hi) & (given % 1 == 0)):
                raise InvalidParameter(name, f"must hold integers from {lo} to {hi}")
            # a copy: freezing it leaves the caller's own array writable
            column = given.astype(dtype, copy=copy)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def _adopt(cls, *fields) -> ScanResult:
        """A result over ``fields`` that freezes their label arrays in place
        instead of copying them, after the same checks; only for arrays that
        nothing else holds."""
        self = object.__new__(cls)
        for name, value in zip(cls.__dataclass_fields__, fields):
            object.__setattr__(self, name, value)
        self.__post_init__(copy=False)
        return self

    def __len__(self) -> int:
        return len(self.xs) * len(self.ys) * len(self.zs)

    def _coordinate(self, k: int) -> list[float]:
        return list(islice(_product(self.xs, self.ys, self.zs)[k], len(self)))

    x = property(lambda self: self._coordinate(0), doc="The x of each point.")
    y = property(lambda self: self._coordinate(1), doc="The y of each point.")
    z = property(lambda self: self._coordinate(2), doc="The z of each point.")


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

#: (branch, y) pairs per numpy chunk of the kernel's second stage: consecutive
#: (x, z) groups are taken while a selection chunk holds no more than this
#: many existing pairs, and a labelling pass no more than this many kept
#: pairs (a larger group, possible only with over 384 y values, runs alone).
#: So an array of either holds at most 96 KB of floats, below glibc's 128 KB
#: mmap threshold.  A 21^3 scan labels in 3 passes and peaks at 0.97 MB of
#: traced memory; a 41 x 41 cross-section labels in one.
_PASS_PAIRS = 12288


def _grid(spec: ScanSpec, axis: str | None = None, value: float | None = None):
    """The grid axes ``[xs, ys, zs]``; with ``axis`` set, that axis holds only ``value``."""
    axes = [_axis_values(r, spec.resolution) for r in (spec.x_range, spec.y_range, spec.z_range)]
    if axis is not None:
        axes[_AXES.index(axis)] = [value]
    return axes


def _norms(*row) -> np.ndarray:
    """Euclidean norms of the 3-vectors ``row`` broadcast to one shape, each
    bitwise equal to :func:`jacobian._row_norm` of its row."""
    rows = np.stack(np.broadcast_arrays(*row), axis=-1)
    return np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])


def _passes(sizes: list[int], budget: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of runs of consecutive groups with ``sizes`` pairs each: a
    run holds at most ``budget`` pairs, unless it is one group.  No groups, no
    runs."""
    start = total = 0
    for stop, size in enumerate(sizes):
        if total + size > budget and stop > start:
            yield start, stop
            start, total = stop, 0
        total += size
    if sizes:
        yield start, len(sizes)


def _run_heads(classified: np.ndarray, *u: np.ndarray) -> np.ndarray:
    """Which (cell, y) pairs start a run along y: each classified pair, unless
    the pair one y back in its cell is classified too and every ``u`` there
    has the same bits.

    A pair's labels read only its cell's y-free terms and its u's, so every
    pair of a run has the labels of its head, bit for bit.
    """
    same = classified[:, :-1].copy()
    for column in u:
        bits = column.view(np.int64)
        same &= bits[:, 1:] == bits[:, :-1]
    heads = classified.copy()
    heads[:, 1:] &= ~same
    return heads


def _cells(exists: np.ndarray) -> tuple[np.ndarray, ...]:
    """The existing branches of ``exists``, over (x, z, alpha slot, beta slot,
    s1, s2, s3), in the order of ``exists[exists]``: each one's flat index into
    arrays over (x, z, alpha slot) and over (x, z, beta slot), and the sign of
    each of its three roots, +1.0 or -1.0.

    Each is integer arithmetic on the branch's flat index, whose last five
    bits are the alpha slot, the beta slot, s1, s2 and s3.
    """
    at = np.flatnonzero(exists)
    a = at >> 4
    signs = np.array([1.0, -1.0])
    # the (x, z) index doubled, then the beta slot's bit in place of the alpha slot's
    return (a, (a & -2) | ((at >> 3) & 1),
            *(signs.take((at >> bit) & 1) for bit in (2, 1, 0)))


def _label(xs, ys, zs, params: ValidatedParams, threshold: float):
    """Per-point (solution count, min |norm det Jp|, min |norm det Jq|, worst
    severity) arrays over the points ``xs`` x ``ys`` x ``zs``, row-major.

    Every branch decision is a call of the rule that :func:`ik.solve`,
    :func:`jacobian.build` and :func:`jacobian.classify` (and so
    :func:`sample_point`) call for that branch: :func:`ik._bases` per x,
    :func:`jacobian._folded` per distal slot, :func:`ik._roots` on the
    radicand arrays, :func:`fk._parallel` on the rail arrays, and
    :func:`jacobian._norm_det_jq` and :func:`jacobian._class_index` on the u
    arrays.  No tolerance and no comparison with zero is written here.

    Stage A decides which branches exist over (x, z, alpha slot, beta slot,
    s1, s2, s3), as y takes no part in that, and lists the existing ones as
    cells grouped by (x, z).  Stage B runs over (cell, y) pairs in chunks of
    whole groups.  It first keeps only the cells that some point chooses,
    then labels those in passes of whole groups, once per run of classified
    pairs whose u's are bit-equal along y, which is exact: a pair's labels
    read nothing but its cell's y-free terms and its u's.
    """
    l1, l2, l3, l6 = params.l1, params.l2, params.l3, params.l6
    # per x, distal link (alpha, beta), field and slot (+base, -base): whether
    # the slot is live and whether the link folds, then length * sin and the
    # cotangent
    flags, values = [], []
    for x in xs:
        try:
            bases, live = ik._bases(x, params), True
        except Unreachable:
            # an x out of reach has no live slot; a dead slot's values are never read
            bases, live = (0.0, 0.0), False
        for base, length in zip(bases, (params.l4, l6)):
            sin_p, sin_m = math.sin(base), math.sin(-base)
            fold_p, fold_m = jacobian._folded(sin_p), jacobian._folded(sin_m)
            flags += (live, live and not ik._single_elbow(base), fold_p, fold_m)
            # a folded elbow has no velocity model, so its cotangent is never read
            values += (length * sin_p, length * sin_m,
                       0.0 if fold_p else math.cos(base) / sin_p,
                       0.0 if fold_m else math.cos(-base) / sin_m)
    flags, values = np.reshape(flags, (-1, 2, 2, 2)), np.reshape(values, (-1, 2, 2, 2))

    # stage A, over (x, z, alpha slot, beta slot, s1, s2, s3)
    (live_a, fold_a, l4_sin_a, cot_a), (live_b, fold_b, l6_sin_b, cot_b) = (
        [np.reshape(column[:, link, k], shape) for column in (flags, values) for k in (0, 1)]
        for link, shape in enumerate(((-1, 1, 2, 1, 1, 1, 1), (-1, 1, 1, 2, 1, 1, 1))))
    Z = np.reshape(np.asarray(zs, dtype=float), (-1, 1, 1, 1, 1, 1))
    h12 = (Z - l4_sin_a) - l1
    h3 = (Z - params.l8 - l6_sin_b - params.l7) - l1
    M1 = l2 * l2 - h12 * h12
    M3 = l6 * l6 - h3 * h3
    # a negative radicand's root is never read
    root_1, root_3 = np.sqrt(np.abs(M1)), np.sqrt(np.abs(M3))
    # root k of a chain (+root, then -root) exists where its root count is above k
    k3 = np.arange(2)
    k1, k2 = k3[:, None, None], k3[:, None]
    roots_1, roots_3 = ik._roots(M1), ik._roots(M3)
    exists = live_a & live_b & (roots_1 > k1) & (roots_1 > k2) & (roots_3 > k3)

    # per cell, grouped by (x, z): the signed roots (each rail is yA = y_c + r),
    # the y-free Jp entries and whether a distal link folds, each taken from
    # the array over (x, z, alpha slot) or (x, z, beta slot) that holds it
    a, b, sign_1, sign_2, sign_3 = _cells(exists)
    root_1, root_3 = root_1.take(a), root_3.take(b)
    r1, r2, r3 = sign_1 * root_1, sign_2 * root_1, sign_3 * root_3
    j0, j2 = (cot_a * h12).take(a), (cot_b * h3).take(b)
    fold = np.broadcast_to(fold_a, h12.shape).take(a) | np.broadcast_to(fold_b, h3.shape).take(b)
    h12, h3 = h12.take(a), h3.take(b)
    # the solution count of each (x, z) at every y; the (x, z) with a cell are groups
    count = exists.reshape(len(xs), len(zs), -1).sum(axis=2)
    groups = np.flatnonzero(count)
    sizes = count.ravel()[groups]
    # the cells of group g are edges[g]:edges[g + 1]
    edges = np.concatenate(([0], np.cumsum(sizes)))

    # stage B, over (cell, y)
    nx, ny, nz = len(xs), len(ys), len(zs)
    Y = np.asarray(ys, dtype=float)
    y_c1, y_c2, y_c3 = Y + l3 / 2.0, Y - l3 / 2.0, Y

    # selection, in chunks of whole groups of up to _PASS_PAIRS existing pairs:
    # which cells each point chooses, its working ones or, when none works,
    # all of them.  A cell that no point chooses would add only NaN dets and
    # class 0, which fmin and max ignore, so only the others are kept, with
    # their rows of choices and their terms.
    chosen, kept = [np.empty((0, ny), bool)], [np.empty(0, np.intp)]
    for g0, g1 in _passes((sizes * ny).tolist(), _PASS_PAIRS):
        c = slice(edges[g0], edges[g1])
        working = ~fk._parallel(((y_c1 + r1[c, None]) - l3) - (y_c2 + r2[c, None]))
        # a point with no working branch chooses all its existing ones
        choice = working | np.repeat(~np.logical_or.reduceat(working, edges[g0:g1] - c.start),
                                     sizes[g0:g1], axis=0)
        some = np.flatnonzero(choice.any(axis=1))
        chosen.append(choice[some])
        kept.append(some + c.start)
    chosen, kept = np.concatenate(chosen), np.concatenate(kept)
    r1, r2, r3, j0, j2, h12, h3, fold = (term[kept] for term in (r1, r2, r3, j0, j2, h12, h3,
                                                                   fold))
    # each (group, y) chooses a cell, so each group keeps one; the kept cells of
    # group g are now edges[g]:edges[g + 1], and the labelling passes take
    # whole groups of up to _PASS_PAIRS kept pairs
    edges = np.searchsorted(kept, edges)
    sizes = np.diff(edges)
    del kept

    def reduced(c: slice, g: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Min |norm det Jp|, min |norm det Jq| and worst class of the kept cells
        ``c`` of the groups ``g``, at every y: arrays over (group, y)."""
        # u = y_c - yA at every pair, written over the rail yA = y_c + r
        yA1, yA2 = y_c1 + r1[c, None], y_c2 + r2[c, None]
        U = (np.subtract(y_c1, yA1, out=yA1), np.subtract(y_c2, yA2, out=yA2),
             np.subtract(y_c3, y_c3 + r3[c, None]))
        del yA1, yA2
        classified = chosen[c] & ~fold[c, None]
        head = _run_heads(classified, *U)
        # the determinants and the serial test run once per run, at its head
        heads = np.flatnonzero(head)
        u11, u22, u33 = (u.take(heads) for u in U)
        cell = c.start + heads // ny
        j0_, j2_, h12_, h3_ = j0[cell], j2[cell], h12[cell], h3[cell]
        # pair arrays are dropped once used: the gathered arrays set a pass's peak
        del U, heads, cell
        # the cofactor expansion of jacobian.build; no row of Jp vanishes:
        # u**2 + h**2 = l**2 on every branch
        det = jacobian._det3(((j0_, u11, h12_), (j0_, u22, h12_), (j2_, u33, h3_)))
        det /= _norms(j0_, u11, h12_) * _norms(j0_, u22, h12_) * _norms(j2_, u33, h3_)
        np.abs(det, out=det)
        del j0_, j2_, h12_, h3_
        # each pair's entry: its run's, the runs counted in flat order (a run
        # never reaches across cells, as a cell's first classified pair heads
        # one), or one of two more for the pairs that are not classified: an
        # unchosen branch (NaN dets, regular) and a folded chosen one (serial)
        run = np.where(classified, np.cumsum(head).reshape(head.shape) - 1,
                       len(det) + (chosen[c] & fold[c, None]))
        severity = np.concatenate((jacobian._class_index(u11, u22, u33, params, det <= threshold),
                                   (0, 1))).astype(np.int8)
        jq = np.abs(jacobian._norm_det_jq(u11, u22, u33, params))
        det, jq = (np.concatenate((column, (np.nan, np.nan))) for column in (det, jq))
        starts = edges[g] - c.start
        return (np.fmin.reduceat(det.take(run), starts), np.fmin.reduceat(jq.take(run), starts),
                np.maximum.reduceat(severity.take(run), starts))

    # the labels over (x, z) by y; an (x, z) with no cell keeps the infeasible fill
    labels = (np.full((nx * nz, ny), np.nan), np.full((nx * nz, ny), np.nan),
              np.zeros((nx * nz, ny), np.int8))
    for g0, g1 in _passes((sizes * ny).tolist(), _PASS_PAIRS):
        for column, values in zip(labels, reduced(slice(edges[g0], edges[g1]), slice(g0, g1))):
            column[groups[g0:g1]] = values
    # (x, z) by y to row-major (x, y, z): one transposed copy per column
    return (np.broadcast_to(count[:, None], (nx, ny, nz)).ravel(),
            *(column.reshape(nx, nz, ny).transpose(0, 2, 1).ravel() for column in labels))


def _kernel(xs, ys, zs, params: ValidatedParams, threshold: float) -> ScanResult:
    """:func:`sample_point` of every point of ``xs`` x ``ys`` x ``zs``, row-major."""
    return ScanResult._adopt(xs, ys, zs, *_label(xs, ys, zs, params, threshold))


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
#: 21^3 box (9,261 points) still takes one :func:`_tails` call
_EXPORT_ROWS = 1 << 16

#: points per string that an export joins and writes: about 16 KB of CSV or
#: 50 KB of JSON.  The string and the copy that the text file encodes stay
#: well below glibc's 128 KB mmap threshold, so they reuse heap pages instead
#: of mapping and faulting in fresh ones for every export
_WRITE_ROWS = 256

#: The fixed text of an exported point, per format: the text before each of
#: its seven values (x, y, z, count, min jp, min jq, class), the text after
#: the class name, the text before an infeasible point's count, and NaN.  A
#: JSON record starts with the ``,\n`` that separates it from the one before.
_SLOTS = {
    "csv": (("", ",", ",", ",true,", ",", ",", ","), "\n", ",false,", "nan"),
    "json": ((',\n {\n  "x": ', ',\n  "y": ', ',\n  "z": ',
              ',\n  "feasible": true,\n  "real_solution_count": ',
              ',\n  "min_norm_det_jp": ', ',\n  "min_norm_det_jq": ', ',\n  "class": "'),
             '"\n }',
             ',\n  "feasible": false,\n  "real_solution_count": ',
             "null"),
}


def _reprs(values: list[float], nan: str) -> list[str]:
    """The export text of each of ``values``: its ``repr``, or ``nan`` for a
    NaN of any payload (NaN is tested per value)."""
    return [repr(v) if v == v else nan for v in values]


def _tails(result: ScanResult, piece: slice, fmt: str, zs: list[str]) -> list[str]:
    """The tail of each point of ``result[piece]``: its z text from ``zs``,
    then its count, min jp, min jq and class, each with its fixed text from
    ``_SLOTS``.

    A tail is formatted only where the point's labels differ, bit for bit,
    from those of the point ``len(result.zs)`` places back in the piece: the
    same (x, z) one y back, except at the first y of an x.  Any other point
    takes the tail of the last point formatted on that chain, whose z is its
    own.  The formatted tails' dets are converted once per distinct bit
    pattern.  Equal bits give equal text, so this is exact for any grid and
    any cut into pieces; 0.0 and -0.0 differ in their bits.  An infeasible
    point writes NaN dets and the class ``none``, whatever its label columns
    hold.
    """
    prefixes, end, infeasible, nan = _SLOTS[fmt]
    # index 0 is an infeasible point's class, k + 1 the class index k
    classes = [f"{prefixes[6]}{name}{end}" for name in ["none", *(k.value for k in _KINDS)]]
    counts = result.real_solution_count[piece]
    feasible = counts > 0
    jp, jq = (np.where(feasible, column[piece], np.nan)
              for column in (result.min_norm_det_jp, result.min_norm_det_jq))
    severity = feasible * (result.severity[piece] + 1)
    # a piece's first points start their chains, so they are always formatted
    stride = len(result.zs)
    new = np.arange(len(counts)) < stride
    for column in (counts, jp.view(np.int64), jq.view(np.int64), severity):
        new[stride:] |= column[stride:] != column[:-stride]
    at = np.flatnonzero(new)
    # the jp and then the jq of each formatted tail, as indices into the texts
    # of their distinct bit patterns
    bits, dets = np.unique(np.concatenate((jp[at], jq[at])).view(np.int64), return_inverse=True)
    texts = _reprs(bits.view(np.float64).tolist(), nan)
    dets = dets.tolist()
    tails = np.empty(len(counts), object)
    tails[at] = [f"{zs[z]}{prefixes[3] if n else infeasible}{n}{prefixes[4]}{texts[p]}"
                 f"{prefixes[5]}{texts[q]}{classes[c]}"
                 for z, n, p, q, c in zip(((piece.start + at) % stride).tolist(),
                                          counts[at].tolist(), dets[:len(at)], dets[len(at):],
                                          severity[at].tolist())]
    # the last formatted point of each chain: a running maximum down the grid lines
    last = np.zeros(-(-len(counts) // stride) * stride, np.intp)
    last[at] = at
    return tails[np.maximum.accumulate(last.reshape(-1, stride)).ravel()[:len(counts)]].tolist()


def _chunks(result: ScanResult, fmt: str) -> Iterator[str]:
    """The export text of ``result`` in strings of up to ``_WRITE_ROWS`` points.

    A string is the join of three slot strings per point, each carrying its
    fixed text from ``_SLOTS``: the x, the y, and the tail from
    :func:`_tails`, which holds the z and the labels.  Each axis value is
    formatted once per export by ``repr``, and the tails once per piece of
    ``_EXPORT_ROWS`` points.
    """
    if not len(result):
        yield f"{CSV_HEADER}\n" if fmt == "csv" else "[]\n"
        return
    xs, ys, zs = ([f"{prefix}{v!r}" for v in axis] for axis, prefix
                  in zip((result.xs, result.ys, result.zs), _SLOTS[fmt][0]))
    coordinates = _product(xs, ys, zs)[:2]
    for start in range(0, len(result), _EXPORT_ROWS):
        tails = _tails(result, slice(start, start + _EXPORT_ROWS), fmt, zs)
        for at in range(0, len(tails), _WRITE_ROWS):
            some = tails[at:at + _WRITE_ROWS]
            parts = [""] * (3 * len(some))
            for k, slots in enumerate(coordinates):
                parts[k::3] = islice(slots, len(some))
            parts[2::3] = some
            if start + at == 0:
                parts[0] = f"{CSV_HEADER}\n{parts[0]}" if fmt == "csv" else f"[\n{parts[0][2:]}"
            if fmt == "json" and start + at + len(some) == len(result):
                parts.append("\n]\n")
            yield "".join(parts)


def export(samples: ScanResult, fmt: str, destination) -> None:
    """Write points as CSV or JSON; bit-stable for identical inputs.

    The labels are formatted ``_EXPORT_ROWS`` points at a time, and the text
    is joined and written ``_WRITE_ROWS`` points at a time, so an export
    holds one piece of label text and one small string, not the whole file.
    Each axis value is formatted once per export, a point's labels only
    where they differ from those of the point one grid line
    (``len(samples.zs)`` points) back, and each distinct det of a piece
    once.
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
    """Counts by label: total, feasible, and one bucket per class, as Python ints."""
    classes = samples.severity[samples.real_solution_count > 0]
    by_class = np.bincount(classes, minlength=len(_KINDS)).tolist()
    return {"total": len(samples), "feasible": len(classes),
            **{kind.value: n for kind, n in zip(_KINDS, by_class)}}
