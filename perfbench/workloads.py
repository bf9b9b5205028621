"""Workloads of the trirail benchmark and the checks on their outputs.

A run repeats rounds of identical work.  A round is a list of requests,
each what one user asks for in one go:

* ``scan-box``: one request, ``workspace.scan`` of the reference box at
  resolution 21 (9,261 points, including the x = 80 plane where both
  distal elbows merge), exported as CSV and summarised.  The workspace
  hot path, on the grid whose counts the test suite pins.
* ``sections``: 7 requests, X-Y ``cross_section`` of the box at
  resolution 41 (1,681 points each) at z = 180, 230, ..., 480, each
  exported as JSON and summarised, as ``scripts/scan_workspace.py
  --sections`` does.  The same layers as ``scan-box`` in many medium
  calls, with the costlier JSON export and a smaller working set.
* ``queries``: one request per pose of a seeded block of uniform poses in
  the reference box, asked by one client in a closed loop: ``ik.solve``
  with the round-trip check, ``build``/``classify`` of every solution
  (``trirail ik`` without the rendering), then ``fk.solve`` on the rails
  of one seeded working branch.  Working branches, because rails at the
  parallel singularity exit FK early and would make its timing bimodal.

Rounds are short so that a run of 30 s holds 15 or more of them (see
``per_request_best`` in ``run.py``); a 41^3 scan takes about 10 s here.
Scans run at ``workers=1``: two workers on a two-core machine would time
the scheduler.  Every public call goes through its module attribute, so
the tracer in ``tracer.py`` sees it.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from trirail import fk, ik, jacobian, workspace
from trirail.errors import CotangentSingular, Unreachable
from trirail.params import JointInputs, Pose

BOX = workspace.ScanSpec(
    x_range=(-110.0, 90.0), y_range=(-250.0, 250.0), z_range=(180.0, 480.0), resolution=21
)
SECTIONS = workspace.ScanSpec(BOX.x_range, BOX.y_range, BOX.z_range, resolution=41)
SECTION_HEIGHTS = tuple(180.0 + 50.0 * k for k in range(7))
#: The CLI's default normalised-determinant threshold.
THRESHOLD = 1e-3
#: An FK query must reproduce the queried pose this closely (mm, per coordinate).
FK_TOL = 1e-6
#: Poses in the ``queries`` block: p99 then has 10 poses beyond it.
QUERIES_PER_ROUND = 1000

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(reason)


def check_scan_box(path, counts) -> str | None:
    """Reason the box export differs from the reference, or None."""
    ref = REFERENCE["scan-box"]
    if counts != ref["summary"]:
        return f"summary {counts} != reference {ref['summary']}"
    if sha256(path) != ref["csv_sha256"]:
        return f"{Path(path).name}: SHA-256 differs from the reference CSV"
    return None


def check_section(path) -> str | None:
    """Reason a section export differs from the reference, or None."""
    if sha256(path) != REFERENCE["sections"][Path(path).name]:
        return f"{Path(path).name}: SHA-256 differs from the reference JSON"
    return None


def _scan_box(params, out_dir: Path):
    samples = workspace.scan(BOX, params, workers=1)
    path = out_dir / "scan-box.csv"
    workspace.export(samples, "csv", path)
    return path, workspace.summary(samples)


def _section(params, out_dir: Path, z: float):
    samples = workspace.cross_section(SECTIONS, params, "z", z, workers=1)
    path = out_dir / f"section-z{z:g}.json"
    workspace.export(samples, "json", path)
    return path, workspace.summary(samples)


def scan_requests(kind: str, params, out_dir: Path, tally: Tally) -> list:
    """The requests of one ``scan-box`` or ``sections`` round.

    Each is a callable that runs one request, checks its output against
    the reference digest and returns its seconds.  Each request is one
    operation; an exception fails it instead of ending the run.
    """
    jobs = [_scan_box] if kind == "scan-box" else [partial(_section, z=z) for z in SECTION_HEIGHTS]

    def request(job) -> float:
        t0 = time.perf_counter()
        try:
            path, counts = job(params, out_dir)
        except Exception as exc:  # anything raised is a failed operation
            path = None
            tally.fail(f"{kind}: {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        tally.attempted += 1
        if path is not None:
            reason = check_scan_box(path, counts) if kind == "scan-box" else check_section(path)
            if reason:
                tally.fail(reason)
        return seconds

    return [partial(request, job) for job in jobs]


def scan_items(kind: str) -> int:
    """Grid points labelled and exported per round."""
    if kind == "scan-box":
        return BOX.resolution ** 3
    return SECTIONS.resolution ** 2 * len(SECTION_HEIGHTS)


def query_block(seed: int, count: int = QUERIES_PER_ROUND) -> list[tuple]:
    """``count`` seeded (x, y, z, pick) tuples, uniform in the reference box.

    ``pick`` in [0, 1) chooses which working branch gets the FK query.
    """
    rng = random.Random(seed)
    (x0, x1), (y0, y1), (z0, z1) = BOX.x_range, BOX.y_range, BOX.z_range
    return [(rng.uniform(x0, x1), rng.uniform(y0, y1), rng.uniform(z0, z1), rng.random())
            for _ in range(count)]


def _branch_class(pose, solution, params):
    """Singularity label of one branch, as ``trirail ik`` reports it."""
    try:
        pair = jacobian.build(pose, solution, params)
    except CotangentSingular:
        return "fold"
    return jacobian.classify(pair, params, THRESHOLD).kind.value


@dataclass
class QueryStats:
    """Seconds per pose of one round; ``fk_s`` is None where no FK query ran."""

    ik_s: list = field(default_factory=list)
    fk_s: list = field(default_factory=list)
    solutions: int = 0
    reachable: int = 0


def query_round(params, block, tally: Tally) -> QueryStats:
    """One pass of the closed loop over ``block``.

    ``Unreachable`` and an empty solution list are the documented "no
    solution" outcomes.  Any other exception, a solution that fails its
    round trip, or an FK answer that misses the queried pose is a failed
    operation.
    """
    clock = time.perf_counter
    stats = QueryStats()
    for x, y, z, pick in block:
        t0 = clock()
        try:
            pose = Pose(x, y, z)
            try:
                solutions = ik.solve(pose, params)
            except Unreachable:
                solutions = []
            for s in solutions:
                _branch_class(pose, s, params)
        except Exception as exc:  # anything else raised is a failed IK query
            solutions = []
            tally.fail(f"ik ({x!r}, {y!r}, {z!r}): {type(exc).__name__}: {exc}")
        stats.ik_s.append(clock() - t0)
        tally.attempted += 1
        working = [s for s in solutions if not s.parallel_singular]
        if not working:
            stats.fk_s.append(None)
        else:
            rails = working[int(pick * len(working))].inputs.as_tuple()
            t0 = clock()
            try:
                answer = fk.solve(JointInputs(*rails), params)
            except Exception as exc:  # FK on a working branch must not raise
                answer = None
                tally.fail(f"fk {rails!r}: {type(exc).__name__}: {exc}")
            stats.fk_s.append(clock() - t0)
            tally.attempted += 1
            if answer is not None:
                miss = min((max(abs(a.pose.x - x), abs(a.pose.y - y), abs(a.pose.z - z))
                            for a in answer), default=float("inf"))
                if miss > FK_TOL:
                    tally.fail(f"fk {rails!r}: nearest pose {miss:.3g} mm from ({x}, {y}, {z})")
        if solutions:
            stats.reachable += 1
            stats.solutions += len(solutions)
            bad = sum(1 for s in solutions if not s.consistent)
            if bad:
                tally.fail(f"ik ({x!r}, {y!r}, {z!r}): {bad} solutions failed the round trip")
    return stats
