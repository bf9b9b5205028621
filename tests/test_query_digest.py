"""Bit-identity guard for the scalar query path.

A SHA-256 over the exact outputs of ``ik.solve`` (with the round trip),
``jacobian.build`` + ``classify`` of every solution and ``fk.solve`` on
every solution's rails, for a fixed pose set.  Floats enter the digest by
``repr``, so any change in the last bit of any output shows.  The pinned
values were computed before the scalar path was optimised; an intended
change of results must update them and say why.

The first digest queries the reference design at the default tolerances.
The second queries ``FOLD_PARAMS``, whose beta fold planes lie inside
alpha's reach, under the two other tolerance pairs of the round-trip
tests: a loose closure filter, and a round-trip tolerance no solution
meets, so that failed round trips and the round trip's full enumeration
show in it too.
"""

import hashlib
import math
import random

import pytest

from trirail import fk, ik, jacobian
from trirail.errors import CotangentSingular, TrirailError, Unreachable
from trirail.params import Pose, REFERENCE_PARAMS

from test_ik import boundary_pose_m3
from test_roundtrip import FOLD_PARAMS, TOLERANCES

P = REFERENCE_PARAMS
PINNED_SHA256 = "2012f4d1625b24ff73cec117bc6f13d0b4e55a1b31f1ebb15aae3eafac30b4c1"
FOLD_PINNED_SHA256 = "f7b9895dd0c0b8af763494ffab36a38f1b171afd960302c80643a55148f9eadd"


def digest_poses():
    """500 seeded poses around the reference box, both x fold planes, the M3 boundary."""
    rng = random.Random(20261018)
    poses = [Pose(rng.uniform(-140.0, 100.0), rng.uniform(-260.0, 260.0), rng.uniform(150.0, 500.0))
             for _ in range(500)]
    poses += [Pose(x, -250.0 + 125.0 * j, 180.0 + 37.5 * k)
              for x in (80.0, -130.0) for j in range(5) for k in range(9)]
    return poses + [boundary_pose_m3()]


def fold_digest_poses():
    """300 seeded poses around ``FOLD_PARAMS``' reach, and its beta fold planes."""
    rng = random.Random(20261020)
    poses = [Pose(rng.uniform(-160.0, 160.0), rng.uniform(-260.0, 260.0),
                  rng.uniform(-200.0, 450.0)) for _ in range(276)]
    return poses + [Pose(fold - math.copysign(offset, fold), y, z)
                    for fold in (-FOLD_PARAMS.l6, FOLD_PARAMS.l6) for offset in (0.0, 1e-9)
                    for y in (-100.0, 100.0) for z in (-150.0, 0.0, 300.0)]


def query_lines(pose, params=P, tolerances=TOLERANCES[0]):
    """One text line per output of every layer queried at ``pose``."""
    closure_tol, roundtrip_tol = tolerances
    try:
        solutions = ik.solve(pose, params, closure_tol=closure_tol, roundtrip_tol=roundtrip_tol)
    except Unreachable as exc:
        yield f"ik {pose.as_tuple()!r} unreachable {exc}"
        return
    yield f"ik {pose.as_tuple()!r} {len(solutions)}"
    for s in solutions:
        yield (f"sol {s.inputs.as_tuple()!r} {s.branch!r} {s.M1!r} {s.M3!r} {s.alpha!r} "
               f"{s.beta!r} {s.serial_witnesses!r} {s.parallel_singular!r} {s.roundtrip} "
               f"{s.roundtrip_residual!r}")
        try:
            pair = jacobian.build(pose, s, params)
        except CotangentSingular:
            yield "jac fold"
        else:
            c = jacobian.classify(pair, params)
            jp, jq = [list(r) for r in pair.jp], [list(r) for r in pair.jq]
            yield (f"jac {jp!r} {jq!r} {pair.det_jp!r} "
                   f"{pair.det_jq!r} {c.kind.value} {c.norm_det_jp!r} {c.norm_det_jq!r}")
        try:
            answers = fk.solve(s.inputs, params, closure_tol=closure_tol)
        except TrirailError as exc:
            yield f"fk {type(exc).__name__}"
            continue
        for a in answers:
            yield (f"fk {a.pose.as_tuple()!r} {tuple(a.branch)!r} {a.intermediates!r} "
                   f"{a.residual!r} {a.residual_vector!r}")


def digest(lines) -> tuple[str, int]:
    """SHA-256 of ``lines``, one per row, and how many there were."""
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode() + b"\n")
        count += 1
    return h.hexdigest(), count


def test_query_outputs_are_bit_identical_to_the_pinned_digest():
    sha, lines = digest(line for pose in digest_poses() for line in query_lines(pose))
    assert lines > 5000
    assert sha == PINNED_SHA256


@pytest.fixture
def full_enumerations(monkeypatch):
    """A one-item list counting ``fk.solve_at_gamma`` calls: the round trip's fallback."""
    calls = [0]
    original = fk.solve_at_gamma

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(fk, "solve_at_gamma", counted)
    return calls


def test_fold_design_outputs_are_bit_identical_to_the_pinned_digest(full_enumerations):
    rows = [line for pose in fold_digest_poses() for tolerances in TOLERANCES[1:]
            for line in query_lines(pose, FOLD_PARAMS, tolerances)]
    sha, lines = digest(rows)
    assert lines > 5000
    assert sum(1 for row in rows if row.startswith("sol ") and " failed " in row) > 1000
    assert full_enumerations[0] > 1000
    assert sha == FOLD_PINNED_SHA256
