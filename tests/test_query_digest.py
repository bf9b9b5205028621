"""Bit-identity guard for the scalar query path.

A SHA-256 over the exact outputs of ``ik.solve`` (with the round trip),
``jacobian.build`` + ``classify`` of every solution and ``fk.solve`` on
every solution's rails, for a fixed pose set.  Floats enter the digest by
``repr``, so any change in the last bit of any output shows.  The pinned
value was computed before the scalar path was optimised; an intended
change of results must update it and say why.
"""

import hashlib
import random

from trirail import fk, ik, jacobian
from trirail.errors import CotangentSingular, TrirailError, Unreachable
from trirail.params import Pose, REFERENCE_PARAMS

from test_ik import boundary_pose_m3

P = REFERENCE_PARAMS
PINNED_SHA256 = "2012f4d1625b24ff73cec117bc6f13d0b4e55a1b31f1ebb15aae3eafac30b4c1"


def digest_poses():
    """500 seeded poses around the reference box, both x fold planes, the M3 boundary."""
    rng = random.Random(20261018)
    poses = [Pose(rng.uniform(-140.0, 100.0), rng.uniform(-260.0, 260.0), rng.uniform(150.0, 500.0))
             for _ in range(500)]
    poses += [Pose(x, -250.0 + 125.0 * j, 180.0 + 37.5 * k)
              for x in (80.0, -130.0) for j in range(5) for k in range(9)]
    return poses + [boundary_pose_m3()]


def query_lines(pose):
    """One text line per output of every layer queried at ``pose``."""
    try:
        solutions = ik.solve(pose, P)
    except Unreachable as exc:
        yield f"ik {pose.as_tuple()!r} unreachable {exc}"
        return
    yield f"ik {pose.as_tuple()!r} {len(solutions)}"
    for s in solutions:
        yield (f"sol {s.inputs.as_tuple()!r} {s.branch!r} {s.M1!r} {s.M3!r} {s.alpha!r} "
               f"{s.beta!r} {s.serial_witnesses!r} {s.parallel_singular!r} {s.roundtrip} "
               f"{s.roundtrip_residual!r}")
        try:
            pair = jacobian.build(pose, s, P)
        except CotangentSingular:
            yield "jac fold"
        else:
            c = jacobian.classify(pair, P)
            jp, jq = [list(r) for r in pair.jp], [list(r) for r in pair.jq]
            yield (f"jac {jp!r} {jq!r} {pair.det_jp!r} "
                   f"{pair.det_jq!r} {c.kind.value} {c.norm_det_jp!r} {c.norm_det_jq!r}")
        try:
            answers = fk.solve(s.inputs, P)
        except TrirailError as exc:
            yield f"fk {type(exc).__name__}"
            continue
        for a in answers:
            yield (f"fk {a.pose.as_tuple()!r} {tuple(a.branch)!r} {a.intermediates!r} "
                   f"{a.residual!r} {a.residual_vector!r}")


def test_query_outputs_are_bit_identical_to_the_pinned_digest():
    h = hashlib.sha256()
    lines = 0
    for pose in digest_poses():
        for line in query_lines(pose):
            h.update(line.encode() + b"\n")
            lines += 1
    assert lines > 5000
    assert h.hexdigest() == PINNED_SHA256
