#!/usr/bin/env python3
"""Trace the approach to both singularity families of the reference design.

Experiment 1 narrows the rail-1/rail-2 spacing toward l3: the planar loop
degenerates into a parallelogram, rows 1 and 2 of the velocity matrix
align, and the normalised det(Jp) falls to zero (parallel singularity).

Experiment 2 sweeps the platform height across the chain-3 stroke
boundary: the radicand M3 crosses zero, the merged rail-3 root makes
u33 = 0, and det(Jq) vanishes (serial singularity).
"""

import argparse
import math
import sys

from trirail import ik, jacobian
from trirail.errors import InvalidParameter, Unreachable
from trirail.params import Pose, REFERENCE_PARAMS, load_params
from trirail.verify import rail_spacing_sweep


def parallel_sweep(params, deltas, threshold):
    print("rail spacing approach: yA1 - yA2 = l3 + delta")
    print(f"{'delta (mm)':>12} {'B (mm)':>10} {'|norm det Jp|':>14} {'class':>14}")
    for delta, cls in zip(deltas, rail_spacing_sweep(params, deltas, threshold)):
        print(f"{delta:>12g} {delta:>10g} {abs(cls.norm_det_jp):>14.3e} "
              f"{cls.kind.value:>14}")


def serial_sweep(params, offsets):
    # x = -38 makes sin(beta) = 0.8 exact; the boundary height is then
    # z* = l1 + l6*sin(beta) + l6 where M3 = 0
    x = -38.0
    sin_beta = math.sqrt(1.0 - ((x + params.d - params.b) / params.l6) ** 2)
    z_star = params.l1 + params.l6 * sin_beta + params.l6
    print(f"\nchain-3 stroke boundary: x = {x:g}, boundary height z* = {z_star:g} mm")
    print(f"{'z - z* (mm)':>12} {'real solutions':>15} {'min |u33| (mm)':>15}")
    for offset in offsets:
        pose = Pose(x, 0.0, z_star + offset)
        try:
            solutions = ik.solve(pose, params, check_roundtrip=False)
        except Unreachable:
            solutions = []
        if solutions:
            u33 = min(abs(s.inputs.yA3 - pose.y) for s in solutions)
            print(f"{offset:>12g} {len(solutions):>15} {u33:>15.6f}")
        else:
            print(f"{offset:>12g} {0:>15} {'-':>15}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--params", help="geometry JSON (default: reference design)")
    parser.add_argument("--threshold", type=float, default=jacobian.SINGULARITY_THRESHOLD)
    args = parser.parse_args()
    if not (math.isfinite(args.threshold) and args.threshold > 0):
        print(f"error: --threshold must be finite and > 0, got {args.threshold!r}",
              file=sys.stderr)
        return 1
    try:
        params = load_params(args.params) if args.params else REFERENCE_PARAMS
    except (InvalidParameter, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parallel_sweep(params, (100.0, 30.0, 10.0, 3.0, 1.0, 0.3, 0.1, 0.03), args.threshold)
    serial_sweep(params, (-2.0, -0.5, 0.0, 0.5, 2.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
