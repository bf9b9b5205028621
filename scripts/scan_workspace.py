#!/usr/bin/env python3
"""Map the reachable workspace of the reference design and export it.

Scans the standard box (-110..90, -250..250, 180..480 mm) on a regular
grid, writes the labelled point cloud (CSV or JSON), prints the summary
counts, and optionally emits X-Y cross-sections at chosen heights.  The
exports are plot-ready: feasible vs infeasible and the per-point
singularity class reproduce the usual green/red workspace figures in any
plotting tool.
"""

import argparse
import sys
import time

from trirail.errors import InvalidParameter, OutOfRange
from trirail.params import REFERENCE_PARAMS, load_params
from trirail.workspace import ScanSpec, cross_section, export, scan, summary


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--params", help="geometry JSON (default: reference design)")
    parser.add_argument("--bounds", nargs=6, type=float,
                        default=[-110.0, 90.0, -250.0, 250.0, 180.0, 480.0],
                        metavar=("XMIN", "XMAX", "YMIN", "YMAX", "ZMIN", "ZMAX"))
    parser.add_argument("--resolution", type=int, default=41)
    parser.add_argument("--threshold", type=float, default=1e-3,
                        help="normalised det(Jp) threshold for the parallel label")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; has no effect (the scan runs in "
                             "one process, whole x-planes per numpy pass); must be >= 1")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default="workspace_scan.csv")
    parser.add_argument("--sections", nargs="*", type=float, default=[],
                        help="additional X-Y cross-section heights (mm)")
    return parser.parse_args()


def main():
    args = parse_args()
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 1
    try:
        params = load_params(args.params) if args.params else REFERENCE_PARAMS
        spec = ScanSpec(
            x_range=(args.bounds[0], args.bounds[1]),
            y_range=(args.bounds[2], args.bounds[3]),
            z_range=(args.bounds[4], args.bounds[5]),
            resolution=args.resolution,
            singularity_threshold=args.threshold,
        )
    except (InvalidParameter, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    start = time.perf_counter()
    samples = scan(spec, params)
    elapsed = time.perf_counter() - start
    try:
        export(samples, args.format, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"scanned {len(samples)} points in {elapsed:.1f} s -> {args.out}")
    for key, value in summary(samples).items():
        print(f"  {key}: {value}")
    for height in args.sections:
        stem, dot, ext = args.out.rpartition(".")
        path = f"{stem or args.out}_z{height:g}{dot}{ext}" if dot else f"{args.out}_z{height:g}"
        try:
            section = cross_section(spec, params, "z", height)
            export(section, args.format, path)
        except (OutOfRange, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        counts = summary(section)
        print(f"section z={height:g}: feasible {counts['feasible']}/{counts['total']} "
              f"-> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
