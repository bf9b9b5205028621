"""Command-line surface: fk, ik, workspace, verify, sweep, topology.

Geometry comes from a JSON config file (``--params``); per-run targets are
positional arguments.  Exit codes are a stable contract: 0 success,
1 config/usage error, 2 no solution, 3 singular input, 4 verification
failure.  A command never exits itself: each ``cmd_*`` returns its code and
lets the package's errors and ``OSError`` through, and :func:`main`, the one
place that exits, maps such an error to its code through the one table
``_EXIT_CODES``.  The parser is the standard library's :mod:`argparse`; its
usage errors exit 1 rather than argparse's 2, which is the no-solution code,
and a float with a leading minus (``-3e2``, ``-inf``, ``-nan``) is a value,
not an option.

Each command builds its report once, in the shape of its JSON output, and
:func:`_report` is the one place a report is written: as JSON, as the
command's CSV (``fk`` and ``ik``, whose row lists the leading fields of a
JSON record in order) or as text lines, to ``--out`` or stdout.  Only
``workspace`` writes otherwise: its point cloud through
:func:`trirail.workspace.export`, and its counts as text.

Only ``workspace`` loads numpy: :mod:`trirail.workspace`, the one module
that imports it, is imported inside that command.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import fk, ik, jacobian, topology
from .errors import (
    IndeterminateGamma,
    InvalidAkc,
    InvalidParameter,
    OutOfRange,
    TrirailError,
    Unreachable,
    clipped,
)
from .params import JointInputs, Pose, REFERENCE_PARAMS, json_int, load_params

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_SOLUTION = 2
EXIT_SINGULAR = 3
EXIT_VERIFY_FAILED = 4

#: The exit code of an error a command lets through: the first entry whose
#: classes it is an instance of.
_EXIT_CODES = ((IndeterminateGamma, EXIT_SINGULAR),
               ((InvalidParameter, InvalidAkc, OutOfRange, OSError), EXIT_CONFIG),
               (TrirailError, EXIT_NO_SOLUTION))

#: What argparse takes for a negative number: a minus before a digit,
#: ``.digit``, ``inf`` or ``nan``; ``float`` then rejects what is no number.
#: argparse itself takes only ``-\d+`` and ``-\d*\.\d+``, so ``fk 1 -2 -3e2``
#: or ``--bounds -1.1e2 ...`` would read as unknown options.
_NEGATIVE_NUMBER = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract and float-shaped negative values."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        # argparse exits usage errors with 2, the no-solution code; the
        # contract reserves 1 for config/parse problems
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _fail(code: int, message: str) -> int:
    """Report ``message`` on stderr and return the exit ``code``."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _load(path):
    return REFERENCE_PARAMS if path is None else load_params(path)


def _angle(value: float, unit: str) -> float:
    return math.degrees(value) if unit == "deg" else value


def _emit(payload: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(payload if payload.endswith("\n") else payload + "\n")
        except OSError as exc:
            raise OSError(f"writing {out_path}: {exc}") from exc
    else:
        print(payload)


def _report(args, payload, lines, csv=None):
    """Write a command's report to ``--out`` or stdout: ``payload`` as JSON
    under ``--format json``, the ``csv`` text under ``--format csv`` where the
    command has one, otherwise the text ``lines``."""
    text = (json.dumps(payload, indent=1) if args.format == "json"
            else csv if args.format == "csv" and csv is not None else "\n".join(lines))
    _emit(text, args.out)


def _table(title, heading, row, records, empty):
    """A numbered text table: line i formats ``row.format(i, **record)``."""
    lines = [row.format(i, **record) for i, record in enumerate(records, start=1)]
    return [title, heading, *(lines or [empty])]


def _scalars(value):
    """The scalars of a JSON value in order, those of nested objects and lists
    in place."""
    if isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _scalars(item)
    else:
        yield value


def _csv(header, records):
    """A CSV table: ``header``, then a row per record listing its leading
    scalars, one for each column, by ``str`` (a float's shortest round-trip repr)."""
    width = header.count(",") + 1
    return "\n".join([header, *(",".join(map(str, list(_scalars(r))[:width])) for r in records)])


def cmd_fk(args):
    """Direct kinematics: all platform poses for rail inputs (mm)."""
    ya1, ya2, ya3 = args.yA1, args.yA2, args.yA3
    params = _load(args.params)
    solutions = fk.solve(JointInputs(ya1, ya2, ya3), params, closure_tol=args.tol_closure)
    unit = args.angle_unit
    records = [{
        "x": s.pose.x, "y": s.pose.y, "z": s.pose.z,
        "branch": {"sin_gamma": s.branch.sin_gamma_sign,
                   "t": s.branch.t_sign,
                   "alpha": s.branch.alpha_sign},
        "gamma": _angle(s.intermediates.gamma, unit),
        "alpha": _angle(s.intermediates.alpha, unit),
        "beta": _angle(s.intermediates.beta, unit),
        "t": s.intermediates.t,
        "residual": s.residual,
        "angle_unit": unit,
    } for s in solutions]
    _report(args, {"inputs": [ya1, ya2, ya3], "solutions": records, "count": len(records)},
            _table(f"direct solutions for yA = ({ya1:g}, {ya2:g}, {ya3:g}) mm "
                   f"[angles in {unit}]:",
                   f"{'No.':>3} {'x (mm)':>12} {'y (mm)':>12} {'z (mm)':>12} "
                   f"{'gamma':>10} {'alpha':>10} {'beta':>10} {'residual':>9}",
                   "{0:>3} {x:>12.4f} {y:>12.4f} {z:>12.4f} {gamma:>10.4f} {alpha:>10.4f} "
                   "{beta:>10.4f} {residual:>9.2e}",
                   records, "  (none: inputs are regular but out of reach)"),
            _csv("x,y,z,sin_gamma_sign,t_sign,alpha_sign,gamma,alpha,beta,t,residual", records))
    return EXIT_OK if records else EXIT_NO_SOLUTION


def cmd_ik(args):
    """Inverse kinematics: all real rail inputs for a pose (mm)."""
    x, y, z = args.x, args.y, args.z
    params = _load(args.params)
    pose = Pose(x, y, z)
    try:
        solutions = ik.solve(pose, params, closure_tol=args.tol_closure,
                             roundtrip_tol=args.tol_closure)
    except Unreachable as exc:
        raise Unreachable(f"arccos domain: {exc}") from exc
    unit = args.angle_unit
    labels = jacobian.label(pose, solutions, params, args.singularity_threshold)
    records = [{
        "yA1": s.inputs.yA1, "yA2": s.inputs.yA2, "yA3": s.inputs.yA3,
        "branch": {"alpha": s.branch.alpha_sign, "beta": s.branch.beta_sign,
                   "roots": list(s.branch.root_signs)},
        "M1": s.M1, "M2": s.M1, "M3": s.M3,
        "alpha": _angle(s.alpha, unit), "beta": _angle(s.beta, unit),
        "roundtrip": s.roundtrip,
        "roundtrip_residual": s.roundtrip_residual,
        "serial_witnesses": list(s.serial_witnesses),
        "parallel_singular": s.parallel_singular,
        # a distal fold has no finite velocity model: no class, no dets
        "singularity": ({"class": "fold", "norm_det_jp": None, "norm_det_jq": None} if cls is None
                        else {"class": cls.kind.value, "norm_det_jp": cls.norm_det_jp,
                              "norm_det_jq": cls.norm_det_jq}),
        "angle_unit": unit,
    } for s, cls in zip(solutions, labels)]
    csv = _csv("yA1,yA2,yA3,alpha_sign,beta_sign,root1,root2,root3,"
               "M1,M2,M3,alpha,beta,roundtrip,roundtrip_residual", records)
    # a round trip that finds no direct solution leaves an infinite residual,
    # which strict JSON cannot hold; CSV writes it as inf
    for r in records:
        if not math.isfinite(r["roundtrip_residual"]):
            r["roundtrip_residual"] = None
    _report(args, {"pose": [x, y, z], "solutions": records, "count": len(records)},
            _table(f"inverse solutions for O' = ({x:g}, {y:g}, {z:g}) mm [angles in {unit}]:",
                   f"{'No.':>3} {'yA1 (mm)':>12} {'yA2 (mm)':>12} {'yA3 (mm)':>12} "
                   f"{'alpha':>10} {'beta':>10} {'roundtrip':>16} {'class':>14}",
                   "{0:>3} {yA1:>12.4f} {yA2:>12.4f} {yA3:>12.4f} {alpha:>10.4f} "
                   "{beta:>10.4f} {roundtrip:>16} {singularity[class]:>14}",
                   records, "  (none: every radicand is negative)"),
            csv)
    return EXIT_OK if records else EXIT_NO_SOLUTION


def cmd_workspace(args):
    """Scan a box (or one cross-section), write samples, print counts."""
    from . import workspace

    params = _load(args.params)
    fmt = args.format if args.format in ("csv", "json") else "csv"
    if args.out is None:
        return _fail(EXIT_CONFIG, "workspace requires --out FILE for the sample table")
    spec = workspace.ScanSpec(
        x_range=(args.bounds[0], args.bounds[1]),
        y_range=(args.bounds[2], args.bounds[3]),
        z_range=(args.bounds[4], args.bounds[5]),
        resolution=args.resolution,
        singularity_threshold=args.singularity_threshold,
    )
    # an unwritable --out fails here, not after the scan
    workspace.check_writable(args.out)
    if args.section:
        axis, text = args.section
        try:
            value = float(text)
        except ValueError as exc:
            return _fail(EXIT_CONFIG, str(exc))
        samples = workspace.cross_section(spec, params, axis, value)
    else:
        samples = workspace.scan(spec, params)
    workspace.export(samples, fmt, args.out)
    counts = workspace.summary(samples)
    for key in ("total", "feasible", "regular", "serial", "parallel", "comprehensive"):
        print(f"{key}: {counts[key]}")
    return EXIT_OK


def cmd_verify(args):
    """Reproduce the documented worked example and structural checks."""
    from . import verify

    params = _load(args.params)
    kwargs = {"singularity_threshold": args.singularity_threshold}
    if args.tol_table is not None:
        kwargs["tol_direct"] = args.tol_table
        kwargs["tol_inverse"] = args.tol_table
    results = verify.run_builtin_checks(params, **kwargs)
    width = max(len(r.name) for r in results)
    _report(args, [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
            [f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}" for r in results])
    failing = [r for r in results if not r.passed]
    if failing:
        return _fail(EXIT_VERIFY_FAILED, f"first failing check: {failing[0].name}")
    return EXIT_OK


def cmd_sweep(args):
    """Trace the approach to the parallel and the serial singularity."""
    from . import verify

    params = _load(args.params)
    deltas = verify.RAIL_SPACING_DELTAS
    classes = verify.rail_spacing_sweep(params, deltas, args.singularity_threshold)
    x, z_star, rows = verify.stroke_boundary_sweep(params, verify.STROKE_BOUNDARY_OFFSETS)
    rail = [{"delta": delta, "norm_det_jp": cls.norm_det_jp, "class": cls.kind.value}
            for delta, cls in zip(deltas, classes)]
    stroke = [{"offset": offset, "solutions": count, "min_abs_u33": u33}
              for offset, count, u33 in rows]
    _report(args, {"rail_spacing": rail,
                   "stroke_boundary": {"x": x, "z_star": z_star, "rows": stroke}}, [
        "rail spacing approach: yA1 - yA2 = l3 + delta",
        f"{'delta (mm)':>12} {'B (mm)':>10} {'|norm det Jp|':>14} {'class':>14}",
        *(f"{r['delta']:>12g} {r['delta']:>10g} {abs(r['norm_det_jp']):>14.3e} {r['class']:>14}"
          for r in rail),
        "", f"chain-3 stroke boundary: x = {x:g}, boundary height z* = {z_star:g} mm",
        f"{'z - z* (mm)':>12} {'real solutions':>15} {'min |u33| (mm)':>15}",
        *(f"{r['offset']:>12g} {r['solutions']:>15} " + (
            f"{'-':>15}" if r["min_abs_u33"] is None else f"{r['min_abs_u33']:>15.6f}")
          for r in stroke)])
    return EXIT_OK


_LOOP_KEYS = ("total_joint_dof_sum", "loops")
_LOOP_FIELDS = "[joint_dof_sum, actuated_count, independent_eq_count]"


def _loop_spec(data):
    """(total joint freedoms, loops) of a parsed ``--loops`` value.

    Raises :class:`InvalidParameter` naming the unknown or missing key or
    the part whose shape is wrong; the counts themselves are checked by
    :mod:`topology`.
    """
    if not isinstance(data, dict):
        raise InvalidParameter("--loops", "must be a JSON object with keys "
                                          f"total_joint_dof_sum and loops, got {clipped(data)}")
    for key in data:
        if key not in _LOOP_KEYS:
            raise InvalidParameter(key, "unknown key")
    for key in _LOOP_KEYS:
        if key not in data:
            raise InvalidParameter(key, "missing")
    loops = data["loops"]
    if not isinstance(loops, list):
        raise InvalidParameter("loops", f"must be a list of {_LOOP_FIELDS} triples, "
                                        f"got {clipped(loops)}")
    for i, triple in enumerate(loops):
        if not isinstance(triple, list) or len(triple) != 3:
            raise InvalidParameter(f"loops[{i}]", f"must be a list of three integers "
                                                  f"{_LOOP_FIELDS}, got {clipped(triple)}")
    return data["total_joint_dof_sum"], [topology.LoopSpec(*triple) for triple in loops]


def cmd_topology(args):
    """Mobility report: DOF, constraint degrees, coupling degree."""
    try:
        if args.loops is None:
            rep = topology.reference_report()
        else:
            rep = topology.report(*_loop_spec(json.loads(args.loops, parse_int=json_int)))
    # JSON nested past the recursion limit raises RecursionError
    except (InvalidAkc, InvalidParameter, json.JSONDecodeError, RecursionError) as exc:
        raise InvalidParameter("loop specification", str(exc)) from exc
    # counts within the interpreter's int-to-text digit limit can still sum past it
    for name, value in rep._asdict().items():
        try:
            str(value)
        except ValueError:
            raise InvalidParameter("loop specification",
                                   f"{name}: {clipped(value)} is too long to write") from None
    _report(args, {"dof": rep.dof, "deltas": list(rep.deltas),
                   "coupling_degree": rep.coupling_degree},
            [f"dof: {rep.dof}", f"deltas: {', '.join(f'{d:+d}' for d in rep.deltas)}",
             f"coupling degree: {rep.coupling_degree}"])
    return EXIT_OK


def _workers(text: str) -> int:
    """A ``--workers`` value: an integer of at least 1, otherwise unused."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trirail", description=main.__doc__)
    parser.add_argument("--params", metavar="FILE",
                        help="JSON file with the eleven geometry keys a,b,d,l1..l8 (mm); "
                             "defaults to the built-in reference dimensions.")
    parser.add_argument("--angle-unit", choices=["rad", "deg"], default="rad",
                        help="Unit used to render gamma/alpha/beta. (default: %(default)s)")
    parser.add_argument("--tol-closure", type=float, default=fk.CLOSURE_TOL, metavar="MM",
                        help="Loop-closure residual accepted for generated solutions, also "
                             "used as the IK round-trip tolerance (mm). "
                             "(default: %(default)s)")
    parser.add_argument("--tol-table", type=float, metavar="MM",
                        help="Override the worked-example tolerances used by verify (mm).")
    parser.add_argument("--singularity-threshold", type=float,
                        default=jacobian.SINGULARITY_THRESHOLD, metavar="X",
                        help="Dimensionless threshold on normalised determinants. "
                             "(default: %(default)s)")
    parser.add_argument("--format", choices=["text", "json", "csv"], default="text",
                        help="(default: %(default)s)")
    parser.add_argument("--out", metavar="FILE",
                        help="Write the report to a file instead of stdout.")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, run, *positionals):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        for positional in positionals:
            sub.add_argument(positional, type=float)
        return sub

    command("fk", cmd_fk, "yA1", "yA2", "yA3")
    command("ik", cmd_ik, "x", "y", "z")
    scan = command("workspace", cmd_workspace)
    scan.add_argument("--bounds", nargs=6, type=float, required=True,
                      metavar=("XMIN", "XMAX", "YMIN", "YMAX", "ZMIN", "ZMAX"),
                      help="Box to scan (mm).")
    scan.add_argument("--resolution", type=int, default=41, metavar="N",
                      help="Grid points per axis. (default: %(default)s)")
    scan.add_argument("--section", nargs=2, metavar=("AXIS", "VALUE"),
                      help="Scan a planar cross-section instead of the full box, "
                           "e.g. --section z 300.")
    scan.add_argument("--workers", type=_workers, default=1, metavar="N",
                      help="Accepted for compatibility; has no effect (the scan runs in "
                           "one process, in numpy passes over whole grid lines along y). "
                           "(default: %(default)s)")
    command("verify", cmd_verify)
    command("sweep", cmd_sweep)
    command("topology", cmd_topology).add_argument(
        "--loops", help="JSON object {\"total_joint_dof_sum\": N, \"loops\": [[dof, actuated, "
                        "equations], ...]}; defaults to the reference decomposition.")
    return parser


def main(argv=None):
    """Kinematics toolbox for the three-rail translational platform."""
    args = _parser().parse_args(argv)
    for name, value in (("--tol-closure", args.tol_closure), ("--tol-table", args.tol_table),
                        ("--singularity-threshold", args.singularity_threshold)):
        if value is not None and not (math.isfinite(value) and value > 0):
            sys.exit(_fail(EXIT_CONFIG, f"{name} must be finite and > 0, got {value!r}"))
    try:
        code = args.run(args)
    except (TrirailError, OSError) as exc:
        code = _fail(next(c for kinds, c in _EXIT_CODES if isinstance(exc, kinds)), str(exc))
    sys.exit(code)


if __name__ == "__main__":
    main()
