"""Command-line surface: fk, ik, workspace, verify, topology.

Geometry comes from a JSON config file (``--params``); per-run targets are
positional arguments.  Exit codes are a stable contract: 0 success,
1 config/usage error, 2 no solution, 3 singular input, 4 verification
failure.
"""

from __future__ import annotations

import json
import math
import sys

import click

from . import fk, ik, jacobian, topology, workspace
from .errors import (
    CotangentSingular,
    IndeterminateGamma,
    InvalidAkc,
    InvalidParameter,
    OutOfRange,
    TrirailError,
    Unreachable,
)
from .params import JointInputs, Pose, REFERENCE_PARAMS, load_params
from .verify import run_builtin_checks
from .workspace import ScanSpec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_SOLUTION = 2
EXIT_SINGULAR = 3
EXIT_VERIFY_FAILED = 4

# click exits usage errors with 2 by default, which would collide with the
# no-solution code; the contract reserves 1 for config/parse problems.
click.UsageError.exit_code = EXIT_CONFIG


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(ctx_params_path):
    if ctx_params_path is None:
        return REFERENCE_PARAMS
    try:
        return load_params(ctx_params_path)
    except (InvalidParameter, OSError) as exc:
        _fail(EXIT_CONFIG, str(exc))


def _angle(value: float, unit: str) -> float:
    return math.degrees(value) if unit == "deg" else value


def _emit(payload: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(payload if payload.endswith("\n") else payload + "\n")
        except OSError as exc:
            _fail(EXIT_CONFIG, f"writing {out_path}: {exc}")
    else:
        click.echo(payload)


@click.group()
@click.option("--params", "params_path", type=click.Path(), default=None,
              help="JSON file with the eleven geometry keys a,b,d,l1..l8 (mm); "
                   "defaults to the built-in reference dimensions.")
@click.option("--angle-unit", type=click.Choice(["rad", "deg"]), default="rad",
              show_default=True, help="Unit used to render gamma/alpha/beta.")
@click.option("--tol-closure", type=float, default=fk.CLOSURE_TOL, show_default=True,
              help="Loop-closure residual accepted for generated solutions, also "
                   "used as the IK round-trip tolerance (mm).")
@click.option("--tol-table", type=float, default=None,
              help="Override the worked-example tolerances used by verify (mm).")
@click.option("--singularity-threshold", type=float, default=jacobian.SINGULARITY_THRESHOLD,
              show_default=True,
              help="Dimensionless threshold on normalised determinants.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the report to a file instead of stdout.")
@click.pass_context
def main(ctx, params_path, angle_unit, tol_closure, tol_table, singularity_threshold,
         fmt, out_path):
    """Kinematics toolbox for the three-rail translational platform."""
    for name, value in (("--tol-closure", tol_closure), ("--tol-table", tol_table),
                        ("--singularity-threshold", singularity_threshold)):
        if value is not None and not (math.isfinite(value) and value > 0):
            _fail(EXIT_CONFIG, f"{name} must be finite and > 0, got {value!r}")
    ctx.obj = {
        "params_path": params_path,
        "angle_unit": angle_unit,
        "tol_closure": tol_closure,
        "tol_table": tol_table,
        "threshold": singularity_threshold,
        "fmt": fmt,
        "out": out_path,
    }


def _fk_record(sol, unit):
    return {
        "x": sol.pose.x, "y": sol.pose.y, "z": sol.pose.z,
        "branch": {"sin_gamma": sol.branch.sin_gamma_sign,
                   "t": sol.branch.t_sign,
                   "alpha": sol.branch.alpha_sign},
        "gamma": _angle(sol.intermediates.gamma, unit),
        "alpha": _angle(sol.intermediates.alpha, unit),
        "beta": _angle(sol.intermediates.beta, unit),
        "t": sol.intermediates.t,
        "residual": sol.residual,
        "angle_unit": unit,
    }


@main.command("fk", context_settings={"ignore_unknown_options": True})
@click.argument("ya1", type=float)
@click.argument("ya2", type=float)
@click.argument("ya3", type=float)
@click.pass_context
def cmd_fk(ctx, ya1, ya2, ya3):
    """Direct kinematics: all platform poses for rail inputs (mm)."""
    cfg = ctx.obj
    params = _load(cfg["params_path"])
    try:
        inputs = JointInputs(ya1, ya2, ya3)
    except InvalidParameter as exc:
        _fail(EXIT_CONFIG, str(exc))
    try:
        solutions = fk.solve(inputs, params, closure_tol=cfg["tol_closure"])
    except IndeterminateGamma as exc:
        _fail(EXIT_SINGULAR, str(exc))
    except TrirailError as exc:
        _fail(EXIT_NO_SOLUTION, str(exc))
    unit = cfg["angle_unit"]
    records = [_fk_record(s, unit) for s in solutions]
    if cfg["fmt"] == "json":
        _emit(json.dumps({"inputs": [ya1, ya2, ya3], "solutions": records,
                          "count": len(records)}, indent=1), cfg["out"])
    elif cfg["fmt"] == "csv":
        lines = ["x,y,z,sin_gamma_sign,t_sign,alpha_sign,gamma,alpha,beta,t,residual"]
        for r in records:
            lines.append(",".join(repr(v) for v in (
                r["x"], r["y"], r["z"], r["branch"]["sin_gamma"], r["branch"]["t"],
                r["branch"]["alpha"], r["gamma"], r["alpha"], r["beta"], r["t"],
                r["residual"])))
        _emit("\n".join(lines), cfg["out"])
    else:
        lines = [f"direct solutions for yA = ({ya1:g}, {ya2:g}, {ya3:g}) mm "
                 f"[angles in {unit}]:",
                 f"{'No.':>3} {'x (mm)':>12} {'y (mm)':>12} {'z (mm)':>12} "
                 f"{'gamma':>10} {'alpha':>10} {'beta':>10} {'residual':>9}"]
        for i, r in enumerate(records, start=1):
            lines.append(f"{i:>3} {r['x']:>12.4f} {r['y']:>12.4f} {r['z']:>12.4f} "
                         f"{r['gamma']:>10.4f} {r['alpha']:>10.4f} {r['beta']:>10.4f} "
                         f"{r['residual']:>9.2e}")
        if not records:
            lines.append("  (none: inputs are regular but out of reach)")
        _emit("\n".join(lines), cfg["out"])
    sys.exit(EXIT_OK if records else EXIT_NO_SOLUTION)


def _branch_class(pose, solution, params, threshold):
    """Per-branch singularity report; distal folds have no finite model."""
    try:
        pair = jacobian.build(pose, solution, params)
    except CotangentSingular:
        return {"class": "fold", "norm_det_jp": None, "norm_det_jq": None}
    cls = jacobian.classify(pair, params, threshold)
    return {"class": cls.kind.value,
            "norm_det_jp": cls.norm_det_jp,
            "norm_det_jq": cls.norm_det_jq}


@main.command("ik", context_settings={"ignore_unknown_options": True})
@click.argument("x", type=float)
@click.argument("y", type=float)
@click.argument("z", type=float)
@click.pass_context
def cmd_ik(ctx, x, y, z):
    """Inverse kinematics: all real rail inputs for a pose (mm)."""
    cfg = ctx.obj
    params = _load(cfg["params_path"])
    try:
        pose = Pose(x, y, z)
    except InvalidParameter as exc:
        _fail(EXIT_CONFIG, str(exc))
    try:
        solutions = ik.solve(pose, params, closure_tol=cfg["tol_closure"],
                             roundtrip_tol=cfg["tol_closure"])
    except Unreachable as exc:
        _fail(EXIT_NO_SOLUTION, f"arccos domain: {exc}")
    except TrirailError as exc:
        _fail(EXIT_NO_SOLUTION, str(exc))
    unit = cfg["angle_unit"]
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
        "singularity": _branch_class(pose, s, params, cfg["threshold"]),
        "angle_unit": unit,
    } for s in solutions]
    if cfg["fmt"] == "json":
        # a round trip that finds no direct solution leaves an infinite
        # residual, which strict JSON cannot hold
        for r in records:
            if not math.isfinite(r["roundtrip_residual"]):
                r["roundtrip_residual"] = None
        _emit(json.dumps({"pose": [x, y, z], "solutions": records,
                          "count": len(records)}, indent=1), cfg["out"])
    elif cfg["fmt"] == "csv":
        lines = ["yA1,yA2,yA3,alpha_sign,beta_sign,root1,root2,root3,"
                 "M1,M2,M3,alpha,beta,roundtrip,roundtrip_residual"]
        for r in records:
            lines.append(",".join(repr(v) for v in (
                r["yA1"], r["yA2"], r["yA3"], r["branch"]["alpha"], r["branch"]["beta"],
                *r["branch"]["roots"], r["M1"], r["M2"], r["M3"], r["alpha"], r["beta"]))
                + f",{r['roundtrip']},{r['roundtrip_residual']!r}")
        _emit("\n".join(lines), cfg["out"])
    else:
        lines = [f"inverse solutions for O' = ({x:g}, {y:g}, {z:g}) mm "
                 f"[angles in {unit}]:",
                 f"{'No.':>3} {'yA1 (mm)':>12} {'yA2 (mm)':>12} {'yA3 (mm)':>12} "
                 f"{'alpha':>10} {'beta':>10} {'roundtrip':>16} {'class':>14}"]
        for i, r in enumerate(records, start=1):
            lines.append(f"{i:>3} {r['yA1']:>12.4f} {r['yA2']:>12.4f} {r['yA3']:>12.4f} "
                         f"{r['alpha']:>10.4f} {r['beta']:>10.4f} {r['roundtrip']:>16} "
                         f"{r['singularity']['class']:>14}")
        if not records:
            lines.append("  (none: every radicand is negative)")
        _emit("\n".join(lines), cfg["out"])
    sys.exit(EXIT_OK if records else EXIT_NO_SOLUTION)


@main.command("workspace")
@click.option("--bounds", nargs=6, type=float, required=True,
              metavar="XMIN XMAX YMIN YMAX ZMIN ZMAX",
              help="Box to scan (mm).")
@click.option("--resolution", type=int, default=41, show_default=True,
              help="Grid points per axis.")
@click.option("--section", nargs=2, default=None, metavar="AXIS VALUE",
              help="Scan a planar cross-section instead of the full box, "
                   "e.g. --section z 300.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              help="Accepted for compatibility; has no effect (the scan runs in "
                   "one process, whole x-planes per numpy pass).")
@click.pass_context
def cmd_workspace(ctx, bounds, resolution, section, workers):
    """Scan a box (or one cross-section), write samples, print counts."""
    cfg = ctx.obj
    params = _load(cfg["params_path"])
    fmt = cfg["fmt"] if cfg["fmt"] in ("csv", "json") else "csv"
    if cfg["out"] is None:
        _fail(EXIT_CONFIG, "workspace requires --out FILE for the sample table")
    try:
        spec = ScanSpec(
            x_range=(bounds[0], bounds[1]),
            y_range=(bounds[2], bounds[3]),
            z_range=(bounds[4], bounds[5]),
            resolution=resolution,
            singularity_threshold=cfg["threshold"],
        )
        # an unwritable --out fails here, not after the scan
        workspace.check_writable(cfg["out"])
        if section:
            axis, value = section
            samples = workspace.cross_section(spec, params, axis, float(value))
        else:
            samples = workspace.scan(spec, params)
    except (InvalidParameter, OutOfRange, ValueError, OSError) as exc:
        _fail(EXIT_CONFIG, str(exc))
    try:
        workspace.export(samples, fmt, cfg["out"])
    except OSError as exc:
        _fail(EXIT_CONFIG, str(exc))
    counts = workspace.summary(samples)
    for key in ("total", "feasible", "regular", "serial", "parallel", "comprehensive"):
        click.echo(f"{key}: {counts[key]}")
    sys.exit(EXIT_OK)


@main.command("verify")
@click.pass_context
def cmd_verify(ctx):
    """Reproduce the documented worked example and structural checks."""
    cfg = ctx.obj
    params = _load(cfg["params_path"])
    kwargs = {"singularity_threshold": cfg["threshold"]}
    if cfg["tol_table"] is not None:
        kwargs["tol_direct"] = cfg["tol_table"]
        kwargs["tol_inverse"] = cfg["tol_table"]
    results = run_builtin_checks(params, **kwargs)
    if cfg["fmt"] == "json":
        _emit(json.dumps([{"name": r.name, "passed": r.passed, "detail": r.detail}
                          for r in results], indent=1), cfg["out"])
    else:
        width = max(len(r.name) for r in results)
        lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}"
                 for r in results]
        _emit("\n".join(lines), cfg["out"])
    failing = [r for r in results if not r.passed]
    if failing:
        click.echo(f"error: first failing check: {failing[0].name}", err=True)
        sys.exit(EXIT_VERIFY_FAILED)
    sys.exit(EXIT_OK)


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
                                          f"total_joint_dof_sum and loops, got {data!r}")
    for key in data:
        if key not in _LOOP_KEYS:
            raise InvalidParameter(key, "unknown key")
    for key in _LOOP_KEYS:
        if key not in data:
            raise InvalidParameter(key, "missing")
    loops = data["loops"]
    if not isinstance(loops, list):
        raise InvalidParameter("loops", f"must be a list of {_LOOP_FIELDS} triples, "
                                        f"got {loops!r}")
    for i, triple in enumerate(loops):
        if not isinstance(triple, list) or len(triple) != 3:
            raise InvalidParameter(f"loops[{i}]", f"must be a list of three integers "
                                                  f"{_LOOP_FIELDS}, got {triple!r}")
    return data["total_joint_dof_sum"], [topology.LoopSpec(*triple) for triple in loops]


@main.command("topology")
@click.option("--loops", "loops_json", default=None,
              help="JSON object {\"total_joint_dof_sum\": N, \"loops\": [[dof, actuated, "
                   "equations], ...]}; defaults to the reference decomposition.")
@click.pass_context
def cmd_topology(ctx, loops_json):
    """Mobility report: DOF, constraint degrees, coupling degree."""
    cfg = ctx.obj
    try:
        if loops_json is None:
            rep = topology.reference_report()
        else:
            rep = topology.report(*_loop_spec(json.loads(loops_json)))
    except (InvalidAkc, InvalidParameter, json.JSONDecodeError) as exc:
        _fail(EXIT_CONFIG, f"loop specification: {exc}")
    if cfg["fmt"] == "json":
        _emit(json.dumps({"dof": rep.dof, "deltas": list(rep.deltas),
                          "coupling_degree": rep.coupling_degree}, indent=1), cfg["out"])
    else:
        _emit(f"dof: {rep.dof}\ndeltas: {', '.join(f'{d:+d}' for d in rep.deltas)}\n"
              f"coupling degree: {rep.coupling_degree}", cfg["out"])
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
