#!/usr/bin/env python3
"""Benchmark of the trirail kinematics engine.

Run from the repository root::

    python3 perfbench/run.py --workload scan-box --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``scan-box``, ``sections``, ``queries``.

``--trace 0`` repeats rounds of the workload untraced for ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` runs one round
untraced and one traced (wrappers installed by ``tracer.py``, removed
before anything else is timed) and reports per-layer metrics: calls of
each traced function and its self time as a share of the traced round's
wall time (``trace.wall_s``), which reads 0 and not an undefined time
where a workload never calls the function.  ``--profile N`` runs one
round under cProfile instead, prints the top N frames and reports no
metrics.

End-to-end timings are scaled to the quiet host by the speed probe of
``probe.py``, which divides out the host's slow spells; the unscaled
figures are printed beside them.

Every output is checked: scans against the digests in ``reference.json``,
IK answers by their round trip, FK answers against the queried pose.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit and sample count, and the run metadata.  The same
record, with metadata, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "reference_params.json"
OUT = HERE / "out"
WORKLOADS = ("scan-box", "sections", "queries")
#: Fresh interpreters timed per run for ``setup_s``; one more warms the bytecode cache.
SETUP_LAUNCHES = 9
#: Pose queries between two speed probes (about 70 ms of work).
POSES_PER_PROBE = 50
# The child probes its own CPU after loading (a launch may run on either
# core) and reports how long that tail took, so it can be subtracted.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import trirail.cli
t1 = time.perf_counter()
trirail.params.load_params(sys.argv[1])
t2 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from probe import probe
print(t1 - t0, t2 - t1, probe(), time.perf_counter() - t2)
"""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def measure_setup(launches: int = SETUP_LAUNCHES):
    """Wall time of fresh interpreters importing ``trirail.cli`` and loading params.

    Returns the per-launch wall time (s) without the child's probe,
    import and load_params times, and the child's probe time.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-c", SETUP_CHILD, str(CONFIG), str(HERE)]

    def launch():
        return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=60)

    launch()
    walls, imports, loads, probes = [], [], [], []
    for _ in range(launches):
        t0 = time.perf_counter()
        proc = launch()
        wall = time.perf_counter() - t0
        import_s, load_s, probe_s, tail_s = map(float, proc.stdout.split())
        walls.append(wall - tail_s)
        imports.append(import_s)
        loads.append(load_s)
        probes.append(probe_s)
    return walls, imports, loads, probes


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def metadata(args) -> dict:
    import numpy

    git = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        git = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "trirail").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_start": (_read("/proc/loadavg") or "").strip() or None,
    }


@dataclass
class Round:
    """Seconds per request of one round and the probe time beside each request.

    On ``queries`` the request is split into its IK and FK parts
    (``fk_s`` is None where no FK query ran).
    """

    seconds: list = field(default_factory=list)
    probe: list = field(default_factory=list)
    ik_s: list = field(default_factory=list)
    fk_s: list = field(default_factory=list)
    reachable: int = 0
    solutions: int = 0


def one_round(workload: str, params, block, tally) -> Round:
    """One round, with a speed probe before each segment and after the last.

    A segment is one scan request, or ``POSES_PER_PROBE`` pose queries.
    """
    import workloads as wl

    rnd = Round()
    if workload == "queries":
        segments = [block[k:k + POSES_PER_PROBE] for k in range(0, len(block), POSES_PER_PROBE)]
    else:
        segments = wl.scan_requests(workload, params, OUT, tally)
    before = probe.probe()
    for segment in segments:
        if workload == "queries":
            stats = wl.query_round(params, segment, tally)
            times = [ik_s + (fk_s or 0.0) for ik_s, fk_s in zip(stats.ik_s, stats.fk_s)]
            rnd.ik_s += stats.ik_s
            rnd.fk_s += stats.fk_s
            rnd.reachable += stats.reachable
            rnd.solutions += stats.solutions
        else:
            times = [segment()]
        after = probe.probe()
        rnd.seconds += times
        rnd.probe += [(before + after) / 2.0] * len(times)
        before = after
    return rnd


def per_request(rounds, name: str, scaled: bool = True) -> list[float]:
    """Each request's time over the rounds; None entries are skipped.

    Scaled: the median over rounds of the request's seconds with the host
    slowdown divided out by the probe measured beside it (see
    ``probe.py``).  Unscaled: the fastest repeat, which host slow spells
    longer than a run still move.
    """
    columns = zip(*[
        [None if v is None else (probe.scaled(v, p) if scaled else v)
         for v, p in zip(getattr(r, name), r.probe)]
        for r in rounds
    ])
    pick = statistics.median if scaled else min
    return [pick(c) for c in ([v for v in column if v is not None] for column in columns) if c]


def untraced(args, params, block, setup):
    import workloads as wl

    tally = wl.Tally()
    rounds = []
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round(args.workload, params, block, tally))
        now = time.perf_counter()
        if now - began + (now - t0) > args.seconds:
            break
    scaled = per_request(rounds, "seconds")
    wall = per_request(rounds, "seconds", scaled=False)
    samples = len(rounds) * len(scaled)
    items = len(block) if args.workload == "queries" else wl.scan_items(args.workload)
    walls, probes = setup[0], setup[3]
    metrics = {
        "setup_s": (statistics.median(map(probe.scaled, walls, probes)), "s", len(walls)),
        "items_per_s": (items / sum(scaled), "1/s", samples),
        "request_p50_ms": (percentile(scaled, 50) * 1e3, "ms", samples),
        "request_p99_ms": (percentile(scaled, 99) * 1e3, "ms", samples),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    # Unscaled figures, and the measurements under the names a reader of
    # one workload expects.
    all_probes = [p for r in rounds for p in r.probe]
    detail = {
        "fail_ratio": (tally.failed / tally.attempted, "ratio", tally.attempted),
        "rounds": (len(rounds), "count", len(rounds)),
        "host_slowdown": (statistics.median(all_probes) / probe.REFERENCE_PROBE_S, "ratio",
                          len(all_probes)),
        "setup_wall_s": (statistics.median(walls), "s", len(walls)),
        "wall_items_per_s": (items / sum(wall), "1/s", samples),
        "wall_request_p50_ms": (percentile(wall, 50) * 1e3, "ms", samples),
        "wall_request_p99_ms": (percentile(wall, 99) * 1e3, "ms", samples),
    }
    if args.workload == "queries":
        ik_s = per_request(rounds, "ik_s")
        fk_s = per_request(rounds, "fk_s")
        first = rounds[0]
        detail.update({
            "queries_per_s": (metrics["items_per_s"][0], "1/s", samples),
            "ik_p50_us": (percentile(ik_s, 50) * 1e6, "us", len(ik_s) * len(rounds)),
            "ik_p99_us": (percentile(ik_s, 99) * 1e6, "us", len(ik_s) * len(rounds)),
            "fk_p50_us": (percentile(fk_s, 50) * 1e6, "us", len(fk_s) * len(rounds)),
            "fk_p99_us": (percentile(fk_s, 99) * 1e6, "us", len(fk_s) * len(rounds)),
            "reachable_share": (first.reachable / len(block), "ratio", len(block)),
            "solutions_per_reachable_pose": (first.solutions / max(first.reachable, 1),
                                             "count", first.reachable),
        })
    else:
        detail["scan_points_per_s"] = (metrics["items_per_s"][0], "1/s", samples)
    return tally, metrics, detail, True


def traced(args, params, block, setup):
    from trirail import params as params_mod

    import tracer as tr
    import workloads as wl

    tally = wl.Tally()
    plain = one_round(args.workload, params, block, tally)
    before = tr.traced_attributes()
    tracer = tr.Tracer()
    with tr.installed(tracer):
        params = params_mod.load_params(CONFIG)
        spans = one_round(args.workload, params, block, tally)
    restored = tr.traced_attributes() == before
    tracer.save(OUT / f"spans-{args.workload}.npz")

    wall = sum(spans.seconds)
    overhead = (sum(map(probe.scaled, spans.seconds, spans.probe))
                / sum(map(probe.scaled, plain.seconds, plain.probe)))
    times = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for fn in tr.FUNCTIONS:
        calls, seconds = times.get(fn, (0, 0.0))
        metrics[f"{fn}.calls"] = (calls, "count", calls)
        metrics[f"{fn}.self_pct"] = (100.0 * seconds / wall, "%", calls)
    rt_fk = tracer.child_calls(("fk.solve", "fk.solve_at_gamma"), "ik.solve_rt")
    metrics.update({
        "fk.candidates": (counts["fk.candidates"], "count", counts["fk.candidates"]),
        "fk.kept_ratio": (counts["fk.solutions"] / counts["fk.candidates"]
                          if counts["fk.candidates"] else 0.0, "ratio", counts["fk.candidates"]),
        "ik.solutions": (counts["ik.solutions"], "count", counts["ik.solutions"]),
        "ik.roundtrip_fk_per_solution": (rt_fk / counts["ik.rt_solutions"]
                                         if counts["ik.rt_solutions"] else 0.0,
                                         "ratio", counts["ik.rt_solutions"]),
        "ik.roundtrip_failed": (counts["ik.roundtrip_failed"], "count", counts["ik.rt_solutions"]),
        "jacobian.cotangent_singular": (counts["jacobian.cotangent_singular"], "count",
                                        times.get("jacobian.build", (0, 0))[0]),
        "workspace.export.bytes": (counts["workspace.export.bytes"], "bytes",
                                   times.get("workspace.export", (0, 0))[0]),
        "setup.import_s": (statistics.median(setup[1]), "s", len(setup[1])),
        "setup.load_params_s": (statistics.median(setup[2]), "s", len(setup[2])),
        "trace.wall_s": (wall, "s", 1),
        "trace.overhead_ratio": (overhead, "ratio", 1),
        "trace.spans": (len(tracer.start), "count", len(tracer.start)),
    })
    if not restored:
        tally.errors.append("tracer wrappers were not restored")
    return tally, metrics, {}, restored


def profile(args, params, block) -> int:
    import cProfile
    import pstats

    import workloads as wl

    tally = wl.Tally()
    profiler = cProfile.Profile()
    profiler.enable()
    one_round(args.workload, params, block, tally)
    profiler.disable()
    path = OUT / f"profile-{args.workload}.prof"
    profiler.dump_stats(path)
    for key in ("cumulative", "tottime"):
        pstats.Stats(profiler, stream=sys.stdout).sort_stats(key).print_stats(args.profile)
    print(f"profile written to {path.relative_to(ROOT)}; "
          f"{tally.failed} of {tally.attempted} operations failed")
    return 0 if tally.failed == 0 else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="seeds the queries stream; the grid workloads are fixed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="profile one round and print the top N frames instead")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "trirail" / "__init__.py", CONFIG) if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a trirail checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trirail
    from trirail import params as params_mod

    if Path(trirail.__file__).resolve().parent != SRC / "trirail":
        print(f"error: imported trirail from {trirail.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    meta = metadata(args)
    params = params_mod.load_params(CONFIG)
    block = wl.query_block(args.seed) if args.workload == "queries" else None
    if args.profile:
        return profile(args, params, block)
    setup = measure_setup()
    run = traced if args.trace else untraced
    tally, metrics, detail, restored = run(args, params, block, setup)
    meta["loadavg_end"] = (_read("/proc/loadavg") or "").strip() or None

    correct = tally.failed == 0 and restored
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.failed} of {tally.attempted} operations failed")
    for reason in tally.errors:
        print(f"#   {reason}")
    for name, (value, unit, samples) in {**metrics, **detail}.items():
        print(f"{name:34s} {value:>16.6g} {unit:6s} n={samples}")
    print("# meta " + json.dumps(meta))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    record = dict(result, samples={n: s for n, (_, _, s) in metrics.items()},
                  detail={n: {"value": v, "unit": u, "samples": s}
                          for n, (v, u, s) in detail.items()},
                  errors=tally.errors, metadata=meta)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
