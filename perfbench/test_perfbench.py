"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the repo root."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from trirail.params import REFERENCE_PARAMS  # noqa: E402


def test_self_time_of_a_synthetic_nested_call():
    # outer [0, 12] calls inner [1, 3] and inner [4, 10]; the second inner calls leaf [5, 6]
    tracer = tr.Tracer(clock=iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 10.0, 12.0]).__next__)
    leaf = tracer.wrap(lambda: None, "leaf")
    inner = tracer.wrap(lambda deep: leaf() if deep else None, "inner")
    outer = tracer.wrap(lambda: (inner(False), inner(True)), "outer")
    outer()
    assert tracer.self_times() == {"outer": (1, 4.0), "inner": (2, 7.0), "leaf": (1, 1.0)}
    assert list(tracer.parent) == [-1, 0, 0, 2]
    assert tracer.child_calls(["inner"], "outer") == 2
    assert tracer.child_calls(["leaf"], "outer") == 0


def test_a_raising_call_closes_its_span_and_is_counted():
    tracer = tr.Tracer(clock=iter([0.0, 2.0]).__next__)

    def fail():
        raise KeyError("x")

    wrapped = tracer.wrap(fail, "fail", raises=(KeyError, "fail.key_errors"))
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.self_times() == {"fail": (1, 2.0)}
    assert tracer.counts["fail.key_errors"] == 1
    assert tracer._stack == [-1]


def test_the_same_seed_gives_the_same_queries_stream():
    assert wl.query_block(7) == wl.query_block(7)
    assert wl.query_block(7) != wl.query_block(8)
    for x, y, z, pick in wl.query_block(7, 200):
        assert -110.0 <= x <= 90.0 and -250.0 <= y <= 250.0 and 180.0 <= z <= 480.0
        assert 0.0 <= pick < 1.0


def test_scaled_request_times_divide_out_the_host_slowdown():
    ref = run.probe.REFERENCE_PROBE_S
    quiet = run.Round(seconds=[1.0, 2.0], probe=[ref, ref], fk_s=[None, 0.5])
    busy = run.Round(seconds=[1.7, 3.4], probe=[1.7 * ref, 1.7 * ref], fk_s=[None, 0.85])
    rounds = [quiet, busy, busy]
    assert run.per_request(rounds, "seconds") == pytest.approx([1.0, 2.0])
    assert run.per_request(rounds, "fk_s") == pytest.approx([0.5])
    assert run.per_request(rounds, "seconds", scaled=False) == [1.0, 2.0]


def _perturb(source: Path, target: Path) -> None:
    data = bytearray(source.read_bytes())
    middle = len(data) // 2
    data[middle] = ord("7") if data[middle] != ord("7") else ord("3")
    target.write_bytes(bytes(data))


def test_the_gate_trips_on_a_perturbed_section(tmp_path):
    path, _ = wl._section(REFERENCE_PARAMS, tmp_path, 180.0)
    assert wl.check_section(path) is None
    (tmp_path / "copy").mkdir()
    copy = tmp_path / "copy" / path.name
    _perturb(path, copy)
    assert "SHA-256" in wl.check_section(copy)


def test_the_gate_trips_on_a_perturbed_box_csv(tmp_path):
    tally = wl.Tally()
    for request in wl.scan_requests("scan-box", REFERENCE_PARAMS, tmp_path, tally):
        assert request() > 0.0
    assert (tally.attempted, tally.failed) == (1, 0)
    path = tmp_path / "scan-box.csv"
    counts = dict(wl.REFERENCE["scan-box"]["summary"])
    (tmp_path / "copy").mkdir()
    copy = tmp_path / "copy" / path.name
    _perturb(path, copy)
    assert "SHA-256" in wl.check_scan_box(copy, counts)
    counts["serial"] += 1
    assert "summary" in wl.check_scan_box(path, counts)


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    before = tr.traced_attributes()
    tracer = tr.Tracer()
    tally = wl.Tally()
    with pytest.raises(RuntimeError):
        with tr.installed(tracer):
            assert tr.traced_attributes() != before
            wl.query_round(REFERENCE_PARAMS, wl.query_block(3, 30), tally)
            wl._section(REFERENCE_PARAMS, tmp_path, 480.0)
            raise RuntimeError("leave the block early")
    assert tr.traced_attributes() == before
    assert tally.failed == 0
    times = tracer.self_times()
    for name in ("params.values", "ik.solve_rt", "fk.solve", "fk.enumerate_candidates",
                 "jacobian.build", "jacobian.classify", "workspace.cross_section",
                 "workspace.sample_point", "ik.solve_nort", "workspace.export"):
        assert times[name][0] > 0, name
    # every solution of a round-trip IK call is re-solved by exactly one FK call beneath it
    nested = tracer.child_calls(("fk.solve", "fk.solve_at_gamma"), "ik.solve_rt")
    assert nested == tracer.counts["ik.rt_solutions"] > 0


def test_the_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
