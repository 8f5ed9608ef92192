"""Tests of the benchmark itself; kept out of the package's test suite.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import harness

HERE = Path(__file__).resolve().parent


def test_known_cycling_input_is_one_failed_operation():
    # phase-1 of the master reports "unbounded" on this input (open defect)
    bad = harness.instance.generate_instance(
        1, 6, 60, case="I", coverage_radius=20.0, min_coverage=0.1)
    good = harness.WORKLOADS["wide-I"].make(2)
    insts, tables = harness.load_all(
        [harness.instance.instance_to_json(i) for i in (bad, good)])
    with harness.SpeedProbe() as probe:
        outs = harness.solve_pass(probe, insts, tables, "I")
    assert [o.failed for o in outs] == [True, False]
    assert outs[0].error.startswith("CyclingError")
    assert outs[1].result.status == "converged"


def test_symmetric_copies_have_identical_tables():
    for wl in harness.WORKLOADS.values():
        doc = json.loads(harness.instance.instance_to_json(wl.make(0)))
        tables = [harness.load_all([json.dumps(harness.symmetric_copy(doc, s))])[1][0]
                  for s in range(8)]
        for t in tables[1:]:
            for name in ("coverage_rate", "wp_cov", "node_dist", "min_time"):
                assert getattr(t, name).tobytes() == getattr(tables[0], name).tobytes()


def test_gate_flags_a_false_certificate():
    # A mirrored, rotated copy of wide-I instance 6: rounding sends the
    # master's phase 1 to a wrong "empty level set", which lifts the lower
    # bound past the dual optimum (open defect).  The gate must catch it.
    doc = json.loads(harness.instance.instance_to_json(
        harness.WORKLOADS["wide-I"].make(6)))
    theta, c = 4.181694103618545, 50.0
    for p in doc["waypoints"] + doc["targets"]:
        dx, dy = c - p["x"], p["y"] - c
        p["x"] = c + math.cos(theta) * dx - math.sin(theta) * dy
        p["y"] = c + math.sin(theta) * dx + math.cos(theta) * dy
    insts, tables = harness.load_all([json.dumps(doc)])
    with harness.SpeedProbe() as probe:
        out = harness.solve_pass(probe, insts, tables, "I")[0]
    harness.check_outcome(out, insts[0], harness.load_reference()["wide-I"][6])
    assert out.failed
    assert "outside the reference bracket" in out.problems[0]


def test_infeasible_reference_only_needs_a_negative_bound():
    # The reference proved the requirements infeasible (dual bound below 0);
    # a correct run may stop anywhere below 0, but not at or above it.
    ref = harness.load_reference()["desk-II"][0]
    assert harness.infeasible(ref)
    inst = SimpleNamespace(targets=[None] * ref["targets"])
    for bound, ok in ((ref["dual_bound"] / 1e3, True), (0.0, False)):
        out = harness.Outcome(0, 1.0, 1.0, result=SimpleNamespace(
            initial_bound=ref["initial_bound"], dual_bound=bound,
            status=harness.bundle.CONVERGED))
        harness.check_outcome(out, inst, ref)
        assert out.failed != ok


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_every_workload_traced_and_untraced():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, doc = _run("--limit", "1", "--seconds", "0", "--trace", str(trace))
        assert code == 0 and doc["correct"] and doc["failed"] == 0
        wanted = {m["name"] for m in spec[key]}
        for wl in harness.WORKLOADS:
            got = {k.split(".", 1)[1] for k in doc["metrics"]
                   if k.startswith(wl + ".")}
            assert got == wanted, wl


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text((HERE / "run.py").read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"),
                           "--workload", "wide-I"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
