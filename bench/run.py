"""Benchmark of the coverage-routing dual solver.

    python3 bench/run.py                       # every workload, one process each
    python3 bench/run.py --workload wide-I --seed 3 --seconds 10 --trace 0

One workload runs in this process: set-up (load plus index table) is timed
repeatedly, an untimed warm-up pass doubles as the correctness gate, then
whole solve passes fill ``--seconds`` (at least one pass).  ``solve_s`` and
``first_bound_s`` are sums over instances of that instance's median over the
passes, in calibrated seconds (see ``harness.py``).  With
``--trace 1`` an untraced pass and a traced pass give the per-layer metrics
instead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every solve passed every check.
"""

from __future__ import annotations

import os

# single-threaded numpy: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
#: set-up is repeated at least SETUP_MIN_REPS times and SETUP_SECONDS long
SETUP_MIN_REPS = 20
SETUP_SECONDS = 1.0
CHILD_TIMEOUT_S = 900


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    help="small-I, desk-II, wide-I, or all (default)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured time to aim for (at least one pass); "
                         "the default is BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="solve only the first LIMIT instances of each batch")
    return ap.parse_args(argv)


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_workload(args) -> int:
    import harness

    with harness.SpeedProbe() as probe:
        return _run_workload(args, probe)


def _run_workload(args, probe) -> int:
    import harness
    import tracing

    wl = harness.WORKLOADS[args.workload]
    docs = harness.make_inputs(wl, args.seed, args.limit)
    ref = harness.load_reference()[wl.name]

    setup = []
    t0 = time.perf_counter()
    while len(setup) < SETUP_MIN_REPS or time.perf_counter() - t0 < SETUP_SECONDS:
        insts, tables, seconds = harness.set_up(probe, docs)
        setup.append(seconds)

    attempted = 0
    failures = []

    def checked(outs, gate: bool = False):
        """Check every outcome and keep only its index, its calibrated
        seconds and its first-bound seconds, so that no result outlives its
        pass and peak RSS stays the solver's own."""
        nonlocal attempted
        kept = []
        for o in outs:
            harness.check_outcome(o, insts[o.index], ref[o.index])
            if gate:
                harness.gate_outcome(o, insts[o.index], tables[o.index], wl)
            attempted += 1
            if o.failed:
                failures.append(f"instance {o.index}: "
                                f"{o.error or '; '.join(o.problems)}")
            kept.append((o.index, o.seconds, harness.first_bound_seconds(o)))
        return kept

    # untimed warm-up pass (the first pass runs slow); it carries the gate
    t0 = time.perf_counter()
    checked(harness.solve_pass(probe, insts, tables, wl.case), gate=True)
    estimate = time.perf_counter() - t0

    passes = 0
    if args.trace:
        untraced = sum(seconds for _, seconds, _ in checked(
            harness.solve_pass(probe, insts, tables, wl.case)))
        with tracing.Tracer() as tracer:
            t_insts, t_tables, _ = harness.set_up(probe, docs)
            traced = sum(seconds for _, seconds, _ in checked(
                harness.solve_pass(probe, t_insts, t_tables, wl.case)))
        metrics = tracer.metrics(traced, untraced)
    else:
        solve = [[] for _ in docs]
        first = [[] for _ in docs]
        start = time.perf_counter()
        while (not passes or time.perf_counter() - start + 0.5 * estimate
               < args.seconds):
            t0 = time.perf_counter()
            for index, seconds, first_bound in checked(
                    harness.solve_pass(probe, insts, tables, wl.case)):
                solve[index].append(seconds)
                if first_bound is not None:
                    first[index].append(first_bound)
            estimate = time.perf_counter() - t0
            passes += 1
        metrics = {
            "solve_s": (_sum_medians(solve), "s"),
            "first_bound_s": (_sum_medians(first), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }

    done = ("1 untraced and 1 traced pass" if args.trace else
            f"{len(setup)} set-ups, {passes} timed passes")
    print(f"workload {wl.name} seed {args.seed}: {len(docs)} instances, "
          f"{done}, failed_ops {len(failures)}/{attempted} solves")
    for message in failures:
        print(f"  FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    _emit(not failures, attempted, len(failures), metrics)
    return 1 if failures else 0


def _sum_medians(samples) -> float:
    """Sum over instances of each instance's median sample."""
    return sum(statistics.median(v) for v in samples if v)


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    import harness

    merged, attempted, failed, ok = {}, 0, 0, True
    for name in harness.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.limit is not None:
            cmd += ["--limit", str(args.limit)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} crashed with exit code {proc.returncode}")
            return 2
        doc = json.loads(lines[-1])
        ok &= doc["correct"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        print(f"  {'failed_ops':32s} {doc['failed'] / doc['attempted']:14.6f} share")
        for key, m in doc["metrics"].items():
            merged[f"{name}.{key}"] = (m["value"], m["unit"])
    _emit(ok, attempted, failed, merged)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (HERE.parent / "src" / "coverage_routing").is_dir():
        sys.stderr.write("bench: no src/coverage_routing next to bench/; "
                         "run from a checkout of the repository\n")
        return 2
    import harness

    if args.workload == "all":
        return run_all(args)
    if args.workload not in harness.WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}\n")
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
