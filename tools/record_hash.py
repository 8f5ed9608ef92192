"""SHA-256 of the ``run_dual`` records of the benchmark batches, of the
deep case-I probe and of the binding case-II probes, for checking that a
change keeps every record's bytes.

    python3 tools/record_hash.py                # whole batches
    python3 tools/record_hash.py --limit 1      # first instance of each batch

A record is a solve's status, its three bounds, the bytes of ``best_lam``,
its iteration count, its trace rows without ``wall_time``, and its witness
route.  The batches are the benchmark's workload inputs, read through
``bench/harness.make_inputs`` at workload seed 0 and solved as the
benchmark solves them.  Seed 0 alone: a workload seed only picks one of
the square's eight symmetries per instance, and those leave the index
table, and so every record, bit-identical.  The deep probe is a
15-waypoint case-I instance (generator seed 3, 12 targets, coverage
radius 20, ``min_coverage=0.01``) stopped after 3 iterations.  The binding probes are 7-waypoint case-II
instances (generator seeds 0, 1 and 2, 10 targets, ``deadline_scale=0.04``,
``min_coverage=0.01``) solved to convergence; their deadline binds, so they
run the case-II label search and its knapsack timing, which no batch
reaches.  ``--limit`` keeps the first LIMIT of them too.  Their routes have
at most 8 arcs; the wide binding probe, the same at 8 waypoints
(generator seed 0), has routes of 9 arcs, where numpy's sum of a route's
times and the built-in ``sum`` can differ.  It is a part of its own, so
``--limit 1`` hashes it too.
One line per batch and one per probe part give each part's hash prefix;
the last line is the hash of everything, in that order.

BLAS runs single-threaded, as in the benchmark.  The bytes depend on the
BLAS kernel the machine selects, so compare hashes from one machine only.
"""

from __future__ import annotations

import os

# single-threaded numpy: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import harness  # noqa: E402  (puts src/ on the path)
from coverage_routing import bundle, instance  # noqa: E402

#: workload seeds of the hashed batches (another seed gives the same bytes)
SEEDS = (0,)
#: the deep case-I probe: generator arguments and iteration cap
DEEP_PROBE = dict(seed=3, n_waypoints=15, n_targets=12, case="I",
                  coverage_radius=20.0, min_coverage=0.01)
DEEP_ITERATIONS = 3
#: the binding case-II probes: generator seeds and arguments
BINDING_SEEDS = (0, 1, 2)
BINDING_PROBE = dict(n_waypoints=7, n_targets=10, case="II",
                     deadline_scale=0.04, min_coverage=0.01)
#: the wide binding probe: a binding probe at 8 waypoints
WIDE_BINDING_PROBE = dict(BINDING_PROBE, seed=0, n_waypoints=8)


def record(res: "bundle.DualResult") -> bytes:
    """The bytes of everything a ``run_dual`` result records, with
    ``best_lam`` as raw bytes and the trace rows without their wall
    times."""
    rows = [{k: v for k, v in dataclasses.asdict(row).items()
             if k != "wall_time"} for row in res.trace]
    return repr((res.status, res.dual_bound, res.lower_bound,
                 res.initial_bound, res.best_lam.tobytes(), res.iterations,
                 rows, res.solution)).encode()


def batch_records(wl: "harness.Workload", seed: int, limit):
    """Records of one workload batch, solved as the benchmark solves it."""
    insts, tables = harness.load_all(harness.make_inputs(wl, seed, limit))
    return [record(bundle.run_dual(inst, wl.case, phi=harness.PHI,
                                   tol=harness.TOL, table=table))
            for inst, table in zip(insts, tables)]


def deep_record() -> bytes:
    inst = instance.generate_instance(**DEEP_PROBE)
    return record(bundle.run_dual(inst, DEEP_PROBE["case"],
                                  iter_limit=DEEP_ITERATIONS))


def binding_records(limit):
    """Records of the binding case-II probes, the first ``limit`` of them
    (all with None)."""
    insts = [instance.generate_instance(seed, **BINDING_PROBE)
             for seed in BINDING_SEEDS[:limit]]
    return [record(bundle.run_dual(inst, BINDING_PROBE["case"]))
            for inst in insts]


def parts(limit):
    """``(label, records)`` of every batch, seed by seed, then of the deep
    probe, of the binding probes and of the wide binding probe."""
    for seed in SEEDS:
        for name, wl in harness.WORKLOADS.items():
            yield f"{name} seed {seed}", batch_records(wl, seed, limit)
    yield "deep case-I probe", [deep_record()]
    yield "binding case-II probes", binding_records(limit)
    inst = instance.generate_instance(**WIDE_BINDING_PROBE)
    yield "wide binding case-II probe", [record(bundle.run_dual(inst, "II"))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--limit", type=int, default=None,
                    help="hash only the first LIMIT instances of each batch")
    args = ap.parse_args(argv)

    total = hashlib.sha256()
    for label, records in parts(args.limit):
        part = hashlib.sha256()
        for rec in records:
            part.update(rec)
            total.update(rec)
        print(f"{label}: {len(records)} records {part.hexdigest()[:16]}")
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
