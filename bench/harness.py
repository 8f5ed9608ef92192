"""Workloads, set-up, solve passes and the correctness gate of the benchmark.

A workload is a fixed batch of generated instances solved with ``run_dual``
to convergence.  The workload seed does not pick the instances: it draws,
per instance, one of the eight exact symmetries of the square, so the
program receives different coordinates for every seed while every seed
carries the same search work.  ``NOTES.md`` explains why.
"""

from __future__ import annotations

import bisect
import json
import random
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from coverage_routing import bundle, instance, oracle  # noqa: E402
from coverage_routing.errors import CoverageRoutingError  # noqa: E402

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: relative tolerance for bounds that must agree with a recorded value
BOUND_RTOL = 1e-8
#: run_dual defaults every workload solves at
PHI = 0.5
TOL = 1e-4
#: Times are reported in calibrated seconds: wall seconds times
#: CALIBRATION_S over the median time one fixed slice of pure-Python work
#: took while they ran (see SpeedProbe).  The machine's speed drifts by tens
#: of percent within seconds; the rescaling cancels most of that drift.
#: CALIBRATION_S is the slice's typical duration on the machine the baseline
#: was recorded on.
CALIBRATION_S = 0.0011
#: how often SpeedProbe samples the machine's speed, and how far back
#: before a measured call its samples still count for that call
PROBE_PERIOD_S = 0.02
PROBE_WINDOW_S = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    case: str
    count: int
    make: Callable[[int], "instance.Instance"]
    #: check oracle_relaxation at lambda=0 against initial_bound
    oracle_check: bool


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("small-I", "I", 4,
             lambda s: instance.generate_instance(s, preset="small", case="I"),
             oracle_check=False),
    Workload("desk-II", "II", 4,
             lambda s: instance.generate_instance(s, 7, 10, case="II"),
             oracle_check=True),
    Workload("wide-I", "I", 8,
             lambda s: instance.generate_instance(
                 s, 6, 60, case="I", coverage_radius=20.0, min_coverage=0.01),
             oracle_check=True),
)}


# ---------------------------------------------------------------------------
# machine speed


def _slice() -> int:
    acc, keep, seen = 0, [], {}
    for i in range(6000):
        m = (i * 2654435761) & 0xFFFF
        if m & 1:
            keep.append(m)
        seen[m & 255] = acc
        acc += m % 97
    return acc + len(keep) + len(seen)


class SpeedProbe:
    """Samples the machine's speed for as long as it is active: an interval
    timer interrupts the main thread every PROBE_PERIOD_S, and the handler
    times one calibration slice.  ``spent`` is the wall time the slices
    took."""

    def __init__(self):
        self.starts: List[float] = []
        self.samples: List[float] = []
        self.spent = 0.0

    def tick(self, *_) -> None:
        t0 = time.perf_counter()
        _slice()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.samples.append(dt)
        self.spent += dt

    def speed(self, start: float, end: float) -> float:
        """CALIBRATION_S over the median slice time from PROBE_WINDOW_S
        before ``start`` until ``end``."""
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end)
        return CALIBRATION_S / statistics.median(self.samples[lo:hi])

    def __enter__(self) -> "SpeedProbe":
        for _ in range(int(PROBE_WINDOW_S / PROBE_PERIOD_S)):
            self.tick()
        self._old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)


def calibrated(probe: SpeedProbe, fn: Callable):
    """Run ``fn()`` while ``probe`` is active.  Returns its result, its
    calibrated seconds, and the factor that turns wall seconds measured
    inside ``fn`` (which include the probe's share) into calibrated
    seconds."""
    spent = probe.spent
    t0 = time.perf_counter()
    res = fn()
    t1 = time.perf_counter()
    gross = t1 - t0
    net = gross - (probe.spent - spent)
    speed = probe.speed(t0, t1)
    return res, net * speed, (net / gross if gross > 0 else 1.0) * speed


# ---------------------------------------------------------------------------
# inputs


def symmetric_copy(doc: dict, symmetry: int) -> dict:
    """Map every waypoint and target through one of the eight symmetries of
    the square about the origin: bit 0 negates x, bit 1 negates y, bit 2
    swaps the axes first.  These maps are exact in floating point and the
    geometry only uses differences, squares and absolute values of
    coordinates, so the index table comes out bit-identical."""
    out = json.loads(json.dumps(doc))
    for p in out["waypoints"] + out["targets"]:
        x, y = (p["y"], p["x"]) if symmetry & 4 else (p["x"], p["y"])
        p["x"] = -x if symmetry & 1 else x
        p["y"] = -y if symmetry & 2 else y
    return out


def make_inputs(wl: Workload, seed: int, limit: Optional[int] = None) -> List[str]:
    """JSON documents of the workload's batch for one workload seed."""
    rng = random.Random(f"{wl.name}:{seed}")
    count = wl.count if limit is None else min(limit, wl.count)
    docs = []
    for k in range(count):
        doc = json.loads(instance.instance_to_json(wl.make(k)))
        docs.append(json.dumps(symmetric_copy(doc, rng.randrange(8))))
    return docs


def load_all(docs: Sequence[str]):
    """Load every document and build its index table."""
    insts, tables = [], []
    for text in docs:
        inst = instance.load_instance(json.loads(text))
        insts.append(inst)
        tables.append(instance.build_index_table(inst))
    return insts, tables


def set_up(probe: SpeedProbe, docs: Sequence[str]):
    """Load every document and build its index table (the user's set-up);
    returns the instances, their tables and the calibrated seconds spent."""
    (insts, tables), seconds, _ = calibrated(probe, lambda: load_all(docs))
    return insts, tables, seconds


# ---------------------------------------------------------------------------
# solving


@dataclass
class Outcome:
    """One ``run_dual`` call: its result or the error it raised."""

    index: int
    #: calibrated seconds of the whole call, and the factor that turns the
    #: solver's own wall-clock readings into calibrated seconds
    seconds: float
    scale: float
    result: Optional["bundle.DualResult"] = None
    error: Optional[str] = None
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def solve_one(probe: SpeedProbe, index: int, inst, table, case: str) -> Outcome:
    """One ``run_dual`` call to convergence."""
    def call():
        try:
            return bundle.run_dual(inst, case, phi=PHI, tol=TOL, table=table)
        except CoverageRoutingError as exc:
            return exc
    res, seconds, scale = calibrated(probe, call)
    if isinstance(res, CoverageRoutingError):
        return Outcome(index, seconds, scale,
                       error=f"{type(res).__name__}: {res}")
    return Outcome(index, seconds, scale, result=res)


def solve_pass(probe: SpeedProbe, insts, tables, case: str) -> List[Outcome]:
    """Solve the whole batch once.  A solve that raises a package error is
    recorded as a failed outcome and the pass goes on."""
    return [solve_one(probe, k, inst, table, case)
            for k, (inst, table) in enumerate(zip(insts, tables))]


def first_bound_seconds(out: Outcome) -> Optional[float]:
    """Calibrated time to the solve's first certified bound."""
    if out.result is None:
        return None
    return out.result.trace[0].wall_time * out.scale


# ---------------------------------------------------------------------------
# correctness


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, List[dict]]:
    return json.loads(path.read_text())["workloads"]


def _close(a: float, b: float, rtol: float = BOUND_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def infeasible(ref: dict) -> bool:
    """Whether the reference run certified that the coverage requirements
    cannot be met.  Every route's value (priorities times coverage) is at
    least 0, so a dual bound below 0 proves there is no feasible route.  The
    duals of such an instance run off toward ``LB_FLOOR`` and where they
    stop depends on the iteration path, so its bracket certifies nothing."""
    return ref["dual_bound"] < 0.0


def check_outcome(out: Outcome, inst, ref: dict) -> None:
    """Cheap checks run on every solve: the recorded initial bound, and the
    final bound inside the recorded certified bracket, or below 0 where the
    reference proved the requirements infeasible."""
    res = out.result
    if res is None:
        return
    if len(inst.targets) != ref["targets"]:
        out.problems.append(
            f"{len(inst.targets)} targets kept, reference has {ref['targets']}")
    if not _close(res.initial_bound, ref["initial_bound"]):
        out.problems.append(
            f"initial_bound {res.initial_bound!r} != {ref['initial_bound']!r}")
    if res.status != bundle.CONVERGED:
        out.problems.append(f"status {res.status}")
    if infeasible(ref):
        if res.dual_bound >= 0.0:
            out.problems.append(
                f"dual_bound {res.dual_bound!r} >= 0, but the reference "
                f"certified infeasible requirements ({ref['dual_bound']!r})")
        return
    slack = TOL * max(1.0, abs(res.dual_bound))
    if not (ref["lower_bound"] - slack <= res.dual_bound
            <= ref["dual_bound"] + slack):
        out.problems.append(
            f"dual_bound {res.dual_bound!r} outside the reference bracket "
            f"[{ref['lower_bound']!r}, {ref['dual_bound']!r}]")


def gate_outcome(out: Outcome, inst, table, wl: Workload) -> None:
    """Once-per-run checks: the witness route is a valid route, and on
    desk-size workloads the brute-force relaxation at lambda=0 agrees with
    the solver's initial bound."""
    res = out.result
    if res is None:
        return
    report = instance.validate_solution(inst, res.solution, table=table)
    if not report.ok:
        bad = [c.name for c in report.constraints if not c.passed]
        out.problems.append(f"witness route fails validation: {bad}")
    if wl.oracle_check:
        lam0 = np.zeros(len(table.target_ids))
        ora = oracle.oracle_relaxation(table, inst, lam0, wl.case)
        if not _close(res.initial_bound, ora.value):
            out.problems.append(
                f"initial_bound {res.initial_bound!r} != oracle {ora.value!r}")
