import json
import math
import random
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from coverage_routing.bundle import evaluate_dual_function
from coverage_routing.labeling_case2 import Case2Solver
from coverage_routing.relaxation import (BestRoutes, assemble_f_value,
                                         build_coeffs)
from coverage_routing.instance import (Instance, Physics, Target, Vehicle,
                                       Waypoint, build_index_table,
                                       finalize_instance, generate_instance,
                                       serialize_instance)
from coverage_routing.geometry import Point2, segment_disk_batch


class KernelPair(NamedTuple):
    """One entry of the geometry kernel in Python floats, with the ends of
    its chord (both at the segment's start where the chord is empty)."""

    hit: bool
    clear: bool
    p_start: Point2
    p_end: Point2
    frac: float
    per_time: float
    rate: float


def kernel_pair(a, b, w, factor, radius, eps=0.0):
    """``segment_disk_batch`` of the one segment ``[a, b]`` against the one
    disk around ``w``."""
    batch = segment_disk_batch([a.x], [a.y], [b.x], [b.y], [w.x], [w.y],
                               factor, radius, eps)
    s_lo, s_hi = float(batch.s_lo[0, 0]), float(batch.s_hi[0, 0])
    ux, uy = b.x - a.x, b.y - a.y
    return KernelPair(bool(batch.hit[0, 0]), bool(batch.clear[0, 0]),
                      Point2(a.x + s_lo * ux, a.y + s_lo * uy),
                      Point2(a.x + s_hi * ux, a.y + s_hi * uy),
                      float(batch.frac[0, 0]), float(batch.per_time[0, 0]),
                      float(batch.rate[0, 0]))


def raw_instance(waypoints, targets, radius, factor=1.0, deadline=100.0,
                 speeds=(1.0, 10.0)):
    """Instance straight from (x, y) pairs, neither validated nor cleaned;
    the first waypoint is both depots."""
    pts = [Point2(*p) for p in [waypoints[0], *waypoints[1:], waypoints[0]]]
    return Instance(
        waypoints=tuple(Waypoint(k, p, 0.0, 100.0) for k, p in enumerate(pts)),
        targets=tuple(Target(k, Point2(*p), 1.0, 1.0, 1.0, 0.1)
                      for k, p in enumerate(targets)),
        vehicle=Vehicle(factor, radius, *speeds, 1e9),
        physics=Physics(), deadline=deadline)


def make_instance(waypoints, targets, *, deadline, coverage_radius=10.0,
                  speed_min=1.0, speed_max=10.0, risk_radius=5.0,
                  min_coverage=1.0, coverage_factor=1.0):
    """Hand-built instance: waypoints as (x, y) for interior nodes, targets
    as (x, y[, priority]) tuples.  Depots sit at the first given point unless
    a pair ('depot', (x, y)) leads the waypoint list."""
    if waypoints and isinstance(waypoints[0], tuple) and waypoints[0][0] == "depot":
        depot = Point2(*waypoints[0][1])
        interior = waypoints[1:]
    else:
        depot = Point2(*waypoints[0])
        interior = waypoints[1:]
    pts = [depot] + [Point2(x, y) for (x, y) in interior] + [depot]
    wps = tuple(Waypoint(k, p, 0.0, deadline) for k, p in enumerate(pts))
    tgs = []
    for tid, t in enumerate(targets):
        x, y = t[0], t[1]
        prio = t[2] if len(t) > 2 else 1.0
        tgs.append(Target(tid, Point2(x, y), 1.0, float(prio), risk_radius,
                          min_coverage))
    inst = Instance(
        waypoints=wps, targets=tuple(tgs),
        vehicle=Vehicle(coverage_factor, coverage_radius, speed_min,
                        speed_max, 67500.0, 1.0),
        physics=Physics(1.0, 1.0), deadline=deadline)
    return finalize_instance(inst)


def random_desk_instance(rng, n_range=(2, 6), m_range=(2, 8), case="I",
                         scale_choices=(0.1, 0.2, 0.3),
                         radius_choices=(15.0, 25.0, 35.0), **kw):
    """Random instance with at least one surviving target."""
    while True:
        n = rng.randint(*n_range)
        m = rng.randint(*m_range)
        seed = rng.randint(0, 10 ** 6)
        scale = None if case == "I" else rng.choice(scale_choices)
        inst = generate_instance(seed, n, m, case=case, deadline_scale=scale,
                                 coverage_radius=rng.choice(radius_choices),
                                 **kw)
        if inst.targets:
            return inst


def too_many_waypoints_document():
    """Instance document with 64 interior waypoints, one more than the
    64-bit visited-set masks hold: the 63 of a generated instance plus a
    copy of waypoint 1 moved half a unit, then the exit depot."""
    doc = serialize_instance(generate_instance(0, 63, 2))
    exit_wp = doc["waypoints"].pop()
    extra = dict(doc["waypoints"][1], id=64)
    extra["x"] += 0.5
    doc["waypoints"] += [extra, dict(exit_wp, id=65)]
    return doc


def singular_rate_document(waypoint_x, target, factor=1.0, radius=10.0,
                           **kw):
    """Instance document with both depots at the origin, one interior
    waypoint at ``(waypoint_x, 0)`` and one target; ``kw`` may set the
    deadline and the speeds.  At the scales of :data:`SINGULAR_RATES` the
    loader keeps the target, farther than ``eps_geo`` from every arc, yet an
    inverse-square rate leaves the float range."""
    return serialize_instance(raw_instance(
        [(0.0, 0.0), (waypoint_x, 0.0)], [target], radius, factor=factor,
        **kw))


#: (waypoint_x, target, factor) of instances whose index table is singular:
#: a target whose squared distance to waypoint 1 underflows to 0, one whose
#: arc rate overflows, and one, at a small coverage factor, whose arc rates
#: are finite but whose idle rate at waypoint 1 is not
SINGULAR_RATES = {
    "waypoint-underflow": (1e-160, (1e-160, 1e-165), 1.0),
    "arc-overflow": (2e-160, (1e-160, 1e-166), 1.0),
    "idle-only": (1e-155, (1e-155, 1e-162), 1e-10),
}

#: (waypoint_x, target, factor, where) of instances whose rates are all
#: finite but where a route covers the target beyond the float range: by
#: idling at waypoint 1 for the deadline (its idle rate is 1.1e307), or, at
#: a huge coverage factor, on arc (0,1)
ROUTE_OVERFLOW = {
    "idle": (1e-145, (1e-145, 3e-154), 1.0, "waypoint 1"),
    "arc": (1.0, (0.5, 1e-3), 1e290, "arc (0,1)"),
}

#: (waypoint_x, target) of a target so far beyond a network of sub-1e-150
#: extent that the geometry kernel's quotients overflow; it is out of reach
FAR_TARGET = (1e-160, (1e200, 0.0))

#: (waypoint_x, target) of a target 1.4e200 from arc (0,1), whose squared
#: length overflows: the kernel computes that pair again at a smaller
#: scale, and the target is out of reach
HUGE_ARC = (1e200, (-1e200, 1e200))

#: a target out of reach, dropped on load, and a deadline no route meets:
#: case I solves with no targets, case II is infeasible
NO_TARGETS = singular_rate_document(5.0, (50.0, 50.0), radius=1.0,
                                    deadline=0.01)

#: documents whose travel times leave the float range: arc (0,1) takes
#: 1e400 at the slowest speed, or 1e308, where a route of two such arcs
#: takes 2e308 (the target there sits on the arc and is dropped)
TIME_OVERFLOW = {
    "arc": singular_rate_document(1e200, (-1e200, 1e200), deadline=1e300,
                                  speeds=(1e-200, 1e-199)),
    "route": singular_rate_document(1e300, (1e300, 5.0), deadline=1e300,
                                    speeds=(1e-8, 1.0)),
}


def solve_outputs(out):
    """The record, witness and meta documents that ``covroute solve --out
    out`` wrote, refusing NaN and infinite numbers in each."""
    def read(suffix):
        text = Path(f"{out}{suffix}").read_text()

        def refuse(token):
            raise AssertionError(f"non-finite number {token} in {text[:200]}")
        return json.loads(text, parse_constant=refuse)
    return [read(suffix) for suffix in ("", ".sol.json", ".meta.json")]


def random_multipliers(rng, m, scale=5.0):
    return np.array([-rng.uniform(0.0, scale) for _ in range(m)])


def relax_value(table, inst, lam, case, use_dominance=True,
                ratio_mode="slope"):
    return evaluate_dual_function(table, lam, case, ratio_mode=ratio_mode,
                                  use_dominance=use_dominance)


def case2_search_value(table, inst, lam, use_dominance=True,
                       ratio_mode="slope"):
    """Case-II relaxation value with a search for every idle candidate, the
    deadline-free screen of :func:`solve_case2` left out."""
    coeffs = build_coeffs(table, lam, "II")
    results = {
        vbar: Case2Solver(coeffs, vbar, ratio_mode, use_dominance).solve()
        for vbar in coeffs.idle_set}
    return assemble_f_value(coeffs, BestRoutes.from_results(results, 0, 0))


@pytest.fixture
def rng():
    return random.Random(20240817)
