import math
import random

import numpy as np
import pytest

from coverage_routing.bundle import evaluate_dual_function
from coverage_routing.instance import (Instance, Physics, Target, Vehicle,
                                       Waypoint, build_index_table,
                                       finalize_instance, generate_instance,
                                       serialize_instance)
from coverage_routing.geometry import Point2


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


def random_multipliers(rng, m, scale=5.0):
    return np.array([-rng.uniform(0.0, scale) for _ in range(m)])


def relax_value(table, inst, lam, case, use_dominance=True,
                ratio_mode="slope"):
    value, _ = evaluate_dual_function(table, inst, lam, case,
                                      ratio_mode=ratio_mode,
                                      use_dominance=use_dominance)
    return value


@pytest.fixture
def rng():
    return random.Random(20240817)
