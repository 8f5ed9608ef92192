"""Per-pair reference for the greedy primal repair: the loop over (timing,
idle stop) pairs, one coverage sum per pair, that
``coverage_routing.bundle._greedy_primal_repair`` replaced with one array
pass.  Tests compare the package against it for exact equality."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from coverage_routing.bundle import LB_FLOOR, _route_solution
from coverage_routing.instance import (VALIDATE_TOL, ArcIndexTable,
                                       PathSolution)
from coverage_routing.relaxation import PathTiming


def route_coverage(table: ArcIndexTable, nodes: Sequence[int],
                   times: Sequence[float], idle_node: Optional[int],
                   idle_time: float) -> np.ndarray:
    """Per-target coverage of one timed route, arc by arc in path order,
    then the idle stop's term when the idle time is positive."""
    cov = np.zeros(len(table.target_ids))
    for k, t in zip(table.arc_ids(nodes), times):
        cov += table.coverage_rate[k] * t
    if idle_node and idle_time > 0:
        cov += table.wp_cov[idle_node - 1] * idle_time
    return cov


def greedy_primal_repair(table: ArcIndexTable, witness: PathTiming
                         ) -> Tuple[float, Optional[PathSolution]]:
    """Best feasible route obtainable by re-timing the witness path and
    idling the deadline remainder at one of its waypoints."""
    nodes = witness.nodes
    ids = table.arc_ids(nodes)
    T = table.instance.deadline
    fast = table.min_time[ids]
    slow = table.max_time[ids]
    interior = [v for v in nodes if 0 < v <= table.n]

    best_sol = None
    timings = [fast, np.asarray(witness.times)]
    if float(slow.sum()) <= T:
        timings.append(slow)
    for times in timings:
        total = float(times.sum())
        if total > T + VALIDATE_TOL:
            continue
        for vbar in [0] + interior:
            idle = (T - total) if vbar else 0.0
            cov = route_coverage(table, nodes, times, vbar, idle)
            if np.all(cov >= table.required - VALIDATE_TOL):
                sol = _route_solution(table, nodes, times, vbar, idle, cov)
                if best_sol is None or sol.objective > best_sol.objective:
                    best_sol = sol
    if best_sol is None:
        return LB_FLOOR, None
    return best_sol.objective, best_sol
