"""Exhaustive ground-truth engines for desk-size instances.

Everything here scores candidate routes directly from the index table (per
target, then weighted), independently of the coefficient algebra used by the
labeling solvers, so agreement between the two is a meaningful check.  The
enumeration refuses instances with more than :data:`MAX_WAYPOINTS` interior
waypoints instead of silently truncating; there is no wall-clock budget, so
a call runs to completion once accepted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceededError, InfeasibleInstanceError
from .instance import ArcIndexTable, Instance, build_index_table
from .relaxation import check_multipliers
from .simplex import OPTIMAL, dense_lp_solve

#: largest interior-waypoint count the enumeration accepts (109,600 routes)
MAX_WAYPOINTS = 8


def iter_paths(n: int) -> Iterator[Tuple[int, ...]]:
    """All interior-node sequences, shortest first."""
    nodes = range(1, n + 1)
    for k in range(1, n + 1):
        yield from itertools.permutations(nodes, k)


def _check_size(n: int) -> None:
    if n > MAX_WAYPOINTS:
        raise BudgetExceededError(
            f"{n} interior waypoints exceeds the enumeration limit "
            f"({MAX_WAYPOINTS})")


@dataclass(frozen=True)
class OracleRelaxResult:
    value: float
    vbar: int
    nodes: Tuple[int, ...]
    times: Tuple[float, ...]
    idle_time: float


def greedy_times(net: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray,
                 budget: float, order_ids: Sequence[int]) -> Optional[np.ndarray]:
    """Continuous-knapsack timing: start every arc at its fastest time and
    pour the remaining budget into positive-rate arcs in decreasing rate
    order (ties by ``order_ids``).  None when even the fastest times overrun
    the budget."""
    times = t_lo.astype(float).copy()
    slack = budget - float(times.sum())
    if slack < 0.0:
        return None
    for idx in sorted(range(len(net)), key=lambda k: (-net[k], order_ids[k])):
        if net[idx] <= 0.0 or slack <= 0.0:
            break
        add = min(slack, t_hi[idx] - t_lo[idx])
        times[idx] += add
        slack -= add
    return times


def oracle_relaxation(table: ArcIndexTable, instance: Instance,
                      lam: Sequence[float], case: str) -> OracleRelaxResult:
    """Solve the relaxed problem at one multiplier vector by brute force.

    Every simple route is scored for every worthwhile idle stop; the value is
    evaluated directly as multiplier constant plus weighted per-target
    coverage.  Ties go to the lexicographically smallest route.
    """
    if case not in ("I", "II"):
        raise ValueError(f"case must be 'I' or 'II', got {case!r}")
    n = table.n
    _check_size(n)
    lam = check_multipliers(lam, len(table.target_ids))
    weights = table.priorities - lam
    constant = float(table.required @ lam)
    gains = table.wp_cov @ weights
    idle_nodes = [i for i in range(1, n + 1) if gains[i - 1] > 0.0]
    T = instance.deadline
    exit_id = table.exit_id

    best = None
    for path in iter_paths(n):
        arc_ids = table.arc_ids((0,) + path + (exit_id,))
        raw = table.coverage_rate[arc_ids] @ weights
        t_lo = table.min_time[arc_ids]
        t_hi = table.max_time[arc_ids]
        on_path = set(path)
        for vbar in [0] + [i for i in idle_nodes if i in on_path]:
            net = raw - (gains[vbar - 1] if vbar else 0.0)
            if case == "I":
                # per-arc choice: whichever bound earns more
                times = np.where(net * t_hi >= net * t_lo, t_hi, t_lo)
            else:
                times = greedy_times(net, t_lo, t_hi, T, arc_ids)
                if times is None:
                    continue
            idle = max(0.0, T - float(times.sum())) if vbar else 0.0
            cov = table.coverage_rate[arc_ids].T @ times
            if vbar:
                cov = cov + table.wp_cov[vbar - 1] * idle
            value = constant + float(weights @ cov)
            key = (path, vbar)
            if best is None or value > best[0] or (value == best[0] and key < best[1]):
                best = (value, key, times, idle)
    if best is None:
        raise InfeasibleInstanceError(
            "no route fits the operational deadline")
    value, (path, vbar), times, idle = best
    return OracleRelaxResult(value, vbar, (0,) + path + (exit_id,),
                             tuple(float(t) for t in times), idle)


@dataclass(frozen=True)
class OraclePrimalResult:
    value: float
    nodes: Tuple[int, ...]
    times: Tuple[float, ...]
    idles: Tuple[Tuple[int, float], ...]
    coverage: Tuple[float, ...]


def oracle_primal(instance: Instance,
                  table: Optional[ArcIndexTable] = None) -> OraclePrimalResult:
    """Exact optimum of the deadline model: max weighted coverage subject to
    per-target minimums.

    For each simple route, travel times and idle times (idling may be split
    over several visited waypoints in the exact problem) form a small linear
    program.  Routes whose program is infeasible are skipped; if all are, the
    instance itself cannot meet the coverage requirements.
    """
    table = table or build_index_table(instance)
    n = table.n
    _check_size(n)
    T = instance.deadline
    exit_id = table.exit_id

    best = None
    for path in iter_paths(n):
        arc_ids = table.arc_ids((0,) + path + (exit_id,))
        n_arcs = len(arc_ids)
        n_idle = len(path)
        # variables: travel times then per-visited-waypoint idle times
        cov_cols = np.hstack([table.coverage_rate[arc_ids].T,
                              table.wp_cov[[i - 1 for i in path]].T])
        obj = table.priorities @ cov_cols
        A = [-cov_cols, np.ones((1, n_arcs + n_idle))]
        b = np.concatenate([-table.required, [T]])
        bounds = ([(float(lo), float(hi)) for lo, hi in
                   zip(table.min_time[arc_ids], table.max_time[arc_ids])]
                  + [(0.0, None)] * n_idle)
        res = dense_lp_solve(obj, np.vstack(A), b, bounds=bounds)
        if res.status != OPTIMAL:
            continue
        key = path
        if best is None or res.objective > best[0] or \
                (res.objective == best[0] and key < best[1]):
            best = (res.objective, key, res.x)
    if best is None:
        raise InfeasibleInstanceError(
            "no route can meet every coverage requirement within the deadline")
    value, path, x = best
    n_arcs = len(path) + 1
    times = tuple(float(t) for t in x[:n_arcs])
    idles = tuple((i, float(y)) for i, y in zip(path, x[n_arcs:]) if y > 1e-12)
    arc_ids = table.arc_ids((0,) + path + (exit_id,))
    cov = table.coverage_rate[arc_ids].T @ np.asarray(times)
    for i, y in idles:
        cov = cov + table.wp_cov[i - 1] * y
    return OraclePrimalResult(float(value), (0,) + path + (exit_id,), times,
                              idles, tuple(float(c) for c in cov))
