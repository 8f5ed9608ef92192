"""One-route-at-a-time reference for the cut builder: the loop that built
each idle candidate's cut with its own coverage sum before
``coverage_routing.relaxation.make_cut`` built one evaluation's cuts in one
array pass.  Each route's coverage is the arc-by-arc sum of
``reference_repair.route_coverage``, so no package code computes it.  It
also gives the lower bound those cuts carry: the largest offset of a
primal-feasible route's cut.  Tests compare the package against it for
exact equality."""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from coverage_routing.instance import ArcIndexTable
from coverage_routing.relaxation import PathTiming, RelaxValue
from reference_repair import route_coverage


def make_cut(timing: PathTiming, table: ArcIndexTable
             ) -> Tuple[np.ndarray, float]:
    """One route's cut: the gradient ``required - coverage`` and the
    offset ``priorities . coverage``, with the deadline remainder idled at
    the route's idle stop."""
    idle = 0.0
    if timing.vbar:
        idle = max(0.0, table.instance.deadline - float(sum(timing.times)))
    coverage = route_coverage(table, timing.nodes, timing.times, timing.vbar,
                              idle)
    return table.required - coverage, float(table.priorities @ coverage)


def make_cuts(timings: Sequence[PathTiming], table: ArcIndexTable
              ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`make_cut` of each route in turn, stacked into gradients and
    offsets as the package's ``make_cut`` returns them."""
    cuts = [make_cut(timing, table) for timing in timings]
    return (np.array([gradient for gradient, _ in cuts]),
            np.array([offset for _, offset in cuts]))


def _candidate_routes(value: RelaxValue) -> List[PathTiming]:
    """Every idle candidate's route: the maximizing candidate's first, then
    the others in idle-set order."""
    routes, top = value.routes, value.best.vbar
    return [value.best] + [
        routes.timing(vbar) for vbar, found in routes.values.items()
        if found is not None and vbar != top]


def candidate_cuts(value: RelaxValue, table: ArcIndexTable
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """The cut of every idle candidate's route, one route at a time: the
    maximizing candidate's first, then the others in idle-set order."""
    return make_cuts(_candidate_routes(value), table)


def feasible_bound(value: RelaxValue, table: ArcIndexTable) -> float:
    """The largest offset among the cuts of :func:`candidate_cuts` whose
    route is primal feasible, one route at a time, or ``-inf`` when none
    is: the route meets every requirement (each gradient entry is at most
    0) and fits the deadline (its times, summed in path order, are at most
    the deadline), in either case."""
    best = -math.inf
    for timing in _candidate_routes(value):
        gradient, offset = make_cut(timing, table)
        fits = sum(timing.times) <= table.instance.deadline
        if fits and all(g <= 0.0 for g in gradient.tolist()):
            best = max(best, offset)
    return best
