"""One-route-at-a-time reference for the cut builder: the loop that built
each idle candidate's cut with its own coverage sum before
``coverage_routing.relaxation.make_cut`` built one evaluation's cuts in one
array pass.  Each route's coverage is the arc-by-arc sum of
``reference_repair.route_coverage``, so no package code computes it.  Tests
compare the package against it for exact equality."""

from __future__ import annotations

from typing import Sequence, Tuple

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


def candidate_cuts(value: RelaxValue, table: ArcIndexTable
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """The cut of every idle candidate's route, one route at a time: the
    maximizing candidate's first, then the others in idle-set order."""
    routes, top = value.routes, value.best.vbar
    return make_cuts([value.best] + [
        routes.timing(vbar) for vbar, found in routes.values.items()
        if found is not None and vbar != top], table)
