"""Multiplier-dependent coefficients for the relaxed routing problem.

Dualizing the per-target coverage requirements with multipliers ``lam <= 0``
leaves a single-vehicle path problem.  For a candidate idle stop ``vbar``
(0 meaning "never idle"), idling earns ``idle_gain(vbar)`` per unit time, so
every arc's worth per unit travel time is netted against that opportunity
cost:

    net_rate(arc, vbar) = sum_w (priority_w - lam_w)
                          * (coverage_rate(arc, w) - idle_cov(vbar, w)).

A :class:`RelaxCoeffs` is the whole relaxed problem at one multiplier: it
carries the index table, and with it the instance's deadline and the arc
time bounds, next to the multiplier-dependent rates and idle candidates.

Without the deadline the optimal travel time per arc is bound-valued and
known from the sign of ``net_rate`` (:meth:`RelaxCoeffs.bound_times`).  With
a deadline slack enough to never bind (case I) that timing is optimal.  In
case II the times stay free: the timing problem is a continuous knapsack,
and ``labeling_case2`` says where the bound timing still settles it.

Each idle candidate's best route also yields an affine underestimator (cut)
of the dual function, tight for that candidate at the multiplier vector that
produced it, and so tight for the dual function where the candidate wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import InfeasibleInstanceError
from .instance import ArcIndexTable

CASE_I = "I"
CASE_II = "II"

_LAMBDA_TOL = 1e-12


def check_multipliers(lam: Sequence[float], n_targets: int) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (n_targets,):
        raise ValueError(f"need one multiplier per target ({n_targets}), "
                         f"got shape {lam.shape}")
    if np.any(lam > _LAMBDA_TOL):
        raise ValueError(f"multipliers must be <= 0, max is {lam.max()}")
    return np.minimum(lam, 0.0)


@dataclass
class RelaxCoeffs:
    """The relaxed problem at a fixed multiplier: the index table (the
    instance, its deadline and the arc time bounds) plus everything that
    depends on the multiplier."""

    table: ArcIndexTable
    case: str
    constant: float                # sum_w required_w * lam_w
    idle_set: Tuple[int, ...]      # 0 plus every waypoint with positive gain
    idle_gain: Dict[int, float]
    #: per arc, value per unit time net of the idle opportunity cost: one
    #: row per candidate, in ``idle_set`` order
    net: np.ndarray

    @property
    def deadline(self) -> float:
        return self.table.instance.deadline

    def net_rates(self, vbar: int) -> np.ndarray:
        """Candidate ``vbar``'s row of :attr:`net`."""
        return self.net[self.idle_set.index(vbar)]

    def bound_times(self, net: np.ndarray) -> np.ndarray:
        """Optimal times without the deadline, in either case, for the net
        rates ``net`` (rows of :attr:`net`): slowest where the rate is
        positive, fastest otherwise."""
        return np.where(net > 0.0, self.table.max_time, self.table.min_time)


def build_coeffs(table: ArcIndexTable, lam: Sequence[float],
                 case: str) -> RelaxCoeffs:
    """Assemble all multiplier-dependent coefficients.

    The idle candidate set keeps waypoints whose weighted idle coverage is
    strictly positive (idling at a gain of exactly zero buys nothing), plus
    the no-idle candidate 0.
    """
    if case not in (CASE_I, CASE_II):
        raise ValueError(f"case must be 'I' or 'II', got {case!r}")
    lam = check_multipliers(lam, len(table.target_ids))
    weights = table.priorities - lam
    gains = table.wp_cov @ weights

    idle_gain = {0: 0.0}
    for i in range(1, table.n + 1):
        g = float(gains[i - 1])
        if g > 0.0:
            idle_gain[i] = g
    net = table.coverage_rate @ weights - np.array(
        list(idle_gain.values()))[:, None]
    return RelaxCoeffs(
        table=table,
        case=case,
        constant=float(table.required @ lam),
        idle_set=tuple(idle_gain),
        idle_gain=idle_gain,
        net=net,
    )


@dataclass(frozen=True)
class PathTiming:
    """A candidate path with per-arc travel times for a fixed idle stop."""

    vbar: int
    nodes: Tuple[int, ...]
    times: Tuple[float, ...]
    value: float                   # sum of net_rate * time over the path


class BestRoutes:
    """Best route per idle candidate, and the labels or table states the
    labeling stored and left alive.

    ``values`` holds every candidate's best value (None where no route fits
    the deadline).  :meth:`timing` builds a candidate's timed route only
    when asked, so a caller that needs one route pays for one; ``results``
    builds them all.
    """

    def __init__(self, values: Dict[int, Optional[float]],
                 route: Callable[[int], PathTiming], labels_stored: int,
                 labels_alive: int):
        self.values = values
        self._route = route
        self.labels_stored = labels_stored
        self.labels_alive = labels_alive

    @classmethod
    def from_results(cls, results: Dict[int, Optional[PathTiming]],
                     labels_stored: int, labels_alive: int) -> "BestRoutes":
        """Routes that are timed already (None where none fits)."""
        values = {vbar: None if bt is None else bt.value
                  for vbar, bt in results.items()}
        return cls(values, results.__getitem__, labels_stored, labels_alive)

    def timing(self, vbar: int) -> Optional[PathTiming]:
        """Candidate ``vbar``'s best timed route, or None where none fits."""
        return None if self.values[vbar] is None else self._route(vbar)

    @property
    def results(self) -> Dict[int, Optional[PathTiming]]:
        """Every candidate's best timed route (None where none fits)."""
        return {vbar: self.timing(vbar) for vbar in self.values}


@dataclass(frozen=True)
class RelaxValue:
    """The relaxation optimum at one multiplier vector: its value, the
    maximizing candidate's timed route, and every candidate's best route
    (``routes``, left out of equality and ``repr``)."""

    value: float
    best: PathTiming
    routes: BestRoutes = field(compare=False, repr=False)


def assemble_f_value(coeffs: RelaxCoeffs, best: BestRoutes) -> RelaxValue:
    """Combine per-``vbar`` path optima into the relaxation value.

    ``best`` holds each idle candidate's optimal value, or None when no path
    through it fits the deadline.  The totals are compared by value, and
    only the maximizing candidate's route is timed (the first one in
    ``coeffs.idle_set`` order among equal totals).  The no-idle branch must
    be solvable, otherwise no route fits at all and the instance is
    infeasible.
    """
    if best.values.get(0) is None:
        raise InfeasibleInstanceError(
            "no route fits the operational deadline")
    top = top_vbar = None
    for vbar in coeffs.idle_set:
        value = best.values.get(vbar)
        if value is None:
            continue
        gain_term = coeffs.deadline * coeffs.idle_gain[vbar] if vbar else 0.0
        tot = gain_term + value
        if top is None or tot > top:
            top, top_vbar = tot, vbar
    return RelaxValue(value=coeffs.constant + top,
                      best=best.timing(top_vbar), routes=best)


def _idle_time(timing: PathTiming, table: ArcIndexTable) -> float:
    """A timed route's idle time: the whole deadline remainder at its idle
    stop, 0 without one."""
    if not timing.vbar:
        return 0.0
    return max(0.0, table.instance.deadline - float(sum(timing.times)))


def make_cut(timings: Sequence[PathTiming], table: ArcIndexTable
             ) -> Tuple[np.ndarray, np.ndarray]:
    """The cuts ``gradient . lam + offset`` of timed routes, built in one
    pass: one row of gradients ``required - coverage`` and one offset
    ``priorities . coverage`` per route, in the given order, with
    ``coverage`` the route's per-target coverage at its idle time
    (:func:`_idle_time`).

    The routes' arc rates are gathered at once, padded to the longest route
    with zero-time arcs and closed by the idle stop's rate at the idle time
    (0 without one), and one running sum along the path axis adds each
    route's terms in path order, idle term last; a zero-time term adds
    nothing, so every row equals :meth:`ArcIndexTable.route_coverage` of
    its route bit for bit."""
    ids = [table.arc_ids(timing.nodes) for timing in timings]
    width = max(map(len, ids))
    times = np.array([[*timing.times] + [0.0] * (width - len(timing.times))
                      + [_idle_time(timing, table)] for timing in timings])
    # a route without an idle stop takes some waypoint's rate at time 0
    rates = np.concatenate(
        [table.coverage_rate[[row + [0] * (width - len(row)) for row in ids]],
         table.wp_cov[[timing.vbar - 1 for timing in timings], None]], axis=1)
    cov = np.add.accumulate(times[..., None] * rates, axis=1)[:, -1]
    offsets = np.array([float(table.priorities @ row) for row in cov])
    return table.required - cov, offsets
