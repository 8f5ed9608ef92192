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
and ``labeling_case2`` keeps the deadline-free answer, bound times and all,
wherever that route fits the deadline.

Each idle candidate's best route also yields an affine underestimator (cut)
of the dual function, tight for that candidate at the multiplier vector that
produced it, and so tight for the dual function where the candidate wins.
"""

from __future__ import annotations

import functools
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
    """A candidate path with per-arc travel times for a fixed idle stop.

    Its producer also records the path's arc ids (``arcs``, one per
    consecutive node pair, as :meth:`ArcIndexTable.arc_ids` gives them) and
    its travel time (``total``, the built-in ``sum`` of ``times``), so that
    every later reader takes them from here.  Both are left out of equality
    and ``repr``: they follow from the other fields."""

    vbar: int
    nodes: Tuple[int, ...]
    times: Tuple[float, ...]
    value: float                   # sum of net_rate * time over the path
    arcs: Tuple[int, ...] = field(compare=False, repr=False)
    total: float = field(compare=False, repr=False)


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
    maximizing candidate (``vbar``) and every candidate's best route
    (``routes``).  The maximizing candidate's timed route, :attr:`best`, is
    built the first time it is read and kept, so a caller that needs only
    the value chooses no route.  Equality and ``repr`` compare the value
    and that route."""

    value: float
    vbar: int = field(compare=False)
    routes: BestRoutes = field(compare=False, repr=False)

    @functools.cached_property
    def best(self) -> PathTiming:
        """The maximizing candidate's timed route."""
        return self.routes.timing(self.vbar)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value, self.best) == (other.value, other.best)

    def __repr__(self) -> str:
        return f"RelaxValue(value={self.value!r}, best={self.best!r})"


def assemble_f_value(coeffs: RelaxCoeffs, best: BestRoutes) -> RelaxValue:
    """Combine per-``vbar`` path optima into the relaxation value.

    ``best`` holds each idle candidate's optimal value, or None when no path
    through it fits the deadline.  The totals are compared by value, and
    the maximizing candidate is the first one in ``coeffs.idle_set`` order
    among equal totals; its route is left to :attr:`RelaxValue.best`, so
    no route is chosen or timed here.  The no-idle branch must be
    solvable, otherwise no route fits at all and the instance is
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
    return RelaxValue(coeffs.constant + top, top_vbar, best)


def _idle_time(timing: PathTiming, table: ArcIndexTable) -> float:
    """A timed route's idle time: the whole deadline remainder after its
    travel time (:attr:`PathTiming.total`) at its idle stop, 0 without
    one."""
    if not timing.vbar:
        return 0.0
    return max(0.0, table.instance.deadline - timing.total)


def make_cut(timings: Sequence[PathTiming], table: ArcIndexTable
             ) -> Tuple[np.ndarray, np.ndarray]:
    """The cuts ``gradient . lam + offset`` of timed routes: one row of
    gradients ``required - coverage`` and one offset ``priorities .
    coverage`` per route, in the given order, with ``coverage`` the
    route's row of one :meth:`ArcIndexTable.route_coverage` call over the
    routes' recorded arc ids, at each route's idle time
    (:func:`_idle_time`)."""
    cov = table.route_coverage([
        (timing.arcs, timing.times, timing.vbar, _idle_time(timing, table))
        for timing in timings])
    offsets = np.array([float(table.priorities @ row) for row in cov])
    return table.required - cov, offsets
