"""Multiplier-dependent coefficients for the relaxed routing problem.

Dualizing the per-target coverage requirements with multipliers ``lam <= 0``
leaves a single-vehicle path problem.  For a candidate idle stop ``vbar``
(0 meaning "never idle"), idling earns ``idle_gain(vbar)`` per unit time, so
every arc's worth per unit travel time is netted against that opportunity
cost:

    net_rate(arc, vbar) = sum_w (priority_w - lam_w)
                          * (coverage_rate(arc, w) - idle_cov(vbar, w)).

With a deadline slack enough to never bind (case I) the optimal travel time
per arc is bound-valued and known from the sign of ``net_rate``; with a
binding deadline (case II) the times stay free and the timing problem is a
continuous knapsack solved by the labeling layer.

Each relaxation solution also yields an affine underestimator (cut) of the
dual function, tight at the multiplier vector that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import InfeasibleInstanceError
from .instance import ArcIndexTable, Instance

CASE_I = "I"
CASE_II = "II"

#: Multiplier vectors are plain arrays aligned with the index table's target
#: order; every entry must be <= 0 (see :func:`check_multipliers`).
Multipliers = np.ndarray

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
    """Everything the per-``vbar`` path solvers need at a fixed multiplier."""

    case: str
    constant: float                # sum_w required_w * lam_w
    idle_set: Tuple[int, ...]      # 0 plus every waypoint with positive gain
    idle_gain: Dict[int, float]
    f_raw: np.ndarray              # per arc, gross value rate
    t_lo: np.ndarray               # per arc, fastest traversal time
    t_hi: np.ndarray               # per arc, slowest traversal time

    def net_rates(self, vbar: int) -> np.ndarray:
        """Per-arc value per unit time, net of the idle opportunity cost."""
        return self.f_raw - self.idle_gain[vbar]

    def bound_times(self, vbar: int) -> np.ndarray:
        """Case-I optimal times: slowest where the net rate is positive,
        fastest otherwise."""
        if self.case != CASE_I:
            raise ValueError("bound-valued times are a case-I construct")
        return np.where(self.net_rates(vbar) > 0.0, self.t_hi, self.t_lo)

    def arc_values(self, vbar: int) -> np.ndarray:
        """Case-I value collected on each arc at its chosen time."""
        return self.net_rates(vbar) * self.bound_times(vbar)


def build_coeffs(table: ArcIndexTable, instance: Instance,
                 lam: Sequence[float], case: str) -> RelaxCoeffs:
    """Assemble all multiplier-dependent coefficients.

    The idle candidate set keeps waypoints whose weighted idle coverage is
    strictly positive (idling at a gain of exactly zero buys nothing), plus
    the no-idle candidate 0.
    """
    if case not in (CASE_I, CASE_II):
        raise ValueError(f"case must be 'I' or 'II', got {case!r}")
    lam = check_multipliers(lam, len(table.target_ids))
    weights = table.priorities - lam
    f_raw = table.coverage_rate @ weights
    gains = table.wp_cov @ weights

    idle_gain = {0: 0.0}
    idle_set = [0]
    for i in instance.interior_ids:
        g = float(gains[i - 1])
        if g > 0.0:
            idle_set.append(i)
            idle_gain[i] = g
    return RelaxCoeffs(
        case=case,
        constant=float(table.required @ lam),
        idle_set=tuple(idle_set),
        idle_gain=idle_gain,
        f_raw=f_raw,
        t_lo=table.min_time.copy(),
        t_hi=table.max_time.copy(),
    )


@dataclass(frozen=True)
class PathTiming:
    """A candidate path with per-arc travel times for a fixed idle stop."""

    vbar: int
    nodes: Tuple[int, ...]
    times: Tuple[float, ...]
    value: float                   # sum of net_rate * time over the path


@dataclass(frozen=True)
class RelaxValue:
    """The relaxation optimum at one multiplier vector."""

    value: float
    best: PathTiming


def assemble_f_value(coeffs: RelaxCoeffs,
                     best: Dict[int, Optional[PathTiming]],
                     deadline: float) -> RelaxValue:
    """Combine per-``vbar`` path optima into the relaxation value.

    ``best`` maps each idle candidate to its optimal :class:`PathTiming`, or
    None when no path through it fits the deadline.  The no-idle branch must
    be solvable, otherwise no route fits at all and the instance is
    infeasible.
    """
    if best.get(0) is None:
        raise InfeasibleInstanceError(
            "no route fits the operational deadline")
    top = top_bt = None
    for vbar in coeffs.idle_set:
        bt = best.get(vbar)
        if bt is None:
            continue
        gain_term = deadline * coeffs.idle_gain[vbar] if vbar != 0 else 0.0
        tot = gain_term + bt.value
        if top is None or tot > top:
            top, top_bt = tot, bt
    return RelaxValue(value=coeffs.constant + top, best=top_bt)


@dataclass(frozen=True)
class CutCoeffs:
    """Affine underestimator of the dual function.

    ``coverage`` is the per-target coverage delivered by the generating
    solution; the cut reads ``(required - coverage) . lam +
    priorities . coverage`` and is tight at the multiplier vector the
    solution was computed for.
    """

    coverage: np.ndarray
    required: np.ndarray
    priorities: np.ndarray

    @property
    def gradient(self) -> np.ndarray:
        return self.required - self.coverage

    @property
    def offset(self) -> float:
        return float(self.priorities @ self.coverage)

    def value_at(self, lam: np.ndarray) -> float:
        return float(self.gradient @ lam) + self.offset


def make_cut(coeffs: RelaxCoeffs, timing: PathTiming, table: ArcIndexTable,
             deadline: float) -> CutCoeffs:
    """Build the cut generated by one relaxation solution.

    The per-target coverage of the solution (idle time is the deadline
    remainder when an idle stop is used) is exactly the cut's coefficient
    vector.
    """
    vbar = timing.vbar
    idle_cov = table.waypoint_coverage_vector(vbar)
    coverage = deadline * idle_cov.copy() if vbar != 0 else np.zeros(len(table.target_ids))
    for k, t in zip(table.arc_ids(timing.nodes), timing.times):
        coverage = coverage + (table.coverage_rate[k] - idle_cov) * t
    return CutCoeffs(coverage=coverage, required=table.required.copy(),
                     priorities=table.priorities.copy())
