"""Level bundle method for the dual of the coverage-requirement relaxation.

The dual function (min over multipliers ``lam <= 0``) is evaluated exactly by
the labeling solvers; each evaluation yields an affine cut (a gradient and
an offset).  The next iterate is the projection of the current one onto the
level set ``{lam <= 0 : all cuts <= f_lev}`` with ``f_lev = phi*LB +
(1-phi)*UB``; the master sees only the iterate, the cuts and ``f_lev``.  An
empty level set certifies ``LB = f_lev``; otherwise the new iterate is
evaluated, a cut is added, and ``UB`` shrinks toward the dual value.  ``LB``
starts from a greedy primal repair of the first relaxation solution (any
feasible primal value lower-bounds the dual optimum by weak duality) or a
deep floor when no repair is feasible.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import MasterNumericsError
from .instance import (ArcIndexTable, Instance, PathSolution,
                       build_index_table)
from .labeling_case1 import solve_case1
from .labeling_case2 import RATIO_SLOPE, solve_case2
from .relaxation import (CASE_I, CutCoeffs, PathTiming, RelaxValue,
                         assemble_f_value, build_coeffs, make_cut)
from .simplex import OPTIMAL, dense_lp_solve

LB_FLOOR = -1e9

CONVERGED = "converged"
ITERATION_LIMIT = "iteration-limit"
TIME_LIMIT = "time-limit"

MASTER_FEASIBLE = "feasible"
MASTER_INFEASIBLE = "infeasible"

#: projection walk: relative step below which the iterate has settled, and
#: the step cap after which it is returned inexactly
PROJECTION_TOL = 1e-10
PROJECTION_MAX_STEPS = 1000


@dataclass
class TraceRow:
    iteration: int
    f_value: Optional[float]
    lb: float
    ub: float
    f_lev: Optional[float]
    master_status: str
    wall_time: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MasterResult:
    status: str
    lam: Optional[np.ndarray]
    active: Tuple[int, ...] = ()
    exact: bool = True


# ---------------------------------------------------------------------------
# projection master


def _project_onto_polyhedron(center: np.ndarray, G: np.ndarray,
                             h: np.ndarray, start: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray, List[int], bool]:
    """Projection of ``center`` onto ``{x : G x <= h}`` by a primal active-set
    method started from the feasible point ``start``.

    Returns the projection, the constraint multipliers, the final working
    set, and an exactness flag.  The working set is kept at full row rank: a
    blocking row that is nearly dependent on it (two almost-parallel cuts,
    say) swaps out its most parallel colleague instead of stacking up, which
    keeps the equality subproblems well conditioned.  If the walk still fails
    to settle, the current iterate is returned inexactly; it is always
    feasible, which is all the level loop needs for validity."""
    x = start.astype(float).copy()
    n = len(center)
    work: List[int] = []
    p = np.zeros(n)
    for _ in range(PROJECTION_MAX_STEPS):
        if work:
            A = G[work]
            y = center + np.linalg.pinv(A, rcond=1e-12) @ (h[work] - A @ center)
        else:
            y = center.copy()
        p = y - x
        scale = max(1.0, float(np.max(np.abs(x))))
        if np.max(np.abs(p)) <= PROJECTION_TOL * scale:
            g = 2.0 * (x - center)
            if work:
                A = G[work]
                mu_w, *_ = np.linalg.lstsq(A.T, -g, rcond=None)
            else:
                mu_w = np.zeros(0)
            if mu_w.size == 0 or mu_w.min() >= -1e-9:
                mu = np.zeros(len(G))
                mu[work] = np.where(mu_w > 0.0, mu_w, 0.0)
                return x, mu, work, True
            work.pop(int(np.argmin(mu_w)))
            continue
        # ratio test: the first row outside the working set to block the step
        Gp = G @ p
        resid = h - G @ x
        free = Gp > 1e-11 * scale
        free[work] = False
        rows = np.flatnonzero(free)
        ratios = np.where(resid[rows] < 0.0, 0.0, resid[rows]) / Gp[rows]
        below = np.flatnonzero(ratios < 1.0)
        alpha, blocking = 1.0, -1
        if below.size:
            k = below[np.argmin(ratios[below])]
            alpha, blocking = ratios[k], int(rows[k])
        x = x + alpha * p
        if blocking >= 0:
            if work:
                A = G[work]
                row = G[blocking]
                coef, *_ = np.linalg.lstsq(A.T, row, rcond=None)
                ortho = row - A.T @ coef
                if np.linalg.norm(ortho) <= 1e-9 * max(np.linalg.norm(row), 1.0):
                    # nearly dependent: swap out the most parallel member
                    work.pop(int(np.argmax(np.abs(coef))))
            work.append(blocking)
    if not np.all(np.isfinite(x)) or float(np.max(G @ x - h, initial=0.0)) > 1e-6:
        raise MasterNumericsError(
            f"projection lost feasibility (|work|={len(work)}, "
            f"last step {np.max(np.abs(p)):.3e})")
    return x, np.zeros(len(G)), work, False


def kkt_residual(center: np.ndarray, G: np.ndarray, h: np.ndarray,
                 x: np.ndarray, mu: np.ndarray) -> float:
    """Worst violation of the projection optimality system (stationarity,
    primal/dual feasibility, complementarity)."""
    station = np.max(np.abs(2.0 * (x - center) + G.T @ mu)) if len(G) else \
        np.max(np.abs(2.0 * (x - center)))
    primal = max(0.0, float(np.max(G @ x - h))) if len(G) else 0.0
    dual = max(0.0, float(-mu.min())) if mu.size else 0.0
    comp = float(np.max(np.abs(mu * (G @ x - h)))) if len(G) else 0.0
    return max(station, primal, dual, comp)


def solve_master(lam_hat: np.ndarray, cuts: Sequence[CutCoeffs],
                 f_lev: float) -> MasterResult:
    """One projection master solve: project ``lam_hat`` onto the level set
    ``{lam <= 0 : every cut <= f_lev}``.

    Feasibility of the level set is decided first by a phase-1 linear
    program; when empty, the caller may lift ``LB`` to ``f_lev``.
    """
    if not cuts:
        raise ValueError("cut pool is empty")
    m = len(lam_hat)
    grads = np.array([c.gradient for c in cuts])
    rhs = np.array([f_lev - c.offset for c in cuts])
    G = np.vstack([grads, np.eye(m)])
    h = np.concatenate([rhs, np.zeros(m)])

    viol = G @ lam_hat - h
    if float(viol.max(initial=0.0)) <= 1e-12:
        return MasterResult(MASTER_FEASIBLE, lam_hat.copy())

    # phase 1 in mu = -lam >= 0 space
    lp = dense_lp_solve(np.zeros(m), -grads, rhs)
    if lp.status != OPTIMAL:
        return MasterResult(MASTER_INFEASIBLE, None)
    start = -lp.x

    x, mu, work, exact = _project_onto_polyhedron(lam_hat, G, h, start)
    x = np.minimum(x, 0.0)
    return MasterResult(MASTER_FEASIBLE, x, tuple(sorted(work)), exact)


# ---------------------------------------------------------------------------
# dual function evaluation


def evaluate_dual_function(table: ArcIndexTable, lam: Sequence[float],
                           case: str, ratio_mode: str = RATIO_SLOPE,
                           use_dominance: bool = True) -> Tuple[RelaxValue, CutCoeffs]:
    """Exact dual-function value at ``lam``: the best path over the idle
    candidates, plus the cut it generates.  One labeling call answers every
    candidate: a table fill in case I, the screened search of
    ``labeling_case2`` in case II.

    ``ratio_mode`` and ``use_dominance`` steer the case-II search only."""
    coeffs = build_coeffs(table, lam, case)
    if case == CASE_I:
        routes = solve_case1(coeffs)
    else:
        routes = solve_case2(coeffs, ratio_mode, use_dominance)
    value = assemble_f_value(coeffs, routes.results)
    return value, make_cut(value.best, table)


def _route_solution(table: ArcIndexTable, nodes: Tuple[int, ...],
                    times: Sequence[float], vbar: int, idle: float,
                    cov: np.ndarray) -> PathSolution:
    """A timed route with its per-target coverage ``cov``; ``vbar`` 0 means
    no idle stop."""
    return PathSolution(
        nodes=nodes,
        times=tuple(map(float, times)),
        idle_node=vbar if vbar else None,
        idle_time=idle,
        objective=float(table.priorities @ cov),
        per_target_coverage=tuple(zip(table.target_ids, map(float, cov))),
    )


def timing_to_solution(timing: PathTiming,
                       table: ArcIndexTable) -> PathSolution:
    """Materialize a relaxation witness as a route: with an idle stop the
    whole deadline remainder is spent there."""
    T = table.instance.deadline
    idle = max(0.0, T - float(sum(timing.times))) if timing.vbar else 0.0
    cov = table.route_coverage(timing.nodes, timing.times, timing.vbar, idle)
    return _route_solution(table, timing.nodes, timing.times, timing.vbar,
                           idle, cov)


def _greedy_primal_repair(table: ArcIndexTable, witness: PathTiming
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
        if total > T + 1e-9:
            continue
        for vbar in [0] + interior:
            idle = (T - total) if vbar else 0.0
            cov = table.route_coverage(nodes, times, vbar, idle)
            if np.all(cov >= table.required - 1e-9):
                sol = _route_solution(table, nodes, times, vbar, idle, cov)
                if best_sol is None or sol.objective > best_sol.objective:
                    best_sol = sol
    if best_sol is None:
        return LB_FLOOR, None
    return best_sol.objective, best_sol


# ---------------------------------------------------------------------------
# main loop


@dataclass
class DualResult:
    status: str
    dual_bound: float
    lower_bound: float
    initial_bound: float
    best_lam: np.ndarray
    iterations: int
    trace: Tuple[TraceRow, ...]
    solution: PathSolution
    repair_solution: Optional[PathSolution]
    #: one entry per UB improvement: (iteration, multipliers, value, witness)
    ub_history: Tuple[Tuple[int, np.ndarray, float, PathTiming], ...]


def run_dual(instance: Instance, case: str, phi: float = 0.5,
             tol: float = 1e-4, *, iter_limit: int = 1000,
             time_limit: Optional[float] = None,
             ratio_mode: str = RATIO_SLOPE,
             table: Optional[ArcIndexTable] = None) -> DualResult:
    """Minimize the dual bound over multipliers ``<= 0``.

    Stops when ``UB - LB <= tol * max(1, |UB|)`` or a limit is hit; the
    returned ``dual_bound`` (the best evaluated value) is always a valid
    bound on the primal optimum.  The trace keeps one row per iteration plus
    an initialization row.  ``ratio_mode`` applies to case II only; the
    case-II search always prunes by dominance.  ``time_limit`` (seconds,
    ``inf`` allowed) must be positive and ``iter_limit`` at least 1.  A
    given ``table`` must be the instance's index table.
    """
    if not (0.0 < phi < 1.0):
        raise ValueError(f"phi must sit strictly inside (0, 1), got {phi}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if iter_limit < 1:
        raise ValueError(f"iteration limit must be at least 1, got {iter_limit}")
    if time_limit is not None and not time_limit > 0:  # NaN fails too
        raise ValueError(f"time limit must be positive, got {time_limit}")
    table = table or build_index_table(instance)
    if table.instance != instance:
        raise ValueError("the index table was built for another instance")
    t0 = time.monotonic()

    lam0 = np.zeros(len(table.target_ids))
    value0, cut0 = evaluate_dual_function(table, lam0, case, ratio_mode)
    lb0, repair = _greedy_primal_repair(table, value0.best)
    lam_hat, cuts = lam0, [cut0]
    lb, ub = min(lb0, value0.value), value0.value
    best_lam, best_value = lam0.copy(), value0
    ub_history = [(0, lam0.copy(), value0.value, value0.best)]
    trace = [TraceRow(0, value0.value, lb, ub, None, "initial",
                      time.monotonic() - t0)]

    def converged() -> bool:
        return ub - lb <= tol * max(1.0, abs(ub))

    status = ITERATION_LIMIT
    iterations = 0
    while iterations < iter_limit:
        if converged():
            status = CONVERGED
            break
        if time_limit is not None and time.monotonic() - t0 > time_limit:
            status = TIME_LIMIT
            break
        iterations += 1
        f_lev = phi * lb + (1.0 - phi) * ub
        master = solve_master(lam_hat, cuts, f_lev)
        if master.status == MASTER_INFEASIBLE:
            # empty level set: no multiplier reaches f_lev, so it is a lower
            # bound on the dual value
            lb = f_lev
            trace.append(TraceRow(iterations, None, lb, ub, f_lev,
                                  MASTER_INFEASIBLE, time.monotonic() - t0))
            continue
        lam_hat = master.lam
        value, cut = evaluate_dual_function(table, master.lam, case,
                                            ratio_mode)
        cuts.append(cut)
        if value.value < ub:
            ub = value.value
            best_lam = master.lam.copy()
            best_value = value
            ub_history.append((iterations, master.lam.copy(), value.value,
                               value.best))
        trace.append(TraceRow(iterations, value.value, lb, ub, f_lev,
                              MASTER_FEASIBLE, time.monotonic() - t0))
    if converged():
        status = CONVERGED

    return DualResult(
        status=status,
        dual_bound=ub,
        lower_bound=lb,
        initial_bound=value0.value,
        best_lam=best_lam,
        iterations=iterations,
        trace=tuple(trace),
        solution=timing_to_solution(best_value.best, table),
        repair_solution=repair,
        ub_history=tuple(ub_history),
    )
