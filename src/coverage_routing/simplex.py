"""Dense two-phase simplex for the small linear programs used in this package.

Solves ``max c.x  s.t.  A x <= b,  lo <= x <= hi`` for problems with at
most a few hundred rows and columns.  Everything is kept in one dense tableau;
entering columns follow Dantzig's rule with a pivot-count guard that falls
back to Bland's rule if cycling is suspected.  Infeasible systems come back
with a Farkas certificate ``y >= 0`` satisfying ``y.A >= 0`` and ``y.b < 0``
for the shifted system (variables measured from their lower bounds, upper
bounds appended as rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import CyclingError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_EPS = 1e-10
_FEAS_TOL = 1e-9


@dataclass
class LpResult:
    status: str
    x: Optional[np.ndarray]
    objective: Optional[float]
    farkas: Optional[np.ndarray] = None
    pivots: int = 0


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    piv = T[row]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * piv


def _run_simplex(T: np.ndarray, basis: np.ndarray, n_cols: int,
                 allowed: np.ndarray) -> Tuple[str, int]:
    """Minimize the objective encoded in the last row of tableau ``T``.

    ``allowed`` masks columns that may enter the basis.  Returns the final
    status and the pivot count.  The guard switches to Bland's rule after a
    generous number of Dantzig pivots and errors out if that also stalls.
    """
    m = T.shape[0] - 1
    dantzig_cap = 50 * (m + n_cols) + 200
    bland_cap = dantzig_cap * 4
    pivots = 0
    while True:
        costs = T[-1, :n_cols]
        if m == 0:
            improving = np.flatnonzero(allowed & (costs < -_PIVOT_EPS))
            return (UNBOUNDED if len(improving) else OPTIMAL), pivots
        if pivots < dantzig_cap:
            col = -1
            best = -_PIVOT_EPS
            for jj in range(n_cols):
                if allowed[jj] and costs[jj] < best:
                    best = costs[jj]
                    col = jj
        else:
            col = -1
            for jj in range(n_cols):
                if allowed[jj] and costs[jj] < -_PIVOT_EPS:
                    col = jj
                    break
        if col < 0:
            return OPTIMAL, pivots

        ratios = np.full(m, np.inf)
        column = T[:m, col]
        rhs = T[:m, -1]
        mask = column > _PIVOT_EPS
        ratios[mask] = rhs[mask] / column[mask]
        row = int(np.argmin(ratios))
        if not np.isfinite(ratios[row]):
            return UNBOUNDED, pivots
        # break ratio ties toward the lowest basis index (anti-cycling help)
        tied = np.flatnonzero(np.abs(ratios - ratios[row]) <= 1e-12)
        if len(tied) > 1:
            row = int(tied[np.argmin(basis[tied])])

        _pivot(T, row, col)
        basis[row] = col
        pivots += 1
        if pivots > bland_cap:
            raise CyclingError(
                f"simplex exceeded {bland_cap} pivots (Bland fallback engaged)")


def dense_lp_solve(c: Sequence[float], A: Sequence[Sequence[float]],
                   b: Sequence[float],
                   bounds: Optional[Sequence[Tuple[float, Optional[float]]]] = None
                   ) -> LpResult:
    """Solve ``max c.x  s.t.  A x <= b,  lo <= x <= hi``.

    ``bounds`` gives one ``(lo, hi)`` pair per variable; ``hi=None`` means
    unbounded above and the default is ``(0, None)``.  Lower bounds must be
    finite.  Returns an :class:`LpResult` whose ``x`` is a basic optimal
    solution, or an infeasibility certificate (see module docstring).
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    A = np.asarray(A, dtype=float).reshape(-1, n) if np.size(A) else np.zeros((0, n))
    b = np.asarray(b, dtype=float).reshape(-1)
    if bounds is None:
        bounds = [(0.0, None)] * n
    lo = np.array([bd[0] for bd in bounds], dtype=float)
    hi = [bd[1] for bd in bounds]
    if not np.all(np.isfinite(lo)):
        raise ValueError("lower bounds must be finite")

    # Shift to z = x - lo >= 0 and append finite upper bounds as rows.
    b_sh = b - A @ lo
    rows = [A]
    rhs = [b_sh]
    for jj, h in enumerate(hi):
        if h is not None:
            row = np.zeros((1, n))
            row[0, jj] = 1.0
            rows.append(row)
            rhs.append(np.array([h - lo[jj]]))
    A_all = np.vstack(rows)
    b_all = np.concatenate(rhs)
    m = A_all.shape[0]

    # Equality form with slacks; flip rows with negative rhs so the rhs
    # column is nonnegative, then start phase 1 from an all-artificial basis.
    sign = np.where(b_all < 0.0, -1.0, 1.0)
    M = np.hstack([A_all * sign[:, None], np.diag(sign)])
    r = b_all * sign
    n_struct = M.shape[1]
    n_cols = n_struct + m  # plus artificials

    T = np.zeros((m + 1, n_cols + 1))
    T[:m, :n_struct] = M
    T[:m, n_struct:n_cols] = np.eye(m)
    T[:m, -1] = r
    # phase-1 objective: minimize sum of artificials
    T[-1, :] = -T[:m, :].sum(axis=0)
    T[-1, n_struct:n_cols] = 0.0
    basis = np.arange(n_struct, n_cols)

    allowed = np.ones(n_cols, dtype=bool)
    status, pivots = _run_simplex(T, basis, n_cols, allowed)
    if status == UNBOUNDED:  # pragma: no cover - phase 1 is always bounded
        raise CyclingError("phase-1 subproblem reported unbounded")
    phase1 = -T[-1, -1]
    if phase1 > _FEAS_TOL:
        # Farkas vector from the phase-1 duals: y_i = 1 - reduced_cost(art_i),
        # mapped back through the row sign flips.
        y = 1.0 - T[-1, n_struct:n_cols]
        u = _verify_farkas(-(sign * y), A_all, b_all)
        return LpResult(INFEASIBLE, None, None, farkas=u, pivots=pivots)

    # Drive any artificial still in the basis out of it (or drop its row).
    keep_rows = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n_struct and keep_rows[i]:
            piv_col = -1
            for jj in range(n_struct):
                if abs(T[i, jj]) > _PIVOT_EPS:
                    piv_col = jj
                    break
            if piv_col >= 0:
                _pivot(T, i, piv_col)
                basis[i] = piv_col
            else:
                keep_rows[i] = False
    if not keep_rows.all():
        live = np.concatenate([np.flatnonzero(keep_rows), [m]])
        T = T[live]
        basis = basis[keep_rows]
        m = len(basis)

    # Phase 2 over structural columns only; the tableau minimizes -c.z.
    obj = np.zeros(n_cols + 1)
    obj[:n] = -c
    T[-1, :] = obj
    for i in range(m):
        if obj[basis[i]] != 0.0:
            T[-1] -= obj[basis[i]] * T[i]
    allowed[n_struct:] = False
    status, p2 = _run_simplex(T, basis, n_cols, allowed)
    pivots += p2
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None, pivots=pivots)

    z = np.zeros(n_struct)
    for i in range(m):
        if basis[i] < n_struct:
            z[basis[i]] = T[i, -1]
    x = z[:n] + lo
    return LpResult(OPTIMAL, x, float(c @ x), pivots=pivots)


def _verify_farkas(u: np.ndarray, A_all: np.ndarray,
                   b_all: np.ndarray) -> Optional[np.ndarray]:
    """Return ``u`` if it certifies infeasibility of ``Ax <= b, x >= 0``."""
    u = np.maximum(u, 0.0)
    if u @ b_all < -_FEAS_TOL and np.all(A_all.T @ u >= -_FEAS_TOL):
        return u
    return None
