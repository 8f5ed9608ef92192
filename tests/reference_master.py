"""References for the master projection.

A full-row primal active-set walk over ``{x : G x <= h}``, with every bound
``x <= 0`` an ordinary row of ``G``, started from a feasible point with an
empty working set: ``coverage_routing.bundle`` projects by a dual
active-set method that needs no feasible start, and tests compare the two
projections.

``project_dual`` is that dual method as it ran before the cut pool, with
numpy bookkeeping in every step; tests compare the package's projection
with it byte for byte."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from coverage_routing import bundle

#: relative step below which the walk has settled, and the step cap after
#: which it is returned inexactly
PROJECTION_TOL = 1e-10
PROJECTION_MAX_STEPS = 1000


def project_full_rows(center: np.ndarray, G: np.ndarray, h: np.ndarray,
                      start: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, List[int], bool]:
    """Projection of ``center`` onto ``{x : G x <= h}`` from the feasible
    point ``start``: the projection, the multipliers of the rows of ``G``,
    the final working set and an exactness flag."""
    x = start.astype(float).copy()
    n = len(center)
    work: List[int] = []
    P = None  # pinv(G[work]), None while out of date
    p = np.zeros(n)
    for _ in range(PROJECTION_MAX_STEPS):
        if work:
            if P is None:
                A = G[work]
                P = np.linalg.pinv(A, rcond=1e-12)
            y = center + P @ (h[work] - A @ center)
        else:
            y = center.copy()
        p = y - x
        scale = max(1.0, float(np.max(np.abs(x))))
        if np.max(np.abs(p)) <= PROJECTION_TOL * scale:
            g = 2.0 * (x - center)
            if work:
                mu_w, *_ = np.linalg.lstsq(A.T, -g, rcond=None)
            else:
                mu_w = np.zeros(0)
            if mu_w.size == 0 or mu_w.min() >= -1e-9:
                mu = np.zeros(len(G))
                mu[work] = np.where(mu_w > 0.0, mu_w, 0.0)
                return x, mu, work, True
            work.pop(int(np.argmin(mu_w)))
            P = None
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
                row = G[blocking]
                coef = P.T @ row
                ortho = row - A.T @ coef
                if np.linalg.norm(ortho) <= 1e-9 * max(np.linalg.norm(row), 1.0):
                    # nearly dependent: swap out the most parallel member
                    work.pop(int(np.argmax(np.abs(coef))))
            work.append(blocking)
            P = None
    if not np.all(np.isfinite(x)) or float(np.max(G @ x - h, initial=0.0)) > 1e-6:
        raise RuntimeError(
            f"projection lost feasibility (|work|={len(work)}, "
            f"last step {np.max(np.abs(p)):.3e})")
    return x, np.zeros(len(G)), work, False


def project_with_bound_rows(center: np.ndarray, C: np.ndarray, d: np.ndarray,
                            start: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray, List[int], bool]:
    """``project_full_rows`` on ``{x : C x <= d, x <= 0}`` with the bounds
    stacked under the cuts."""
    m = len(center)
    G = np.vstack([C, np.eye(m)])
    h = np.concatenate([d, np.zeros(m)])
    return project_full_rows(center, G, h, start)


def project_dual(center: np.ndarray, C: np.ndarray, d: np.ndarray
                 ) -> Tuple[Optional[np.ndarray], np.ndarray, List[int], bool]:
    """The dual active-set projection of ``center`` onto ``{x : C x <= d,
    x <= 0}`` one step at a time on numpy arrays, as the package computed it
    before its cut pool: it stacks and scales the cuts on every call.  It
    returns the projection (None on an empty set or with no verdict), the
    multipliers or weights of the rows ``[C; I]``, the final working set
    and an exactness flag, and reads the tolerances and the step cap from
    ``coverage_routing.bundle``."""
    k, m = C.shape
    norms = np.sqrt(np.einsum("ij,ij->i", C, C))
    norms[norms == 0.0] = 1.0
    # the rows of [C; I] at unit norm, with their right-hand sides
    A = np.vstack([C / norms[:, None], np.eye(m)])
    b = np.concatenate([d / norms, np.zeros(m)])
    abs_b = np.abs(b)
    x = center.astype(float)
    free = x != 0.0
    u_b = np.zeros(m)  # multipliers of the fixed coordinates, 0 elsewhere
    work: List[int] = []
    u_w = np.zeros(0)
    Aw = np.zeros((0, m))
    p, u_p = -1, 0.0  # the row being added, and its multiplier so far

    def active() -> List[int]:
        return work + (k + np.flatnonzero(~free)).tolist()

    def over_rows(on_work: np.ndarray, on_bounds: np.ndarray) -> np.ndarray:
        # values per working row of A, as values per row of [C; I]
        out = np.zeros(k + m)
        out[work] = on_work / norms[work]
        out[k:] = on_bounds
        return out

    for _ in range(bundle.PROJECTION_MAX_STEPS):
        if p < 0:
            # fixed coordinates are exactly 0, so only working cuts can be
            # violated among the working rows
            scale = max(1.0, float(np.max(np.abs(x))))
            v = A @ x - b
            v[v <= bundle.PROJECTION_TOL * np.maximum(scale, abs_b)] = -np.inf
            p = int(np.argmax(v))
            if v[p] == -np.inf:
                return x, over_rows(2.0 * u_w, 2.0 * u_b), active(), True
            u_p = 0.0
            if p in work:
                # a working row that rounding has let slip is added anew,
                # keeping its multiplier
                i = work.index(p)
                u_p = float(u_w[i])
                del work[i]
                u_w, Aw = np.delete(u_w, i), np.delete(Aw, i, axis=0)
        a_p, v_p = A[p], float(A[p] @ x - b[p])
        if work:
            Af = Aw * free
            try:
                r_w = np.linalg.solve(Af @ Aw.T, Af @ a_p)
            except np.linalg.LinAlgError:
                # rounding has made the working cuts dependent over the free
                # coordinates: no weights, so no verdict
                return None, np.zeros(k + m), active(), False
            s = a_p - Aw.T @ r_w
        else:
            r_w, s = np.zeros(0), a_p
        # s is z on the free coordinates and r on the fixed ones
        z = np.where(free, s, 0.0)
        r_b = np.where(free, 0.0, s)
        ratio_w = np.divide(u_w, r_w, out=np.full(len(u_w), np.inf),
                            where=r_w > bundle._DUAL_STEP_EPS)
        ratio_b = np.divide(u_b, r_b, out=np.full(m, np.inf),
                            where=r_b > bundle._DUAL_STEP_EPS)
        t1 = min(float(ratio_w.min(initial=np.inf)), float(ratio_b.min()))
        # z is a difference of terms as large as r, and as inexact; with as
        # many working cuts as free coordinates it is 0
        zz = float(z @ z)
        moves = (len(work) < np.count_nonzero(free) and
                 zz > (bundle._ZERO_STEP * (1.0 + float(np.abs(r_w).sum()))) ** 2)
        if not moves and t1 == np.inf:
            weights = over_rows(-r_w, -r_b)
            weights[p] += 1.0 / norms[p] if p < k else 1.0
            return None, weights, active(), True
        t2 = max(v_p, 0.0) / zz if moves else np.inf
        t = min(t1, t2)
        if moves:
            x = x - t * z
        u_w = u_w - t * r_w
        u_b = u_b - t * r_b
        u_p += t
        if t2 <= t1:
            if p < k:
                work.append(p)
                u_w = np.append(u_w, u_p)
                Aw = np.vstack([Aw, a_p])
            else:
                free[p - k] = False
                x[p - k] = 0.0
                u_b[p - k] = u_p
            p = -1
            continue
        keep = ratio_w != t1
        if not keep.all():
            work = [w for w, kept in zip(work, keep) if kept]
            u_w, Aw = u_w[keep], Aw[keep]
        gone = ratio_b == t1
        free |= gone
        u_b[gone] = 0.0
    # the step cap: the iterate is no projection, and it may have run off
    return None, np.zeros(k + m), active(), False
