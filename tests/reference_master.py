"""Full-row reference for the master projection: the primal active-set walk
over ``{x : G x <= h}`` with every bound ``x <= 0`` an ordinary row of ``G``,
started with an empty working set.  ``coverage_routing.bundle`` replaced it
with a walk that keeps the bounds as fixed coordinates; tests compare the two
projections and count the factorisations each makes."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from coverage_routing.bundle import PROJECTION_MAX_STEPS, PROJECTION_TOL
from coverage_routing.errors import MasterNumericsError


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
        raise MasterNumericsError(
            f"projection lost feasibility (|work|={len(work)}, "
            f"last step {np.max(np.abs(p)):.3e})")
    return x, np.zeros(len(G)), work, False


def project_with_bound_rows(center: np.ndarray, C: np.ndarray, d: np.ndarray,
                            start: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray, List[int], bool]:
    """``project_full_rows`` on ``{x : C x <= d, x <= 0}`` with the bounds
    stacked under the cuts, as the master built it: a drop-in for
    ``bundle._project_onto_polyhedron``."""
    m = len(center)
    G = np.vstack([C, np.eye(m)])
    h = np.concatenate([d, np.zeros(m)])
    return project_full_rows(center, G, h, start)
