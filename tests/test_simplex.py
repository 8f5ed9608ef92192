import itertools
import random

import numpy as np
import pytest

from coverage_routing.simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED,
                                      dense_lp_solve)


def vertex_enum_max(c, A, b, bounds):
    """Brute-force oracle: enumerate basic solutions from every square
    subsystem of active constraints.  Returns the best feasible objective or
    None when nothing is feasible."""
    c = np.asarray(c, dtype=float)
    n = len(c)
    rows = list(np.asarray(A, dtype=float)) if len(A) else []
    rhs = list(np.asarray(b, dtype=float)) if len(A) else []
    for j, (lo, hi) in enumerate(bounds):
        e = np.zeros(n)
        e[j] = -1.0
        rows.append(e)
        rhs.append(-lo)
        if hi is not None:
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(e)
            rhs.append(hi)
    rows = np.array(rows)
    rhs = np.array(rhs)

    def feasible(x):
        return np.all(rows @ x <= rhs + 1e-8)

    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        M = rows[list(combo)]
        r = rhs[list(combo)]
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, r)
        if feasible(x):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    return best


class TestBasics:
    def test_single_variable_upper_bound(self):
        res = dense_lp_solve([1.0], [[1.0]], [1.0])
        assert res.status == OPTIMAL
        assert res.x[0] == pytest.approx(1.0, abs=1e-12)
        assert res.objective == pytest.approx(1.0, abs=1e-12)

    def test_contradictory_bounds_certificate(self):
        res = dense_lp_solve([1.0], [], [], bounds=[(2.0, 1.0)])
        assert res.status == INFEASIBLE
        assert res.farkas is not None

    def test_infeasible_row_certificate(self):
        # x <= -1 with x >= 0
        res = dense_lp_solve([1.0], [[1.0]], [-1.0])
        assert res.status == INFEASIBLE
        u = res.farkas
        assert u is not None
        A_all = np.array([[1.0]])
        b_all = np.array([-1.0])
        assert np.all(u >= 0)
        assert np.all(A_all.T @ u >= -1e-9)
        assert u @ b_all < -1e-9

    def test_unbounded(self):
        res = dense_lp_solve([1.0], [], [])
        assert res.status == UNBOUNDED

    def test_shifted_lower_bounds(self):
        res = dense_lp_solve([1.0], [[1.0]], [4.0], bounds=[(2.0, 5.0)])
        assert res.status == OPTIMAL
        assert res.x[0] == pytest.approx(4.0, abs=1e-9)

    def test_beale_degenerate_cycle_guard(self):
        # classic cycling-prone tableau; must settle at 1/20
        c = [0.75, -150.0, 0.02, -6.0]
        A = [[0.25, -60.0, -0.04, 9.0],
             [0.5, -90.0, -0.02, 3.0],
             [0.0, 0.0, 1.0, 0.0]]
        b = [0.0, 0.0, 1.0]
        res = dense_lp_solve(c, A, b)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(0.05, abs=1e-9)


class TestAgainstVertexEnumeration:
    def test_random_small_lps(self):
        rng = random.Random(99)
        n_checked = 0
        # enumeration cost explodes with n, so most trials stay small and a
        # few exercise the full n = 8 contract
        sizes = [(rng.randint(1, 5), rng.randint(1, 6)) for _ in range(90)]
        sizes += [(rng.randint(6, 8), rng.randint(1, 2)) for _ in range(8)]
        for n, m in sizes:
            A = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(m)]
            b = [rng.uniform(-2, 4) for _ in range(m)]
            c = [rng.uniform(-3, 3) for _ in range(n)]
            # finite box keeps the oracle's enumeration bounded
            bounds = [(0.0, rng.uniform(0.5, 5.0)) for _ in range(n)]
            mine = dense_lp_solve(c, A, b, bounds=bounds)
            ref = vertex_enum_max(c, A, b, bounds)
            if ref is None:
                assert mine.status == INFEASIBLE
            else:
                assert mine.status == OPTIMAL
                assert mine.objective == pytest.approx(ref, rel=1e-7, abs=1e-7)
                n_checked += 1
        assert n_checked > 60
