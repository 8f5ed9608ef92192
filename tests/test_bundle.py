import math
import random

import numpy as np
import pytest

from conftest import make_instance, random_desk_instance
from coverage_routing.bundle import (CONVERGED, MASTER_INFEASIBLE,
                                     DualState, _project_onto_polyhedron,
                                     kkt_residual, run_dual, solve_master,
                                     timing_to_solution)
from coverage_routing.errors import InfeasibleInstanceError
from coverage_routing.instance import (ValidateOptions, build_index_table,
                                       generate_instance, validate_solution)
from coverage_routing.oracle import oracle_primal
from coverage_routing.relaxation import CutCoeffs, build_coeffs


def _cut(gradient, offset):
    # synthesize a cut with the requested affine form
    g = np.asarray(gradient, dtype=float)
    required = np.zeros_like(g)
    priorities = np.ones_like(g)
    coverage = -g  # required - coverage = gradient
    # choose priorities so that priorities @ coverage = offset
    s = float(priorities @ coverage)
    if abs(s) > 1e-12:
        priorities = priorities * (offset / s)
    elif abs(offset) > 1e-12:
        coverage = np.ones_like(g)
        required = coverage + g
        priorities = np.full_like(g, offset / float(coverage.sum()))
    return CutCoeffs(coverage=coverage, required=required,
                     priorities=priorities)


class TestLevelParameter:
    def test_midpoint(self):
        state = DualState(lam_hat=np.zeros(2), cuts=[], lb=0.0, ub=10.0,
                          phi=0.5, best_lam=np.zeros(2))
        assert state.level() == 5.0


class TestSolveMaster:
    def test_feasible_center_projects_to_itself(self):
        lam = np.array([-1.0, -2.0])
        cut = _cut([1.0, 1.0], 0.0)  # cut value at lam = -3
        state = DualState(lam_hat=lam, cuts=[cut], lb=-10.0, ub=0.0,
                          phi=0.5, best_lam=lam)
        # f_lev = -5 and the cut sits at -3 > -5? then lam is infeasible;
        # flip: lb=0, ub=0 would converge. pick level above the cut value
        state.lb = -2.0
        state.ub = 0.0  # f_lev = -1 < cut(-3)? no: -1 > -3, feasible
        res = solve_master(state)
        assert res.status == "feasible"
        assert np.allclose(res.lam, lam)

    def test_empty_level_set_reported(self):
        # single cut with nonpositive gradient: minimum over lam <= 0 is at 0
        cut = _cut([-1.0, -0.5], 4.0)
        state = DualState(lam_hat=np.zeros(2), cuts=[cut], lb=0.0, ub=2.0,
                          phi=0.5, best_lam=np.zeros(2))
        # cut minimum over lam <= 0 equals 4 > f_lev = 1
        res = solve_master(state)
        assert res.status == MASTER_INFEASIBLE

    def test_projection_kkt_residuals(self, rng):
        for _ in range(25):
            m = 5
            n_cuts = rng.randint(1, 8)
            G = np.array([[rng.uniform(-2, 2) for _ in range(m)]
                          for _ in range(n_cuts + m)])
            G[n_cuts:] = np.eye(m)
            h = np.array([rng.uniform(-1, 3) for _ in range(n_cuts)]
                         + [0.0] * m)
            center = np.array([rng.uniform(-3, 1) for _ in range(m)])
            # find a feasible start: mu-space LP mirror of the master
            from coverage_routing.simplex import OPTIMAL, dense_lp_solve
            lp = dense_lp_solve(np.zeros(m), -G[:n_cuts], h[:n_cuts])
            if lp.status != OPTIMAL:
                continue
            x, mu, work, exact = _project_onto_polyhedron(center, G, h, -lp.x)
            assert exact
            assert kkt_residual(center, G, h, x, mu) <= 1e-8


class TestRunDual:
    def test_zero_requirements_converge_immediately(self):
        inst = generate_instance(61, 4, 5, coverage_radius=25.0,
                                 min_coverage=0.0)
        table = build_index_table(inst)
        res = run_dual(inst, "I", table=table)
        assert res.status == CONVERGED
        assert res.iterations == 0
        assert res.dual_bound == pytest.approx(res.initial_bound)
        assert np.all(res.best_lam == 0.0)

    def test_infeasible_deadline_raises(self):
        inst = make_instance([("depot", (0.0, 0.0)), (50.0, 0.0)],
                             [(25.0, 2.0)], deadline=1.0, coverage_radius=5.0)
        with pytest.raises(InfeasibleInstanceError):
            run_dual(inst, "II")

    @pytest.mark.parametrize("case", ["I", "II"])
    def test_battery_trace_and_weak_duality(self, rng, case):
        done = 0
        while done < 6:
            inst = random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6),
                                        case=case)
            table = build_index_table(inst)
            try:
                primal = oracle_primal(inst, table).value
            except InfeasibleInstanceError:
                continue
            res = run_dual(inst, case, tol=1e-4, iter_limit=300, table=table)
            assert res.status == CONVERGED
            assert res.dual_bound - res.lower_bound <= \
                1e-4 * max(1.0, abs(res.dual_bound)) + 1e-12
            assert res.dual_bound >= primal - 1e-6
            assert res.dual_bound <= res.initial_bound + 1e-9
            lbs = [r.lb for r in res.trace]
            ubs = [r.ub for r in res.trace]
            assert all(a <= b + 1e-12 for a, b in zip(lbs, lbs[1:]))
            assert all(a >= b - 1e-12 for a, b in zip(ubs, ubs[1:]))
            for prev, row in zip(res.trace, res.trace[1:]):
                assert prev.lb - 1e-12 <= row.f_lev <= prev.ub + 1e-12
                if row.master_status == MASTER_INFEASIBLE:
                    assert row.lb == row.f_lev
            done += 1

    def test_ub_updates_are_witnessed(self, rng):
        while True:
            inst = random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6),
                                        case="I")
            table = build_index_table(inst)
            try:
                oracle_primal(inst, table)
                break
            except InfeasibleInstanceError:
                continue
        res = run_dual(inst, "I", tol=1e-4, iter_limit=300, table=table)
        assert len(res.ub_history) >= 1
        for (it, lam, value, timing) in res.ub_history:
            coeffs = build_coeffs(table, inst, lam, "I")
            net = coeffs.net_rates(timing.vbar)
            path_val = sum(net[table.arc_id[a]] * t for a, t in
                           zip(zip(timing.nodes[:-1], timing.nodes[1:]),
                               timing.times))
            gain = inst.deadline * coeffs.idle_gain[timing.vbar] \
                if timing.vbar else 0.0
            assert coeffs.constant + gain + path_val == \
                pytest.approx(value, rel=1e-9, abs=1e-8)

    def test_witness_solutions_validate(self, rng):
        for _ in range(4):
            inst = random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6),
                                        case="II")
            table = build_index_table(inst)
            try:
                res = run_dual(inst, "II", tol=1e-4, iter_limit=200,
                               table=table)
            except InfeasibleInstanceError:
                continue
            report = validate_solution(inst, res.solution, table=table)
            assert report.ok
            if res.repair_solution is not None:
                rep = validate_solution(
                    inst, res.repair_solution,
                    ValidateOptions(enforce_coverage=True), table=table)
                assert rep.ok

    def test_bad_parameters(self):
        inst = generate_instance(61, 3, 4, coverage_radius=25.0)
        with pytest.raises(ValueError):
            run_dual(inst, "I", phi=1.0)
        with pytest.raises(ValueError):
            run_dual(inst, "I", tol=0.0)
