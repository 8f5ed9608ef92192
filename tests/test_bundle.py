import dataclasses
import math
import random

import numpy as np
import pytest

from conftest import (case2_search_value, make_instance,
                      random_desk_instance, random_multipliers)
from coverage_routing.bundle import (CONVERGED, MASTER_INFEASIBLE,
                                     _project_onto_polyhedron,
                                     evaluate_dual_function, kkt_residual,
                                     run_dual, solve_master,
                                     timing_to_solution)
from coverage_routing.errors import InfeasibleInstanceError
from coverage_routing.instance import (ValidateOptions, build_index_table,
                                       generate_instance, validate_solution)
from coverage_routing.labeling_case2 import Case2Solver
from coverage_routing.oracle import oracle_primal
from coverage_routing.relaxation import CutCoeffs, build_coeffs


def _cut(gradient, offset):
    return CutCoeffs(np.asarray(gradient, dtype=float), float(offset))


class TestLevelParameter:
    def test_midpoint(self, rng):
        # the first master level is the phi point of the initial bracket;
        # phi = 0.5 puts it exactly at the midpoint
        while True:
            inst = random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6))
            try:
                res = run_dual(inst, "I", phi=0.5, iter_limit=1)
            except InfeasibleInstanceError:
                continue
            if res.iterations == 1:
                break
        init, first = res.trace[0], res.trace[1]
        assert init.lb < init.ub
        assert first.f_lev == 0.5 * init.lb + 0.5 * init.ub


class TestCase2Screen:
    @pytest.fixture
    def searched(self, monkeypatch):
        """The idle candidates a case-II search runs for, in call order."""
        calls = []
        search = Case2Solver.solve

        def counted(solver):
            calls.append(solver.vbar)
            return search(solver)

        monkeypatch.setattr(Case2Solver, "solve", counted)
        return calls

    @staticmethod
    def _compare(rng, searched, count, ratio_mode="slope",
                 use_dominance=True):
        """Screened evaluations of ``count`` random desk evaluations against
        a search for every candidate; returns how many candidates the
        evaluations screened and searched."""
        # at deadline scales 0.03 to 0.1 the deadline-free route fits for
        # some candidates and overruns for others, so both branches run
        screened = searches = compared = 0
        while compared < count:
            inst = random_desk_instance(rng, n_range=(3, 6), m_range=(2, 7),
                                        case="II",
                                        scale_choices=(0.03, 0.05, 0.07, 0.1))
            table = build_index_table(inst)
            m = len(table.target_ids)
            lam = random_multipliers(rng, m) if compared % 2 else np.zeros(m)
            idle = build_coeffs(table, lam, "II").idle_set
            kw = dict(ratio_mode=ratio_mode, use_dominance=use_dominance)
            try:
                ref = case2_search_value(table, inst, lam, **kw)
            except InfeasibleInstanceError:
                with pytest.raises(InfeasibleInstanceError):
                    evaluate_dual_function(table, lam, "II", **kw)
                continue
            before = len(searched)
            value, _ = evaluate_dual_function(table, lam, "II", **kw)
            assert abs(value.value - ref.value) <= \
                1e-8 * max(1.0, abs(ref.value))
            searches += len(searched) - before
            screened += len(idle) - (len(searched) - before)
            compared += 1
        return screened, searches

    def test_screened_evaluation_matches_all_search(self, rng, searched):
        screened, searches = self._compare(rng, searched, 40)
        assert screened and searches

    @pytest.mark.parametrize("ratio_mode", ["slope", "per-distance"])
    @pytest.mark.parametrize("use_dominance", [True, False])
    def test_screen_is_exact_under_both_keys(self, rng, searched, ratio_mode,
                                             use_dominance):
        # a settled candidate's route takes its bound times under either
        # key order, and no route beats its deadline-free value
        screened, searches = self._compare(rng, searched, 15, ratio_mode,
                                           use_dominance)
        assert screened and searches

    def test_unknown_ratio_mode_fails_before_the_screen(self, searched):
        inst = generate_instance(0, 5, 8, case="II")
        table = build_index_table(inst)
        lam = np.zeros(len(table.target_ids))
        evaluate_dual_function(table, lam, "II")
        assert not searched  # the screen settles every candidate
        with pytest.raises(ValueError, match="unknown ratio mode"):
            evaluate_dual_function(table, lam, "II",
                                   ratio_mode="per-time")


class TestSolveMaster:
    def test_feasible_center_projects_to_itself(self):
        lam = np.array([-1.0, -2.0])
        cut = _cut([1.0, 1.0], 0.0)  # cut value at lam = -3
        res = solve_master(lam, [cut], -1.0)  # -3 <= f_lev: lam is feasible
        assert res.status == "feasible"
        assert np.allclose(res.lam, lam)

    def test_empty_level_set_reported(self):
        # single cut with nonpositive gradient: minimum over lam <= 0 is at 0
        cut = _cut([-1.0, -0.5], 4.0)
        # cut minimum over lam <= 0 equals 4 > f_lev = 1
        res = solve_master(np.zeros(2), [cut], 1.0)
        assert res.status == MASTER_INFEASIBLE

    def test_empty_cut_pool_rejected(self):
        with pytest.raises(ValueError):
            solve_master(np.zeros(2), [], 1.0)

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
                # the level is the phi = 0.5 point of the previous bracket
                assert row.f_lev == 0.5 * prev.lb + (1.0 - 0.5) * prev.ub
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
            coeffs = build_coeffs(table, lam, "I")
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

    def test_table_of_another_instance_rejected(self):
        inst = generate_instance(61, 3, 4, coverage_radius=25.0)
        other = build_index_table(dataclasses.replace(inst, deadline=1e-6))
        with pytest.raises(ValueError, match="another instance"):
            run_dual(inst, "I", table=other)

    def test_bad_parameters(self):
        inst = generate_instance(61, 3, 4, coverage_radius=25.0)
        with pytest.raises(ValueError):
            run_dual(inst, "I", phi=1.0)
        with pytest.raises(ValueError):
            run_dual(inst, "I", tol=0.0)
        for limit in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError):
                run_dual(inst, "I", time_limit=limit)
        with pytest.raises(ValueError):
            run_dual(inst, "I", iter_limit=0)
        # an infinite time limit is no limit
        res = run_dual(inst, "I", time_limit=math.inf, iter_limit=1)
        assert res.iterations <= 1
