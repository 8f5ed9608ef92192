import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import (case2_search_value, make_instance,
                      random_desk_instance, random_multipliers)
from coverage_routing import bundle
from coverage_routing.bundle import (CONVERGED, LB_FLOOR, MASTER_FEASIBLE,
                                     MASTER_INFEASIBLE, MASTER_UNVERIFIED,
                                     MasterResult, _project_dual,
                                     evaluate_dual_function, kkt_residual,
                                     run_dual, solve_master,
                                     timing_to_solution)
from coverage_routing.errors import InfeasibleInstanceError
from coverage_routing.instance import (ValidateOptions, build_index_table,
                                       generate_instance, instance_to_json,
                                       load_instance, validate_solution)
from coverage_routing.labeling_case2 import Case2Solver
from coverage_routing.oracle import oracle_primal, oracle_relaxation
from coverage_routing.relaxation import CutCoeffs, build_coeffs
from coverage_routing.simplex import OPTIMAL, dense_lp_solve
from reference_master import project_full_rows, project_with_bound_rows


def _cut(gradient, offset):
    return CutCoeffs(np.asarray(gradient, dtype=float), float(offset))


def _stacked(C, d):
    """``{x : C x <= d, x <= 0}`` as the rows ``G x <= h``."""
    m = C.shape[1]
    return np.vstack([C, np.eye(m)]), np.concatenate([d, np.zeros(m)])


def _highs_vertex(C, d):
    """A vertex of ``{x : C x <= d, x <= 0}`` from HiGHS, or None if HiGHS
    finds the set empty; solved in ``mu = -x >= 0`` like a phase 1."""
    res = linprog(np.zeros(C.shape[1]), A_ub=-C, b_ub=d, bounds=(0, None),
                  method="highs")
    assert res.status in (0, 2), res.message
    return -res.x if res.status == 0 else None


def _wide_level_set(n, k, req_scale, cov_scale, center_scale, covered_share,
                    kind, seed):
    """A master projection shaped like one on wide-I: ``n`` multipliers,
    ``k`` cuts whose gradients are coverage minus requirement (most targets
    uncovered, so most components negative), a sparse nonpositive center,
    and a HiGHS vertex of the level set, most of it 0, or None when HiGHS
    finds the set empty.

    A sparse point with some cuts tight at it keeps the level set nonempty
    (``kind`` "inner"); lowering every right-hand side below it may empty
    it ("lowered"); and a last cut that some weights aggregate with the
    others to a gradient ``<= 0``, at a negative aggregated right-hand side,
    empties it for sure ("empty")."""
    r = np.random.default_rng(seed)
    req = r.uniform(0.01, 1.0, n) * req_scale
    covered = r.random((k, n)) < covered_share
    C = np.where(covered, r.uniform(0.0, cov_scale, (k, n)), 0.0) - req
    inner = np.where(r.random(n) < 0.2, -r.uniform(0.0, 10.0, n), 0.0)
    d = C @ inner + r.uniform(0.0, 10.0, k) * r.integers(0, 2, k)
    if kind == "lowered":
        d -= r.uniform(0.0, 10.0, k) * float(np.abs(C @ inner).max())
    elif kind == "empty":
        y = r.uniform(0.1, 1.0, k)
        gap = np.where(r.random(n) < 0.3, r.uniform(0.0, cov_scale, n), 0.0)
        C[-1] = -(y[:-1] @ C[:-1] + gap) / y[-1]
        d[-1] = -(y[:-1] @ d[:-1] + r.uniform(0.01, 10.0)) / y[-1]
    center = np.where(r.random(n) < 0.3,
                      -r.uniform(0.0, center_scale, n), 0.0)
    return center, C, d, _highs_vertex(C, d)


@st.composite
def _wide_level_sets(draw):
    """:func:`_wide_level_set` over 30 to 60 multipliers, 1 to 12 cuts and
    every kind, a third of them empty."""
    return _wide_level_set(
        draw(st.integers(30, 60)), draw(st.integers(1, 12)),
        10.0 ** draw(st.integers(-2, 1)), 10.0 ** draw(st.integers(0, 3)),
        10.0 ** draw(st.integers(0, 3)),
        draw(st.sampled_from([0.1, 0.3, 0.5])),
        draw(st.sampled_from(["inner", "inner", "lowered", "empty"])),
        draw(st.integers(0, 2 ** 32 - 1)))


def _kkt_floor(mu, C, d, x):
    """The rounding floor of a projection's KKT residual: a row counts as
    met to within a few ulps of the problem's largest entry, and
    complementarity multiplies that by the largest multiplier."""
    return 1e-12 * max(1.0, float(np.max(mu))) * max(
        1.0, float(np.max(np.abs(x))), float(np.max(np.abs(d))),
        float(np.max(np.abs(C))))


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
        # cut minimum over lam <= 0 equals 4 > f_lev = 1, and the
        # certificate bounds the dual by that minimum, not by f_lev
        res = solve_master(np.zeros(2), [cut], 1.0)
        assert res.status == MASTER_INFEASIBLE
        assert res.bound == pytest.approx(4.0, rel=1e-15)

    def test_certificate_bound_lies_below_the_model_minimum(self):
        # min over lam <= 0 of max(5 + lam1 - 2 lam2, 7 - 3 lam1 + lam2) is
        # 19/3: its dual weights (1/3, 2/3) aggregate the gradients to
        # (-5/3, 0) <= 0.  Any certificate bounds it from below and lies
        # above the level it refutes.
        cuts = [_cut([1.0, -2.0], 5.0), _cut([-3.0, 1.0], 7.0)]
        res = solve_master(np.array([-1.0, -1.0]), cuts, 2.0)
        assert res.status == MASTER_INFEASIBLE
        assert 2.0 < res.bound <= 19.0 / 3.0 + 1e-12

    def test_emptiness_without_a_certificate_is_unverified(self, monkeypatch):
        # an empty level set whose certificate fails the Farkas check
        args = (np.zeros(2), [_cut([-1.0, -0.5], 4.0)], 1.0)
        assert solve_master(*args).status == MASTER_INFEASIBLE
        monkeypatch.setattr(bundle, "_verify_farkas", lambda *a: None)
        res = solve_master(*args)
        assert res.status == MASTER_UNVERIFIED
        assert res.lam is None and res.bound is None

    def test_empty_cut_pool_rejected(self):
        with pytest.raises(ValueError):
            solve_master(np.zeros(2), [], 1.0)

    def test_projection_kkt_residuals(self, rng):
        ran = 0
        for _ in range(25):
            m = 5
            n_cuts = rng.randint(1, 8)
            C = np.array([[rng.uniform(-2, 2) for _ in range(m)]
                          for _ in range(n_cuts)])
            d = np.array([rng.uniform(-1, 3) for _ in range(n_cuts)])
            center = np.array([rng.uniform(-3, 1) for _ in range(m)])
            # the simplex decides whether the level set is empty
            lp = dense_lp_solve(np.zeros(m), -C, d)
            x, mu, work, exact = _project_dual(center, C, d)
            if lp.status != OPTIMAL:
                assert x is None
                continue
            assert exact
            G, h = _stacked(C, d)
            assert kkt_residual(center, G, h, x, mu) <= 1e-8
            ran += 1
        assert ran >= 20

    def test_nearly_parallel_cut_swaps_out_its_twin(self):
        # Two cuts whose gradients differ in one component by a relative
        # 1e-12 and whose lines cross at (-0.5, -0.5).  From (-0.3, 0.3)
        # both are violated, and the projection (-0.8, -0.2) lies on both
        # to within rounding.  The twins never stack up in the working
        # set: whichever enters, the other is met.
        d = 1e-12
        C = np.array([[1e3, 1e3], [1e3, 1e3 * (1.0 + d)]])
        h = np.array([-1e3, -1e3 * (1.0 + 0.5 * d)])
        center = np.array([-0.3, 0.3])
        x, mu, work, exact = _project_dual(center, C, h)
        assert exact
        assert work in ([0], [1])
        assert kkt_residual(center, *_stacked(C, h), x, mu) <= 1e-8
        assert np.allclose(x, [-0.8, -0.2], atol=1e-9)

    def test_all_zero_start_drops_bounds_on_negative_multipliers(self):
        # Every coordinate of the center is 0, so each starts fixed with
        # multiplier 0.  The cut x1 + 2 x2 + 3 x3 <= -14 needs all three
        # to move: each bound's multiplier would turn negative along the
        # dual step, so all three drop together, and the step ends on the
        # cut alone with multiplier 2 (stationarity: 2 (x - c) = -mu a).
        C = np.array([[1.0, 2.0, 3.0]])
        d = np.array([-14.0])
        center = np.zeros(3)
        x, mu, work, exact = _project_dual(center, C, d)
        assert exact
        assert work == [0]
        assert np.allclose(x, [-1.0, -2.0, -3.0], atol=1e-12)
        assert mu[0] == pytest.approx(2.0)
        assert np.all(mu[1:] == 0.0)
        assert kkt_residual(center, *_stacked(C, d), x, mu) <= 1e-12

    def test_zero_coordinate_of_the_center_stays_fixed(self):
        # A zero coordinate of the center starts fixed with multiplier 0;
        # the center meets the cut, so it is its own projection and the
        # bound stays in the working set.
        C = np.array([[1.0, 1.0, 1.0, 1.0]])
        center = np.array([-1.0, -2.0, 0.0, -3.0])
        x, mu, work, exact = _project_dual(center, C, np.array([10.0]))
        assert exact
        assert work == [1 + 2]
        assert np.array_equal(x, center)

    def test_start_without_zero_coordinates(self, rng):
        # level sets with a strictly interior point, from which the full-row
        # reference walk starts with an empty working set
        for _ in range(20):
            m, n_cuts = rng.randint(3, 8), rng.randint(1, 6)
            C = np.array([[rng.uniform(-2, 2) for _ in range(m)]
                          for _ in range(n_cuts)])
            start = np.array([rng.uniform(-2, -0.1) for _ in range(m)])
            d = C @ start + np.array([rng.uniform(0, 1) for _ in range(n_cuts)])
            center = np.array([rng.uniform(-3, 1) for _ in range(m)])
            x, mu, work, exact = _project_dual(center, C, d)
            x_ref, _, _, exact_ref = project_with_bound_rows(center, C, d,
                                                             start)
            assert exact and exact_ref
            assert np.max(np.abs(x - x_ref)) <= 1e-9 * max(
                1.0, float(np.max(np.abs(center))))
            assert kkt_residual(center, *_stacked(C, d), x, mu) <= 1e-8

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_wide_level_sets())
    def test_matches_full_row_walk_on_wide_level_sets(self, level_set):
        # every draw counts: a set HiGHS finds empty has no projection, and
        # a nonempty one projects where the reference walk from the HiGHS
        # vertex does, relative to the larger of the center and the
        # projection (a far level set puts the projection far out)
        center, C, d, start = level_set
        x, mu, _, exact = _project_dual(center, C, d)
        if start is None:
            assert x is None
            return
        assert exact
        G, h = _stacked(C, d)
        x_ref, _, _, exact_ref = project_full_rows(center, G, h, start)
        assert exact_ref
        scale = max(1.0, float(np.max(np.abs(center))),
                    float(np.max(np.abs(x_ref))))
        assert np.max(np.abs(x - x_ref)) <= 1e-9 * scale
        assert kkt_residual(center, G, h, x, mu) <= _kkt_floor(mu, C, d, x)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_wide_level_sets())
    def test_emptiness_verdict_agrees_with_highs(self, level_set):
        # the level set {lam <= 0 : C lam + offsets <= 0} of cuts with
        # offsets -d at f_lev = 0: feasible exactly when HiGHS finds it
        # nonempty, and an empty one never comes back feasible
        center, C, d, start = level_set
        res = solve_master(center, [_cut(g, -o) for g, o in zip(C, d)], 0.0)
        if start is None:
            assert res.status != MASTER_FEASIBLE
        else:
            assert res.status == MASTER_FEASIBLE
            assert res.exact

    @pytest.mark.parametrize("params", [
        (35, 12, 0.01, 1000.0, 1.0, 0.3, "empty", 4191505880),
        (39, 5, 0.01, 1000.0, 1000.0, 0.1, "empty", 2559851831)])
    def test_nearly_dependent_empty_sets_never_come_back_feasible(self,
                                                                  params):
        # sets built empty whose cuts are dependent up to rounding on most
        # coordinates: fixing coordinates leaves as many working cuts as
        # free coordinates in the first, and a singular Gram matrix in the
        # second; neither may come back feasible
        center, C, d, start = _wide_level_set(*params)
        assert start is None
        res = solve_master(center, [_cut(g, -o) for g, o in zip(C, d)], 0.0)
        assert res.status != MASTER_FEASIBLE

    def test_projection_meets_every_row_along_a_run(self, monkeypatch):
        # small-I instance 2 projects far centers while LB sits at the
        # floor, where rounding lets a working row drift; a row that slips
        # past the tolerance is added anew, so every exact projection meets
        # every cut within PROJECTION_TOL per unit norm
        real = bundle._project_dual
        checked = []

        def checked_projection(center, C, d):
            x, mu, work, exact = real(center, C, d)
            if x is not None and exact:
                norms = np.linalg.norm(C, axis=1)
                tol = bundle.PROJECTION_TOL * np.maximum(
                    max(1.0, float(np.max(np.abs(x)))), np.abs(d) / norms)
                assert np.all((C @ x - d) / norms <= tol)
                checked.append(len(C))
            return x, mu, work, exact

        monkeypatch.setattr(bundle, "_project_dual", checked_projection)
        res = run_dual(generate_instance(2, preset="small", case="I"), "I")
        assert res.status == CONVERGED and checked

    def test_run_dual_never_calls_phase_one(self, monkeypatch):
        # the master needs no feasible start: a whole wide-I run, whose
        # level sets are empty now and then, never reaches the simplex
        def refuse(*args, **kw):
            raise AssertionError("dense_lp_solve called")

        monkeypatch.setattr(bundle, "dense_lp_solve", refuse)
        for seed in (0, 6):
            inst = generate_instance(seed, 6, 60, case="I",
                                     coverage_radius=20.0, min_coverage=0.01)
            res = run_dual(inst, "I")
            assert res.status == CONVERGED
            assert MASTER_INFEASIBLE in {r.master_status for r in res.trace}


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
            assert all(r.lb <= r.ub for r in res.trace)
            for prev, row in zip(res.trace, res.trace[1:]):
                # the level is the phi = 0.5 point of the previous bracket;
                # after an unverified emptiness the refuted level is its
                # lower end instead of LB
                low = (prev.f_lev if prev.master_status == MASTER_UNVERIFIED
                       else prev.lb)
                assert row.f_lev == 0.5 * low + (1.0 - 0.5) * prev.ub
                assert prev.lb - 1e-12 <= row.f_lev <= prev.ub + 1e-12
                if row.master_status == MASTER_INFEASIBLE:
                    # a certificate lifts LB at least to the refuted level
                    assert row.lb >= row.f_lev
                else:
                    assert row.lb == prev.lb
            done += 1

    @pytest.mark.parametrize("case", ["I", "II"])
    def test_lb_never_exceeds_the_dual_function(self, rng, case):
        # the reported LB stays at or below every dual value the run
        # evaluated and the brute-force relaxation at random multipliers;
        # unmeetable requirements are drawn too, where phase 1's emptiness
        # verdicts are false
        runs = finite = 0
        while runs < 8:
            inst = random_desk_instance(
                rng, n_range=(3, 5), m_range=(3, 6), case=case,
                min_coverage=rng.choice((0.2, 1.0, 3.0)))
            table = build_index_table(inst)
            try:
                res = run_dual(inst, case, tol=1e-4, iter_limit=300,
                               table=table)
            except InfeasibleInstanceError:
                continue
            assert res.status == CONVERGED
            evaluated = [r.f_value for r in res.trace if r.f_value is not None]
            assert res.lower_bound <= min(evaluated)
            if res.dual_bound < 0.0:
                assert res.lower_bound == LB_FLOOR
            else:
                finite += 1
            m = len(table.target_ids)
            for _ in range(5):
                lam = random_multipliers(rng, m, scale=8.0)
                ora = oracle_relaxation(table, inst, lam, case).value
                assert res.lower_bound <= ora + 1e-9 * max(1.0, abs(ora))
            runs += 1
        assert 0 < finite < runs

    def test_unverified_emptiness_never_moves_lb(self, monkeypatch):
        # the first six masters report emptiness without a certificate that
        # holds: alternately unverified, and certified above UB, which an
        # evaluated value contradicts.  LB stays, and each level moves
        # halfway from the refuted one toward UB.
        inst = generate_instance(0, 4, 6, coverage_radius=25.0,
                                 min_coverage=0.2)
        real = bundle.solve_master
        answers = iter([MasterResult(MASTER_UNVERIFIED, None),
                        MasterResult(MASTER_INFEASIBLE, None, bound=math.inf)]
                       * 3)

        def master(lam_hat, cuts, f_lev):
            return next(answers, None) or real(lam_hat, cuts, f_lev)

        monkeypatch.setattr(bundle, "solve_master", master)
        res = run_dual(inst, "I", iter_limit=7)
        head = res.trace[:7]
        assert [r.master_status for r in head[1:]] == [MASTER_UNVERIFIED] * 6
        assert all(r.lb == head[0].lb and r.ub == head[0].ub for r in head)
        for prev, row in zip(head[1:], head[2:]):
            assert row.f_lev == 0.5 * prev.f_lev + 0.5 * prev.ub
        assert head[-1].f_lev > head[1].f_lev

    @pytest.mark.parametrize("seed, min_coverage",
                             [(4, 0.1), (1, 0.03), (4, 0.03)])
    def test_unmet_requirements_stop_at_the_first_negative_value(
            self, seed, min_coverage):
        # no route meets these requirements, so the dual runs off below 0;
        # each input raised CyclingError from a phase 1 further down that
        # path, and now the first negative value ends the run, converged,
        # with LB left at the floor
        inst = generate_instance(seed, 6, 60, case="I", coverage_radius=20.0,
                                 min_coverage=min_coverage)
        res = run_dual(inst, "I")
        assert res.status == CONVERGED
        assert res.dual_bound < 0.0 and res.lower_bound == LB_FLOOR
        assert [r.ub < 0.0 for r in res.trace].count(True) == 1
        assert res.trace[-1].ub == res.dual_bound

    @pytest.mark.parametrize("seed, min_coverage", [(1, 0.01), (4, 0.1)])
    def test_diverging_duals_meet_no_unverified_level(self, seed,
                                                      min_coverage):
        # the dual runs off below 0 through level sets that are all
        # nonempty; a phase-1 master called most of them empty without a
        # certificate that held, and needed 41 and 31 iterations
        inst = generate_instance(seed, 6, 60, case="I", coverage_radius=20.0,
                                 min_coverage=min_coverage)
        res = run_dual(inst, "I")
        assert res.status == CONVERGED and res.dual_bound < 0.0
        assert res.iterations <= 10
        assert all(r.master_status != MASTER_UNVERIFIED for r in res.trace)

    def test_rotated_wide_instance_keeps_lb_below_the_dual(self):
        # wide-I instance 6 (the benchmark's batch), mirrored and rotated by
        # an arbitrary angle: rounding used to send phase 1 to a false
        # emptiness that lifted LB to 17419.90, above the dual value 17404.45
        # the unrotated instance evaluates
        inst = generate_instance(6, 6, 60, case="I", coverage_radius=20.0,
                                 min_coverage=0.01)
        doc = json.loads(instance_to_json(inst))
        theta, c = 4.181694103618545, 50.0
        for p in doc["waypoints"] + doc["targets"]:
            dx, dy = c - p["x"], p["y"] - c
            p["x"] = c + math.cos(theta) * dx - math.sin(theta) * dy
            p["y"] = c + math.sin(theta) * dx + math.cos(theta) * dy
        rotated = load_instance(doc)
        table = build_index_table(rotated)
        res = run_dual(rotated, "I", phi=0.5, tol=1e-4, table=table)
        plain = run_dual(inst, "I", phi=0.5, tol=1e-4)
        assert res.status == plain.status == CONVERGED
        evaluated = [r.f_value for r in res.trace if r.f_value is not None]
        # the rotated instance's dual at the unrotated run's best multipliers
        at_plain, _ = evaluate_dual_function(table, plain.best_lam, "I")
        assert res.lower_bound <= min(evaluated + [at_plain.value])

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
