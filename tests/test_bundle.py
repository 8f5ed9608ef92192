import dataclasses
import itertools
import json
import math
import random
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import (NO_TARGETS, case2_search_value, make_instance,
                      random_desk_instance, random_multipliers)
from coverage_routing import bundle, labeling_case1, labeling_case2
from coverage_routing.bundle import (CONVERGED, LB_FLOOR, MASTER_FEASIBLE,
                                     MASTER_INFEASIBLE, MASTER_UNVERIFIED,
                                     CutPool, MasterResult, _project_dual,
                                     _verify_farkas, evaluate_dual_function,
                                     run_dual, solve_master,
                                     timing_to_solution)
from coverage_routing.errors import InfeasibleInstanceError
from coverage_routing.instance import (ValidateOptions, build_index_table,
                                       generate_instance, instance_to_json,
                                       load_instance, validate_solution)
from coverage_routing.labeling_case1 import solve_case1
from coverage_routing.labeling_case2 import Case2Solver
from coverage_routing.oracle import oracle_primal, oracle_relaxation
from coverage_routing.relaxation import build_coeffs
from coverage_routing.simplex import OPTIMAL, dense_lp_solve
from reference_master import project_full_rows, project_with_bound_rows
import reference_cuts
import reference_master
import reference_repair


def _pool(gradients, offsets=None):
    """The cut pool of the rows ``gradients``, with zero offsets unless
    given."""
    gradients = np.asarray(gradients, dtype=float)
    if offsets is None:
        offsets = np.zeros(len(gradients))
    return CutPool(gradients, np.asarray(offsets, dtype=float))


def kkt_residual(center, G, h, x, mu):
    """Worst violation of the projection optimality system (stationarity,
    primal/dual feasibility, complementarity)."""
    station = np.max(np.abs(2.0 * (x - center) + G.T @ mu)) if len(G) else \
        np.max(np.abs(2.0 * (x - center)))
    primal = max(0.0, float(np.max(G @ x - h))) if len(G) else 0.0
    dual = max(0.0, float(-mu.min())) if mu.size else 0.0
    comp = float(np.max(np.abs(mu * (G @ x - h)))) if len(G) else 0.0
    return max(station, primal, dual, comp)


def _stacked(C, d):
    """``{x : C x <= d, x <= 0}`` as the rows ``G x <= h``."""
    m = C.shape[1]
    return np.vstack([C, np.eye(m)]), np.concatenate([d, np.zeros(m)])


def _highs_vertex(C, d):
    """A vertex of ``{x : C x <= d, x <= 0}`` from HiGHS, or None if HiGHS
    finds the set empty; solved in ``mu = -x >= 0`` like a phase 1.  HiGHS's
    default method leaves a few nearly dependent empty sets undecided; its
    interior-point method decides those."""
    def solve(method):
        return linprog(np.zeros(C.shape[1]), A_ub=-C, b_ub=d,
                       bounds=(0, None), method=method)
    res = solve("highs")
    if res.status not in (0, 2):
        res = solve("highs-ipm")
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


#: level sets built empty whose cuts are dependent up to rounding on most
#: coordinates, and ones on which the projection runs to its step cap
_NEARLY_DEPENDENT_EMPTY = [
    (35, 12, 0.01, 1000.0, 1.0, 0.3, "empty", 4191505880),
    (39, 5, 0.01, 1000.0, 1000.0, 0.1, "empty", 2559851831),
    (37, 5, 0.1, 1000.0, 1.0, 0.5, "empty", 3887611424),
    (34, 7, 0.01, 1000.0, 10.0, 0.1, "empty", 2760433148)]
_STEP_CAPPED_EMPTY = [
    (37, 12, 0.01, 1000.0, 1.0, 0.1, "empty", 2373363519),
    (30, 12, 0.01, 1000.0, 1.0, 0.3, "empty", 3133076801)]


def _master_recording_singular(center, C, d, monkeypatch):
    """``solve_master`` on the level set ``{lam <= 0 : C lam <= d}`` (cuts
    with offsets ``-d`` at level 0), and whether its QP met a singular Gram
    matrix."""
    solve, singular = bundle._gram_solve, []

    def recorded_solve(*args):
        try:
            return solve(*args)
        except np.linalg.LinAlgError:
            singular.append(1)
            raise

    monkeypatch.setattr(bundle, "_gram_solve", recorded_solve)
    res = solve_master(center, _pool(C, -d), 0.0)
    monkeypatch.undo()
    return res, bool(singular)


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

    @pytest.mark.parametrize("case, args, kw, kinds", [
        # binding case II, 7 waypoints: a converging jump; a jump that is
        # not exact; a refuted jump, then the second jump
        ("II", (0, 7, 10), dict(deadline_scale=0.04), {"converged"}),
        ("II", (1, 7, 10), dict(deadline_scale=0.04),
         {"not exact", "converged"}),
        ("II", (6, 7, 10), dict(deadline_scale=0.04),
         {"refuted", "converged"}),
        # wide disks, 5 waypoints: all three branches on one run, and two
        # refuted jumps in a row
        ("I", (9, 5, 8), dict(coverage_radius=40.0),
         {"refuted", "not exact", "converged"}),
        ("I", (10, 5, 8), dict(coverage_radius=40.0),
         {"refuted", "refuted twice"})])
    def test_jumped_levels_on_pinned_draws(self, case, args, kw, kinds):
        # after an exact row the level jumps to half the stopping gap above
        # the floor: it converges the run on its row, or a certificate
        # refutes it and one more jump is taken from the lifted LB, or its
        # evaluation is not exact; a second refutation and an evaluation
        # that is not exact bring the phi point back
        inst = generate_instance(*args, case=case, min_coverage=0.01, **kw)
        res = run_dual(inst, case)
        assert res.status == CONVERGED
        steps = _replayed_levels(res.trace)
        assert all(row.f_lev == level for _, row, _, level, _ in steps)
        assert {kind for *_, kind in steps} - {None, "exact"} == kinds
        for (*_, kind), (_, row, point, level, _) in zip(steps, steps[1:]):
            if kind in ("not exact", "refuted twice"):
                assert level == point
            if kind == "refuted":
                assert row.f_lev < point  # the second jump
        if "converged" in kinds:
            assert steps[-1][-1] == "converged"
            last = res.trace[-1]
            assert last.f_value == last.ub
            assert last.ub - last.lb <= 1e-4 * max(1.0, abs(last.ub))

    def test_value_past_half_the_gap_is_not_exact(self):
        # row 8's value lies 1.29 h above its level (h half the stopping
        # gap): not exact, so row 9 takes the phi point, not LB + h
        inst = generate_instance(34, 5, 8, case="I", coverage_radius=40.0,
                                 min_coverage=0.01)
        res = run_dual(inst, "I")
        prev, row, nxt = res.trace[7:10]
        h = 0.5 * 1e-4 * max(1.0, abs(prev.ub))
        assert row.f_lev + h < row.f_value <= row.f_lev + 2.0 * h
        assert nxt.f_lev == 0.5 * row.lb + 0.5 * row.ub
        assert all(kind is None for *_, kind in _replayed_levels(res.trace))

    @pytest.mark.parametrize("case, count, args, kw, most", [
        ("I", 8, (6, 60), dict(coverage_radius=20.0, min_coverage=0.01),
         (74, 52)),
        ("I", 4, (), dict(preset="small"), (28, 20)),
        ("II", 4, (7, 10), {}, (4, 8))], ids=["wide-I", "small-I", "desk-II"])
    def test_workload_counts(self, case, count, args, kw, most):
        # the benchmark's batches (instances 0..count-1 of each shape; its
        # symmetric copies have bit-identical index tables): iterations and
        # dual evaluations, row 0 included, at most these totals, since
        # counts are what a change to the level, the pool or the master
        # moves reliably.  desk-II converges in one master call per instance
        iterations = evaluations = 0
        for seed in range(count):
            inst = generate_instance(seed, *args, case=case, **kw)
            res = run_dual(inst, case, phi=0.5, tol=1e-4)
            assert res.status == CONVERGED
            iterations += res.iterations
            evaluations += sum(r.f_value is not None for r in res.trace)
        assert iterations <= most[0] and evaluations <= most[1]
        if case == "II":
            assert (iterations, evaluations) == most


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
            value = evaluate_dual_function(table, lam, "II", **kw)
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
        cut = _pool([[1.0, 1.0]], [0.0])  # cut value at lam = -3
        res = solve_master(lam, cut, -1.0)  # -3 <= f_lev: lam is feasible
        assert res.status == "feasible"
        assert np.allclose(res.lam, lam)

    def test_empty_level_set_reported(self):
        # single cut with nonpositive gradient: minimum over lam <= 0 is at 0
        cut = _pool([[-1.0, -0.5]], [4.0])
        # cut minimum over lam <= 0 equals 4 > f_lev = 1, and the
        # certificate bounds the dual by that minimum, not by f_lev
        res = solve_master(np.zeros(2), cut, 1.0)
        assert res.status == MASTER_INFEASIBLE
        assert res.bound == pytest.approx(4.0, rel=1e-15)

    def test_certificate_bound_lies_below_the_model_minimum(self):
        # min over lam <= 0 of max(5 + lam1 - 2 lam2, 7 - 3 lam1 + lam2) is
        # 19/3: its dual weights (1/3, 2/3) aggregate the gradients to
        # (-5/3, 0) <= 0.  Any certificate bounds it from below and lies
        # above the level it refutes.
        cuts = _pool([[1.0, -2.0], [-3.0, 1.0]], [5.0, 7.0])
        res = solve_master(np.array([-1.0, -1.0]), cuts, 2.0)
        assert res.status == MASTER_INFEASIBLE
        assert 2.0 < res.bound <= 19.0 / 3.0 + 1e-12

    def test_emptiness_without_a_certificate_is_unverified(self, monkeypatch):
        # an empty level set whose certificate fails the Farkas check
        args = (np.zeros(2), _pool([[-1.0, -0.5]], [4.0]), 1.0)
        assert solve_master(*args).status == MASTER_INFEASIBLE
        monkeypatch.setattr(bundle, "_verify_farkas", lambda *a: None)
        res = solve_master(*args)
        assert res.status == MASTER_UNVERIFIED
        assert res.lam is None and res.bound is None

    def test_empty_cut_pool_rejected(self):
        with pytest.raises(ValueError):
            solve_master(np.zeros(2), _pool(np.zeros((0, 2))), 1.0)

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
            x, mu, work, exact = _project_dual(center, _pool(C), d)
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
        x, mu, work, exact = _project_dual(center, _pool(C), h)
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
        x, mu, work, exact = _project_dual(center, _pool(C), d)
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
        x, mu, work, exact = _project_dual(center, _pool(C),
                                           np.array([10.0]))
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
            x, mu, work, exact = _project_dual(center, _pool(C), d)
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
        x, mu, _, exact = _project_dual(center, _pool(C), d)
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
        res = solve_master(center, _pool(C, -d), 0.0)
        if start is None:
            assert res.status != MASTER_FEASIBLE
        else:
            assert res.status == MASTER_FEASIBLE
            assert res.exact

    @pytest.mark.parametrize("params", _NEARLY_DEPENDENT_EMPTY)
    def test_nearly_dependent_empty_sets_never_come_back_feasible(
            self, params, monkeypatch):
        # sets built empty whose cuts are dependent up to rounding on most
        # coordinates: fixing coordinates leaves as many working cuts as
        # free coordinates in the first, and a singular Gram matrix in the
        # second and the fourth; the third only HiGHS's interior-point
        # method decides.  None comes back feasible.  The regular exit
        # certifies the first and the third above the level 0.  A
        # singular-exit set may not be certified above the cut model's
        # minimum over lam <= 0: on the fourth, the null combination of the
        # working cuts passes the check within its slack and would bound it
        # by 83.41, against a minimum of 0.754
        center, C, d, start = _wide_level_set(*params)
        assert start is None
        res, singular = _master_recording_singular(center, C, d, monkeypatch)
        assert singular == (params[-1] in (2559851831, 2760433148))
        if not singular:
            assert res.status == MASTER_INFEASIBLE and res.bound > 0.0
            return
        assert res.status != MASTER_FEASIBLE
        if res.status == MASTER_INFEASIBLE:
            k, n = C.shape
            model = linprog(np.append(np.zeros(n), 1.0),
                            A_ub=np.hstack([C, -np.ones((k, 1))]), b_ub=d,
                            bounds=[(None, 0.0)] * n + [(None, None)],
                            method="highs")
            assert model.status == 0
            assert 0.0 < res.bound <= model.fun

    @pytest.mark.parametrize("params", _STEP_CAPPED_EMPTY)
    def test_step_capped_projection_is_no_verdict(self, params, monkeypatch):
        # sets built empty, and empty to HiGHS, on which the QP runs to the
        # step cap with no singular Gram matrix while its iterate runs off
        # (to max|x| 9.4e30 and 1.9e171): no point comes back to evaluate
        # and no bound
        center, C, d, start = _wide_level_set(*params)
        assert start is None
        res, singular = _master_recording_singular(center, C, d, monkeypatch)
        assert not singular
        assert res.status == MASTER_UNVERIFIED and not res.exact
        assert res.lam is None and res.bound is None

    @pytest.mark.parametrize("nested", [False, True])
    @pytest.mark.parametrize("exit_", ["feasible", "certified", "unverified",
                                       "singular", "step-cap"])
    def test_floating_point_state_comes_back(self, exit_, nested,
                                             monkeypatch):
        # the projection enters np.linalg.solve's floating-point state once
        # for all of its steps; every exit of solve_master gives the
        # caller's state back, numpy's default or one the caller set
        flagged = []

        def solve():
            if exit_ == "feasible":
                return solve_master(np.array([-1.0, -2.0]),
                                    _pool([[1.0, 1.0]], [0.0]), -1.0), False
            if exit_ in ("certified", "unverified"):
                if exit_ == "unverified":
                    monkeypatch.setattr(bundle, "_verify_farkas",
                                        lambda *a: None)
                return solve_master(np.zeros(2), _pool([[-1.0, -0.5]], [4.0]),
                                    1.0), False
            params = (_NEARLY_DEPENDENT_EMPTY[1] if exit_ == "singular"
                      else _STEP_CAPPED_EMPTY[0])
            center, C, d, _ = _wide_level_set(*params)
            return _master_recording_singular(center, C, d, monkeypatch)

        def run():
            state, call = np.geterr(), np.geterrcall()
            res, singular = solve()
            assert (np.geterr(), np.geterrcall()) == (state, call)
            return res, singular

        if nested:
            with np.errstate(divide="raise", over="warn", under="print",
                             invalid="call", call=flagged.append):
                res, singular = run()
        else:
            res, singular = run()
        assert not flagged
        assert singular == (exit_ == "singular")
        assert res.status == {"feasible": MASTER_FEASIBLE,
                              "certified": MASTER_INFEASIBLE}.get(
                                  exit_, MASTER_UNVERIFIED)
        assert res.exact == (exit_ not in ("singular", "step-cap"))

    def test_projection_meets_every_row_along_a_run(self, monkeypatch):
        # small-I instance 2 projects far centers while LB sits at the
        # floor, where rounding lets a working row drift; a row that slips
        # past the tolerance is added anew, so every exact projection meets
        # every cut within PROJECTION_TOL per unit norm
        real = bundle._project_dual
        checked = []

        def checked_projection(center, pool, d):
            x, mu, work, exact = real(center, pool, d)
            if x is not None and exact:
                C = pool.gradients
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


class TestFarkasCheck:
    # The master's emptiness check on the rows g_k . lam <= f_lev - o_k over
    # lam <= 0, for the cuts (g, o) = ((1, -2), 5) and ((-1 + d, 1), 7) at
    # f_lev = 2.  Equal weights aggregate the gradients to (d / 2, -1 / 2)
    # and the offsets to 6 > 2: with d <= 0 the system is empty.
    @staticmethod
    def system(d=0.0):
        G = np.array([[1.0, -2.0], [-1.0 + d, 1.0]])
        return G, 2.0 - np.array([5.0, 7.0]), float(np.max(np.abs(G)))

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_valid_certificate_accepted_at_any_scale(self, scale):
        u = _verify_farkas(scale * np.array([1.0, 1.0]), *self.system())
        assert u is not None
        assert np.allclose(u, [0.5, 0.5], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_garbage_refused_at_any_scale(self, scale):
        # one cut alone: its gradient (1, -2) ascends along the first
        # multiplier by half the largest gradient entry
        assert _verify_farkas(scale * np.array([1.0, 0.0]),
                              *self.system()) is None
        # an ascent of rounding size is admitted, one of 1e-6 of the
        # largest entry is not
        for rel, ok in ((1e-13, True), (1e-6, False)):
            got = _verify_farkas(scale * np.array([1.0, 1.0]),
                                 *self.system(4.0 * rel))
            assert (got is not None) == ok

    def test_no_weight_or_no_gap_is_no_certificate(self):
        G, b, top = self.system()
        assert _verify_farkas(np.array([-1.0, 0.0]), G, b, top) is None
        assert _verify_farkas(np.array([1.0, 1.0]), G, -b, top) is None

    @pytest.mark.parametrize("params",
                             _NEARLY_DEPENDENT_EMPTY + _STEP_CAPPED_EMPTY)
    def test_folded_sign_matches_the_negated_pool(self, params):
        # the check reads the pool's gradients with the sign folded into
        # its comparison, and max|G| from the pool; on the pinned empty
        # draws it compares every component, accepts and bounds exactly as
        # the check on a negated copy, -G . y >= -rtol * max|-G|, did
        center, C, d, _ = _wide_level_set(*params)
        pool = _pool(C, -d)
        rhs = 0.0 - pool.offsets
        _, mu, _, _ = _project_dual(center, pool, rhs)
        A = -pool.gradients
        assert pool.max_abs == float(np.max(np.abs(A), initial=0.0))
        got = _verify_farkas(mu[:len(pool)], pool.gradients, rhs,
                             pool.max_abs)
        y = np.maximum(mu[:len(pool)], 0.0)
        total = float(y.sum())
        if not total > 0.0:
            assert got is None
            return
        y = y / total
        floor = -bundle._FARKAS_RTOL * float(np.max(np.abs(A), initial=0.0))
        old = A.T @ y >= floor
        assert np.array_equal(pool.gradients.T @ y
                              <= bundle._FARKAS_RTOL * pool.max_abs, old)
        if y @ rhs < 0.0 and old.all():
            assert got.tobytes() == y.tobytes()
            res = solve_master(center, pool, 0.0)
            assert res.status == MASTER_INFEASIBLE
            assert res.bound == float(y @ pool.offsets)
        else:
            assert got is None


class TestRunDual:
    @staticmethod
    def _route_work_readings(monkeypatch, inst, case):
        """Run one ``run_dual`` iteration under a counting clock, whose
        every reading by ``bundle`` advances it by one, with the case-I
        tracer and tie scan recording the clock's last reading.  Returns
        the reading that stamped row 0's ``wall_time`` and the recorded
        (step, reading) pairs in call order."""
        ticks = itertools.count(1)
        last = [0]

        def monotonic():
            last[0] = next(ticks)
            return float(last[0])

        def recorded(step, fn):
            def wrapper(*args):
                work.append((step, last[0]))
                return fn(*args)
            return wrapper

        work = []
        monkeypatch.setattr(bundle, "time",
                            types.SimpleNamespace(monotonic=monotonic))
        monkeypatch.setattr(labeling_case1, "_trace",
                            recorded("trace", labeling_case1._trace))
        monkeypatch.setattr(labeling_case1, "_best_ends",
                            recorded("ties", labeling_case1._best_ends))
        res = run_dual(inst, case, iter_limit=1)
        # the run's start is the clock's first reading
        return 1 + res.trace[0].wall_time, work

    def test_case1_stamps_row_zero_before_any_route(self, monkeypatch):
        # in a fill of one chunk, the lam = 0 evaluation returns on the
        # fill's values alone: the tie scan and every trace run in the cut
        # pass, after row 0's wall time is read
        inst = generate_instance(0, 6, 60, case="I", coverage_radius=20.0)
        stamp, work = self._route_work_readings(monkeypatch, inst, "I")
        assert work and work[0] == ("ties", stamp)
        assert min(reading for _, reading in work) == stamp

    @staticmethod
    def _certified(inst):
        """Whether the instance's slowest-route certificate shows that its
        deadline cannot bind, and its idle candidates at ``lam = 0``."""
        table = build_index_table(inst)
        coeffs = build_coeffs(table, np.zeros(len(table.target_ids)), "II")
        solve_case1(coeffs)
        return labeling_case2._deadline_free(coeffs), coeffs.idle_set

    def test_certified_case2_stamps_row_zero_before_any_route(
            self, monkeypatch):
        # on a desk-II instance no route can overrun the deadline, so the
        # lam = 0 evaluation returns on the fill's values alone, as in case
        # I: the tie scan and every trace run after row 0's stamp
        inst = generate_instance(0, 7, 10, case="II")
        assert self._certified(inst)[0]
        stamp, work = self._route_work_readings(monkeypatch, inst, "II")
        assert work and work[0] == ("ties", stamp)
        assert min(reading for _, reading in work) == stamp

    def test_case2_screen_traces_before_row_zero(self, monkeypatch):
        # where the certificate does not rule the deadline out, the case-II
        # screen times every candidate's deadline-free route before it has
        # a value, so its tie scan and traces come before row 0's stamp
        inst = generate_instance(0, 5, 8, case="II")
        certified, idle = self._certified(inst)
        assert not certified
        stamp, work = self._route_work_readings(monkeypatch, inst, "II")
        assert [w for w in work if w[1] < stamp] == \
            [("ties", 1)] + [("trace", 1)] * len(idle)

    def test_zero_requirements_converge_immediately(self):
        inst = generate_instance(61, 4, 5, coverage_radius=25.0,
                                 min_coverage=0.0)
        table = build_index_table(inst)
        res = run_dual(inst, "I", table=table)
        assert res.status == CONVERGED
        assert res.iterations == 0
        assert res.dual_bound == pytest.approx(res.initial_bound)
        assert np.all(res.best_lam == 0.0)

    def test_time_limit_stops_after_row_zero(self):
        # an instance that does not converge at trace row 0: a tiny time
        # limit stops the run there, and its bound is row 0's evaluated
        # value, the dual at lam = 0
        inst = generate_instance(1, 5, 8, coverage_radius=40.0,
                                 min_coverage=0.01)
        table = build_index_table(inst)
        assert run_dual(inst, "I", table=table).iterations >= 2
        res = run_dual(inst, "I", time_limit=1e-9, table=table)
        assert res.status == bundle.TIME_LIMIT
        assert res.iterations == 0 and len(res.trace) == 1
        lam0 = np.zeros(len(table.target_ids))
        assert res.dual_bound == res.trace[0].f_value == \
            evaluate_dual_function(table, lam0, "I").value

    def test_no_targets_converge_at_row_zero(self):
        # the one target is dropped on load and no route meets the
        # deadline, so no cut is feasible: without multipliers, row 0's
        # value is the dual optimum, and LB is set to it, with no master
        # call; case II has no route at all
        inst = load_instance(NO_TARGETS)
        assert inst.targets == ()
        res = run_dual(inst, "I")
        assert res.status == CONVERGED and res.iterations == 0
        assert sum(res.solution.times) > inst.deadline
        assert res.lower_bound == res.dual_bound == res.initial_bound
        assert math.isfinite(res.dual_bound)
        with pytest.raises(InfeasibleInstanceError):
            run_dual(inst, "II")

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
            for prev, row, _, level, _ in _replayed_levels(res.trace):
                # the level is the phi = 0.5 point of the previous bracket,
                # or the jumped level below it (see _replayed_levels)
                assert row.f_lev == level
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

        def master(lam_hat, pool, f_lev):
            return next(answers, None) or real(lam_hat, pool, f_lev)

        monkeypatch.setattr(bundle, "solve_master", master)
        res = run_dual(inst, "I", iter_limit=7)
        head = res.trace[:7]
        assert [r.master_status for r in head[1:]] == [MASTER_UNVERIFIED] * 6
        assert all(r.lb == head[0].lb and r.ub == head[0].ub for r in head)
        for prev, row in zip(head[1:], head[2:]):
            assert row.f_lev == 0.5 * prev.f_lev + 0.5 * prev.ub
        assert head[-1].f_lev > head[1].f_lev

    def test_step_capped_masters_evaluate_nothing(self, monkeypatch):
        # a one-step cap stops every projection that needs a second step:
        # such a master evaluates no point and moves no bound, and the next
        # level moves halfway from the refuted one toward UB
        inst = generate_instance(0, 4, 6, coverage_radius=25.0,
                                 min_coverage=0.2)
        monkeypatch.setattr(bundle, "PROJECTION_MAX_STEPS", 1)
        res = run_dual(inst, "I", iter_limit=20)
        rows = res.trace
        assert MASTER_UNVERIFIED in {r.master_status for r in rows}
        for prev, row in zip(rows, rows[1:]):
            if row.master_status == MASTER_UNVERIFIED:
                assert row.f_value is None
                assert (row.lb, row.ub) == (prev.lb, prev.ub)
            if prev.master_status == MASTER_UNVERIFIED:
                assert row.f_lev == 0.5 * prev.f_lev + 0.5 * prev.ub

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
        at_plain = evaluate_dual_function(table, plain.best_lam, "I")
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
        # the final pair: the dual at best_lam is dual_bound, bit for bit,
        # and its witness timing adds up to it
        value = evaluate_dual_function(table, res.best_lam, "I")
        assert value.value == res.dual_bound
        timing = value.best
        coeffs = build_coeffs(table, res.best_lam, "I")
        net = coeffs.net_rates(timing.vbar)
        path_val = sum(net[table.arc_id[a]] * t for a, t in
                       zip(zip(timing.nodes[:-1], timing.nodes[1:]),
                           timing.times))
        gain = inst.deadline * coeffs.idle_gain[timing.vbar] \
            if timing.vbar else 0.0
        assert coeffs.constant + gain + path_val == \
            pytest.approx(res.dual_bound, rel=1e-9, abs=1e-8)

    def test_witness_solutions_validate(self, rng, monkeypatch):
        # the witness route validates, and so does every route whose cut can
        # lift LB (gradient <= 0; every case-II route fits the deadline): it
        # meets every requirement, its value is its cut's offset, and LB
        # ends at least there.  Four random desk draws, then two draws with
        # wide coverage disks and low requirements, where such routes occur
        passes, real_cut = [], bundle.make_cut

        def cut(timings, table):
            gradients, offsets = real_cut(timings, table)
            passes.append((timings, gradients, offsets))
            return gradients, offsets

        monkeypatch.setattr(bundle, "make_cut", cut)
        draws = [random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6),
                                      case="II") for _ in range(4)]
        draws += [generate_instance(seed, 5, 8, case="II",
                                    coverage_radius=40.0, min_coverage=0.01)
                  for seed in (0, 1)]
        lifting = 0
        for inst in draws:
            passes.clear()
            table = build_index_table(inst)
            try:
                res = run_dual(inst, "II", tol=1e-4, iter_limit=200,
                               table=table)
            except InfeasibleInstanceError:
                continue
            report = validate_solution(inst, res.solution, table=table)
            assert report.ok
            for timings, gradients, offsets in passes:
                for timing, g, o in zip(timings, gradients, offsets):
                    if not np.all(g <= 0.0):
                        continue
                    lifting += 1
                    sol = timing_to_solution(timing, table)
                    assert sol.objective == o
                    rep = validate_solution(
                        inst, sol, ValidateOptions(enforce_coverage=True),
                        table=table)
                    assert rep.ok
                    assert res.lower_bound >= min(o, res.dual_bound)
        assert lifting > 0

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


def _replayed_levels(trace, phi=0.5, tol=1e-4):
    """``run_dual``'s level rule replayed over a trace: for each row after
    row 0, ``(prev, row, point, level, kind)``.  ``point`` is the phi point
    between the floor and the previous row's ``ub``; the floor is the
    previous ``lb``, or after an unverified row its refuted level.  An
    evaluated row is exact when its value is at most its level plus ``h``,
    half the stopping gap at the previous ``ub``.  After an exact row,
    ``level`` is ``min(point, floor + h)`` for up to two rows: the second
    only when a certificate refutes the first.  Else it is ``point``.

    ``kind`` says how a row went whose level lay below its phi point:
    "converged" (an evaluation that ends the trace), "exact", "not exact",
    "refuted" (a certificate, with a jump left), "refuted twice" or
    "unverified"; it is None on every other row."""
    steps, jumps = [], 0
    for prev, row in zip(trace, trace[1:]):
        low = prev.f_lev if prev.master_status == MASTER_UNVERIFIED \
            else prev.lb
        point = phi * low + (1.0 - phi) * prev.ub
        h = 0.5 * tol * max(1.0, abs(prev.ub))
        level = min(point, low + h) if jumps else point
        kind = None
        if row.master_status == MASTER_FEASIBLE:
            exact = row.f_value <= level + h
            if level < point:
                kind = ("not exact" if not exact else "converged"
                        if row is trace[-1] else "exact")
            jumps = 2 if exact else 0
        else:
            if level < point:
                kind = ("unverified" if row.master_status == MASTER_UNVERIFIED
                        else "refuted" if jumps == 2 else "refuted twice")
            jumps = jumps - 1 if row.master_status == MASTER_INFEASIBLE \
                and jumps else 0
        steps.append((prev, row, point, level, kind))
    return steps


def _recorded_run(monkeypatch, inst, case, table, **kw):
    """``run_dual``, with the dual evaluations it made (multipliers and
    value, in order) and the cut pool each of its masters received, as its
    gradients and offsets."""
    evals, pools = [], []
    real_eval = bundle.evaluate_dual_function
    real_master = bundle.solve_master

    def evaluate(table, lam, *args, **kw):
        value = real_eval(table, lam, *args, **kw)
        evals.append((np.array(lam, dtype=float), value))
        return value

    def master(lam_hat, pool, f_lev):
        pools.append((pool.gradients.copy(), pool.offsets.copy()))
        return real_master(lam_hat, pool, f_lev)

    monkeypatch.setattr(bundle, "evaluate_dual_function", evaluate)
    monkeypatch.setattr(bundle, "solve_master", master)
    try:
        res = run_dual(inst, case, table=table, **kw)
    finally:
        monkeypatch.undo()
    return res, evals, pools


def _model_minimum(G, o):
    """HiGHS's minimum over ``lam <= 0`` of the cut model ``max_k g_k . lam
    + o_k`` (gradients ``G``, offsets ``o``), solved as ``min t`` subject to
    ``g_k . lam - t <= -o_k``; -inf where the model is unbounded below."""
    m = G.shape[1]
    obj = np.zeros(m + 1)
    obj[-1] = 1.0
    res = linprog(obj, A_ub=np.hstack([G, -np.ones((len(o), 1))]),
                  b_ub=-o, bounds=[(None, 0.0)] * m + [(None, None)],
                  method="highs")
    assert res.status in (0, 3), res.message
    return res.fun if res.status == 0 else -math.inf


class TestCutPool:
    """One dual evaluation adds one cut per idle candidate that has a
    route: the maximizing candidate's first, then the others in idle-set
    order."""

    @pytest.mark.parametrize("case", ["I", "II"])
    def test_every_pool_cut_is_valid_and_tight(self, rng, case, monkeypatch):
        runs = extra = 0
        while runs < 6:
            inst = random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6),
                                        case=case)
            table = build_index_table(inst)
            try:
                res, evals, pools = _recorded_run(monkeypatch, inst, case,
                                                  table, iter_limit=300)
            except InfeasibleInstanceError:
                continue
            if not pools:
                continue
            # each candidate's cut at the multipliers that generated it is
            # that candidate's total: constant, idle gain and route value
            groups = []
            for lam, value in evals:
                coeffs = build_coeffs(table, lam, case)
                top, found = value.best.vbar, value.routes.values
                order = [top] + [v for v in coeffs.idle_set
                                 if v != top and found[v] is not None]
                groups.append([(lam, coeffs.constant + found[v] + (
                    inst.deadline * coeffs.idle_gain[v] if v else 0.0))
                    for v in order])
            want = [pair for group in groups for pair in group]
            G, o = pools[-1]
            # the last master sees every evaluation's cuts but, at most, the
            # last evaluation's
            assert len(o) in (len(want), len(want) - len(groups[-1]))
            for g, offset, (lam, total) in zip(G, o, want):
                assert abs(float(g @ lam) + offset - total) <= \
                    1e-9 * max(1.0, abs(total))
            extra += sum(len(group) - 1 for group in groups)
            m = len(table.target_ids)
            for _ in range(5):
                lam = random_multipliers(rng, m, scale=8.0)
                top = max(float(g @ lam) + offset
                          for g, offset in zip(G, o))
                f_val = evaluate_dual_function(table, lam, case).value
                ora = oracle_relaxation(table, inst, lam, case).value
                assert top <= f_val + 1e-9 * max(1.0, abs(f_val))
                assert top <= ora + 1e-9 * max(1.0, abs(ora))
            runs += 1
        # some evaluations add cuts beyond the maximizing candidate's
        assert extra > 0

    @pytest.mark.parametrize("case, args, kw", [
        pytest.param("I", (s,), dict(preset="small"), id=f"small-I-{s}")
        for s in range(4)] + [
        pytest.param("II", (s, 7, 10), {}, id=f"desk-II-{s}")
        for s in range(4)] + [
        pytest.param("I", (s, 6, 60),
                     dict(coverage_radius=20.0, min_coverage=0.01),
                     id=f"wide-I-{s}")
        for s in range(8)])
    def test_certified_lb_stays_below_the_model_minimum(self, case, args,
                                                        kw, monkeypatch):
        # the benchmark's workload shapes (small-I, desk-II, wide-I): every
        # certified LB is at most the minimum of the cut model its master
        # saw, which lies below the dual function
        inst = generate_instance(*args, case=case, **kw)
        table = build_index_table(inst)
        res, _, pools = _recorded_run(monkeypatch, inst, case, table)
        assert len(pools) == res.iterations
        for row, cuts in zip(res.trace[1:], pools):
            if row.master_status == MASTER_INFEASIBLE:
                low = _model_minimum(*cuts)
                assert row.lb <= low + 1e-9 * max(1.0, abs(low))

    @pytest.mark.parametrize("case, args, kw", [
        ("I", (0, 6, 60), dict(coverage_radius=20.0, min_coverage=0.01)),
        ("II", (1, 5, 8), dict(coverage_radius=40.0, min_coverage=0.01)),
        ("I", (1, 5, 8), dict(coverage_radius=40.0, min_coverage=0.01))])
    def test_cuts_are_built_after_their_trace_row(self, case, args, kw,
                                                  monkeypatch):
        # a row's wall time is read before any of its cuts is built, so no
        # bound waits for a cut, and the row is made after them, its LB
        # lifted by their feasible routes (gradient <= 0, within the
        # deadline) and capped at UB; a row that evaluates nothing builds
        # none.  A fake clock ticks once per read, so each row's wall time
        # names the read that stamped it
        events, ticks = [], itertools.count()
        real_cut, real_row = bundle.make_cut, bundle.TraceRow

        def monotonic():
            events.append(("clock", float(next(ticks))))
            return events[-1][1]

        def cut(timings, table):
            gradients, offsets = real_cut(timings, table)
            events.append(("cut", timings, gradients, offsets))
            return gradients, offsets

        def row(*args):
            events.append(("row",))
            return real_row(*args)

        monkeypatch.setattr(bundle, "time",
                            types.SimpleNamespace(monotonic=monotonic))
        monkeypatch.setattr(bundle, "make_cut", cut)
        monkeypatch.setattr(bundle, "TraceRow", row)
        inst = generate_instance(*args, case=case, **kw)
        res = run_dual(inst, case)
        monkeypatch.undo()
        assert res.iterations > 1 and events[0] == ("clock", 0.0)
        # the events before each row, back to the one before it
        segments = [[]]
        for event in events:
            if event[0] == "row":
                segments.append([])
            else:
                segments[-1].append(event)
        assert len(segments) == len(res.trace) + 1 and not segments[-1]
        lb, lifts = LB_FLOOR, 0
        for trow, segment in zip(res.trace, segments):
            stamp = segment.index(("clock", trow.wall_time))
            cuts = [i for i, event in enumerate(segment) if event[0] == "cut"]
            assert len(cuts) == (trow.f_value is not None)
            if not cuts:
                assert trow.lb >= lb
                lb = trow.lb
                continue
            assert stamp < cuts[0]
            _, timings, gradients, offsets = segment[cuts[0]]
            lift = max((o for t, g, o in zip(timings, gradients, offsets)
                        if np.all(g <= 0.0) and (
                            case == "II" or
                            sum(t.times) <= inst.deadline)),
                       default=-math.inf)
            assert trow.lb == max(lb, min(trow.ub, lift))
            lifts += trow.lb > lb
            lb = trow.lb
        assert lifts > 0

    def test_small_preset_evaluates_fewer_points(self):
        # 35 trace rows were evaluated on these seeds with the winner's cut
        # alone; row 0 is the lam = 0 evaluation, and its LB the largest
        # value of a route among that evaluation's cuts that meets every
        # requirement within the deadline, capped at the dual value
        evaluated = 0
        for seed in range(4):
            inst = generate_instance(seed, preset="small", case="I")
            table = build_index_table(inst)
            res = run_dual(inst, "I", table=table)
            assert res.status == CONVERGED
            evaluated += sum(r.f_value is not None for r in res.trace)
            value0 = evaluate_dual_function(
                table, np.zeros(len(inst.targets)), "I")
            lifted = reference_cuts.feasible_bound(value0, table, "I")
            row = res.trace[0]
            assert row.f_value == row.ub == value0.value
            assert row.lb == min(max(LB_FLOOR, lifted), value0.value)
        assert evaluated < 35


def _result_bytes(res):
    """Everything a ``run_dual`` result records, with ``best_lam`` as bytes
    and the trace rows without their wall times."""
    rows = [{k: v for k, v in dataclasses.asdict(row).items()
             if k != "wall_time"} for row in res.trace]
    return repr((res.status, res.dual_bound, res.lower_bound,
                 res.initial_bound, res.best_lam.tobytes(), res.iterations,
                 rows, res.solution))


def _reference_projection(center, pool, d):
    """The projection before the cut pool, on the pool's gradients."""
    return reference_master.project_dual(center, pool.gradients, d)


class TestGramSolve:
    """The projection's Gram solve calls LAPACK past ``np.linalg.solve``'s
    wrapper, under the floating-point state that the projection enters once
    for all of its steps; a numpy release that moves or changes the private
    gufunc fails here."""

    @staticmethod
    def _solve_as_a_step(G, rhs):
        """``bundle._gram_solve`` under ``bundle._linalg_state``, as a
        projection step calls it; the caller's state comes back, also when
        the solve raises."""
        state, call = np.geterr(), np.geterrcall()
        try:
            with bundle._linalg_state():
                return bundle._gram_solve(G, rhs)
        finally:
            assert (np.geterr(), np.geterrcall()) == (state, call)

    def test_matches_numpy_solve_bytes(self):
        # Gram systems as a projection step builds them: unit rows over the
        # free coordinates, and a unit row projected on them
        rng = np.random.default_rng(0)
        for n in range(1, 7):
            for _ in range(50):
                rows = rng.normal(size=(n + 1, 60))
                rows /= np.linalg.norm(rows, axis=1)[:, None]
                Aw, a_p = rows[:n], rows[n]
                Af = Aw * (rng.random(60) < 0.7)
                G, rhs = Af @ Aw.T, Af @ a_p
                got = self._solve_as_a_step(G, rhs)
                assert got.tobytes() == np.linalg.solve(G, rhs).tobytes()

    def test_singular_gram_raises(self):
        rows = np.array([[0.6, 0.8, 0.0], [0.6, 0.8, 0.0]])
        G, rhs = rows @ rows.T, rows @ np.array([1.0, 0.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(G, rhs)
        with pytest.raises(np.linalg.LinAlgError):
            self._solve_as_a_step(G, rhs)


class TestArrayMaster:
    """The cut pool, the one-pass cut builder and the projection on
    preallocated buffers against the code they replaced, byte for byte:
    the projection of ``tests/reference_master.py`` and the route-by-route
    cut loop of ``tests/reference_cuts.py``."""

    @staticmethod
    def _same_projection(center, C, d):
        x, w, work, exact = _project_dual(center, _pool(C), d)
        x_ref, w_ref, work_ref, exact_ref = reference_master.project_dual(
            center, C, d)
        assert (x is None) == (x_ref is None)
        if x is not None:
            assert x.tobytes() == x_ref.tobytes()
        assert w.tobytes() == w_ref.tobytes()
        assert (work, exact) == (work_ref, exact_ref)
        return x

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_wide_level_sets())
    def test_projection_matches_the_reference_bytes(self, level_set):
        # feasible and empty level sets alike: the projection or the
        # weights, the working set and the flag, also from a center whose
        # zeros are -0.0, whose signs the steps keep
        center, C, d, _ = level_set
        self._same_projection(center, C, d)
        self._same_projection(np.where(center == 0.0, -0.0, center), C, d)

    @pytest.mark.parametrize("params", [
        (35, 12, 0.01, 1000.0, 1.0, 0.3, "empty", 4191505880),
        (39, 5, 0.01, 1000.0, 1000.0, 0.1, "empty", 2559851831),
        (37, 12, 0.01, 1000.0, 1.0, 0.1, "empty", 2373363519)])
    def test_every_exit_matches_the_reference_bytes(self, params):
        # a certified empty set, a singular Gram matrix and the step cap
        center, C, d, _ = _wide_level_set(*params)
        assert self._same_projection(center, C, d) is None

    def test_pool_grown_in_batches_stacks_as_one(self):
        # norms and unit rows computed per batch equal those of the whole
        # stack, a zero gradient keeps norm 1, and adding cuts replaces the
        # pool's arrays without changing the ones it held
        rng = np.random.default_rng(0)
        C, o = rng.normal(size=(9, 5)), rng.normal(size=9)
        C[3] = 0.0
        pool = CutPool(C[:2], o[:2])
        held = pool.gradients, pool.offsets, pool.norms, pool.rows
        copies = [a.copy() for a in held]
        pool.add(C[2:7], o[2:7])
        pool.add(C[7:], o[7:])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(held, copies))
        norms = np.sqrt(np.einsum("ij,ij->i", C, C))
        norms[norms == 0.0] = 1.0
        assert len(pool) == 9 and norms[3] == 1.0
        assert pool.gradients.tobytes() == C.tobytes()
        assert pool.offsets.tobytes() == o.tobytes()
        assert pool.norms.tobytes() == norms.tobytes()
        assert pool.rows.tobytes() == np.vstack(
            [C / norms[:, None], np.eye(5)]).tobytes()

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 8),
           st.sampled_from(["I", "II"]), st.sampled_from([15.0, 25.0, 40.0]),
           st.sampled_from([0.01, 0.1, 1.0]),
           st.sampled_from([0.0, 0.5, 5.0]), st.sampled_from([0.04, 0.2]))
    def test_cut_pass_matches_the_route_loop(self, seed, n, m, case, radius,
                                             min_coverage, scale, deadline):
        # routes of different lengths, with and without idle stops, from
        # the case-I fill, the case-II screen and the case-II search: the
        # cut pass reads each route's recorded arc ids and travel time, and
        # the reference loop re-derives both from the route's nodes and
        # times
        inst = generate_instance(
            seed, n, m, case=case,
            deadline_scale=deadline if case == "II" else None,
            coverage_radius=radius, min_coverage=min_coverage)
        assume(inst.targets)
        table = build_index_table(inst)
        lam = -scale * np.random.default_rng(seed).random(len(inst.targets))
        try:
            value = evaluate_dual_function(table, lam, case)
        except InfeasibleInstanceError:
            return
        for timing in value.routes.results.values():
            if timing is None:
                continue
            assert timing.arcs == tuple(table.arc_ids(timing.nodes))
            assert timing.total == sum(timing.times)
            if case == "II":
                # what the feasible-cut lift takes for granted
                assert timing.total <= inst.deadline
        *got, lifted = bundle._candidate_cuts(value, table, case)
        want = reference_cuts.candidate_cuts(value, table)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert lifted == reference_cuts.feasible_bound(value, table, case)

    @pytest.mark.parametrize("case, args, kw", [
        pytest.param("I", (s, 6, 60),
                     dict(coverage_radius=20.0, min_coverage=0.01),
                     id=f"wide-I-{s}") for s in range(2)] + [
        pytest.param("I", (0,), dict(preset="small"), id="small-I-0"),
        pytest.param("II", (0, 7, 10), {}, id="desk-II-0")])
    def test_run_dual_matches_the_references(self, case, args, kw,
                                             monkeypatch):
        # the benchmark's workload shapes: every evaluation's cuts and
        # every projection equal the references' on the same inputs, and a
        # run with the references patched in records the same bytes
        inst = generate_instance(*args, case=case, **kw)
        table = build_index_table(inst)
        values, projections = [], []
        real_eval, real_projection = (bundle.evaluate_dual_function,
                                      bundle._project_dual)

        def evaluate(*args, **kw):
            values.append(real_eval(*args, **kw))
            return values[-1]

        def project(center, pool, d):
            projections.append((center, pool.gradients, d))
            return real_projection(center, pool, d)

        monkeypatch.setattr(bundle, "evaluate_dual_function", evaluate)
        monkeypatch.setattr(bundle, "_project_dual", project)
        got = run_dual(inst, case, table=table)
        monkeypatch.undo()
        assert len(values) > 1 and projections
        for value in values:
            *cuts, lifted = bundle._candidate_cuts(value, table, case)
            ref = reference_cuts.candidate_cuts(value, table)
            assert [a.tobytes() for a in cuts] == [a.tobytes() for a in ref]
            assert lifted == reference_cuts.feasible_bound(value, table, case)
        for center, C, d in projections:
            self._same_projection(center, C, d)
        monkeypatch.setattr(bundle, "make_cut", reference_cuts.make_cuts)
        monkeypatch.setattr(bundle, "_project_dual", _reference_projection)
        want = run_dual(inst, case, table=table)
        assert _result_bytes(got) == _result_bytes(want)


class TestGreedyRepair:
    """The array repair against the per-pair loop of
    ``tests/reference_repair.py``, bit for bit: the value and every field of
    the route, coverages and objective included."""

    @staticmethod
    def _same(table, witness):
        got = bundle._greedy_primal_repair(table, witness)
        want = reference_repair.greedy_primal_repair(table, witness)
        assert repr(got) == repr(want)
        return got

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 8),
           st.sampled_from(["I", "II"]), st.sampled_from([15.0, 25.0, 40.0]),
           st.sampled_from([0.01, 0.1, 1.0]),
           st.sampled_from([0.0, 0.5, 5.0]))
    def test_matches_the_loop_on_desk_instances(self, seed, n, m, case,
                                                 radius, min_coverage, scale):
        inst = generate_instance(
            seed, n, m, case=case, deadline_scale=0.2 if case == "II" else None,
            coverage_radius=radius, min_coverage=min_coverage)
        assume(inst.targets)
        table = build_index_table(inst)
        lam = -scale * np.random.default_rng(seed).random(len(inst.targets))
        try:
            value = evaluate_dual_function(table, lam, case)
        except InfeasibleInstanceError:
            return
        self._same(table, value.best)

    @pytest.mark.parametrize("case, args, kw", [
        ("I", (2,), dict(preset="small")),
        ("II", (0, 7, 10), {}),
        ("I", (4, 6, 60), dict(coverage_radius=20.0, min_coverage=0.01)),
        ("I", (1, 5, 8), dict(coverage_radius=40.0, min_coverage=0.01)),
        ("II", (1, 5, 8), dict(coverage_radius=40.0, min_coverage=0.01))])
    def test_matches_the_loop_on_every_witness_of_a_run(self, case, args, kw,
                                                        monkeypatch):
        # the shapes of the three benchmark workloads (small-I, desk-II,
        # wide-I), then two runs whose witnesses mostly repair to a route
        inst = generate_instance(*args, case=case, **kw)
        real, witnesses = bundle.evaluate_dual_function, []

        def recorded(*args, **kw):
            value = real(*args, **kw)
            witnesses.append(value.best)
            return value

        monkeypatch.setattr(bundle, "evaluate_dual_function", recorded)
        table = build_index_table(inst)
        run_dual(inst, case, table=table)
        assert len(witnesses) > 1
        for witness in witnesses:
            self._same(table, witness)

    def test_builds_one_route_for_the_best_pair(self, monkeypatch):
        # the lam = 0 witness of the console-script check's repair.json
        # instance: six (timing, idle stop) pairs meet the requirements, and
        # only the best of them becomes a route
        inst = generate_instance(1, 5, 8, coverage_radius=40.0,
                                 min_coverage=0.01)
        table = build_index_table(inst)
        value = evaluate_dual_function(
            table, np.zeros(len(inst.targets)), "I")
        real, built = bundle._route_solution, []

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(bundle, "_route_solution", counted)
        lb, sol = self._same(table, value.best)
        assert len(built) == 1
        assert lb == sol.objective == pytest.approx(80.45542620505148,
                                                    rel=1e-12)

    @pytest.mark.parametrize("case, found", [("I", 18), ("II", 17)])
    def test_finds_the_loop_routes_at_iteration_zero(self, case, found):
        # wide coverage disks and low requirements: the repair of the
        # lam = 0 witness finds a route on about half the seeds
        routes = 0
        for seed in range(40):
            inst = generate_instance(seed, 5, 8, case=case,
                                     coverage_radius=40.0, min_coverage=0.01)
            table = build_index_table(inst)
            value = evaluate_dual_function(
                table, np.zeros(len(inst.targets)), case)
            lb, sol = self._same(table, value.best)
            if sol is not None:
                routes += 1
                assert lb == sol.objective
                assert validate_solution(
                    inst, sol, ValidateOptions(enforce_coverage=True),
                    table=table).ok
        assert routes == found


class TestFeasibleCutLift:
    """``LB`` from the cuts of primal-feasible routes: a route that meets
    every requirement (its gradient is ``<= 0``) within the deadline is a
    primal solution, so its value, its cut's offset, is at most the primal
    optimum and bounds the dual optimum from below."""

    @pytest.mark.parametrize("case", ["I", "II"])
    def test_lifted_bounds_stay_below_the_primal(self, rng, case):
        # every LB that a feasible cut sets, on an evaluated row, is at most
        # the exact primal optimum.  Certificate LBs bound the dual instead,
        # and exceed the primal where there is a duality gap, so they are
        # not checked here
        done = lifted = 0
        while done < 6:
            inst = random_desk_instance(
                rng, n_range=(3, 6), m_range=(3, 6), case=case,
                radius_choices=(40.0,), min_coverage=0.01)
            table = build_index_table(inst)
            try:
                primal = oracle_primal(inst, table).value
            except InfeasibleInstanceError:
                continue
            res = run_dual(inst, case, iter_limit=300, table=table)
            lb = LB_FLOOR
            for row in res.trace:
                if row.f_value is not None and row.lb > lb:
                    lifted += 1
                    assert row.lb <= primal + 1e-12 * abs(primal)
                lb = row.lb
            done += 1
        assert lifted >= done

    def test_route_past_the_deadline_lifts_nothing(self):
        # a tight case-I deadline: the lam = 0 winner meets every
        # requirement but takes more than the deadline, so it lifts nothing
        # and row 0 stays at the floor.  Its value is the dual value, about
        # twice the primal optimum, and would have closed the run at once
        inst = generate_instance(0, 3, 6, case="I", deadline_scale=0.05,
                                 coverage_radius=40.0, min_coverage=0.01)
        table = build_index_table(inst)
        value0 = evaluate_dual_function(
            table, np.zeros(len(inst.targets)), "I")
        gradients, offsets, lifted = bundle._candidate_cuts(value0, table,
                                                            "I")
        assert np.all(gradients[0] <= 0.0) and offsets[0] == value0.value
        assert sum(value0.best.times) > inst.deadline
        assert lifted == -math.inf
        assert offsets[0] > oracle_primal(inst, table).value
        res = run_dual(inst, "I", table=table)
        assert res.trace[0].lb == LB_FLOOR and res.iterations >= 1

    def test_binding_case2_converges_at_row_zero(self):
        # lam = 0 is optimal, and the lam = 0 winner meets every requirement
        # within the deadline: its cut lifts LB to UB at row 0
        inst = generate_instance(10, 7, 10, case="II", deadline_scale=0.04,
                                 min_coverage=0.01)
        res = run_dual(inst, "II")
        assert res.status == CONVERGED and res.iterations == 0
        assert res.lower_bound == res.dual_bound == res.initial_bound

    @pytest.mark.parametrize("case, seeds, iterations", [
        ("I", 30, 208), ("II", 30, 304)])
    def test_battery_leaves_the_floor_at_row_zero(self, case, seeds,
                                                  iterations):
        # wide coverage disks and low requirements: feasible cuts at
        # lam = 0 set LB off the floor on most seeds (18 and 17 of 40 with
        # the greedy repair of the lam = 0 winner), and the runs take fewer
        # iterations than the 208 and 304 they took with that repair
        off = total = 0
        for seed in range(40):
            inst = generate_instance(seed, 5, 8, case=case,
                                     coverage_radius=40.0, min_coverage=0.01)
            res = run_dual(inst, case, iter_limit=300)
            assert res.status == CONVERGED
            off += res.trace[0].lb != LB_FLOOR
            total += res.iterations
        assert off >= seeds and total < iterations
