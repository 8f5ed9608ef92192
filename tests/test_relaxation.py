import random

import numpy as np
import pytest

from conftest import (make_instance, random_desk_instance, random_multipliers,
                      relax_value)
from coverage_routing.bundle import (evaluate_dual_function,
                                     timing_to_solution)
from coverage_routing.instance import build_index_table, generate_instance
from coverage_routing.oracle import oracle_primal, oracle_relaxation
from coverage_routing.relaxation import (PathTiming, assemble_f_value,
                                         build_coeffs, make_cut)
from coverage_routing.errors import InfeasibleInstanceError


def _table(inst):
    return build_index_table(inst)


class TestBuildCoeffs:
    def test_rejects_positive_multipliers(self):
        inst = generate_instance(1, 3, 4, coverage_radius=30.0)
        table = _table(inst)
        lam = np.zeros(len(table.target_ids))
        lam[0] = 0.5
        with pytest.raises(ValueError):
            build_coeffs(table, lam, "I")

    def test_idle_set_empty_without_waypoint_coverage(self):
        # targets coverable from arcs only: no waypoint within radius
        inst = make_instance(
            [("depot", (0.0, 0.0)), (20.0, 0.0), (20.0, 20.0)],
            [(10.0, 3.0)], deadline=5000.0, coverage_radius=4.0)
        table = _table(inst)
        assert len(inst.targets) == 1
        coeffs = build_coeffs(table, np.zeros(1), "I")
        assert coeffs.idle_set == (0,)
        assert coeffs.idle_gain == {0: 0.0}

    def test_net_rates_one_row_per_candidate(self):
        # one net-rate matrix, rows in idle-set order: the gross rate of
        # each arc minus the candidate's idle gain, and net_rates looks a
        # row up
        inst = generate_instance(11, 4, 6, coverage_radius=25.0)
        table = _table(inst)
        lam = random_multipliers(random.Random(2), len(table.target_ids))
        coeffs = build_coeffs(table, lam, "I")
        assert len(coeffs.idle_set) > 2
        assert coeffs.net.shape == (len(coeffs.idle_set), len(table.arcs))
        gross = table.coverage_rate @ (table.priorities - lam)
        for vbar, row in zip(coeffs.idle_set, coeffs.net):
            assert row.tobytes() == (gross - coeffs.idle_gain[vbar]).tobytes()
            assert np.array_equal(coeffs.net_rates(vbar), row)

    def test_sign_rule_selects_bounds(self):
        inst = generate_instance(11, 4, 6, coverage_radius=25.0)
        table = _table(inst)
        coeffs = build_coeffs(table, np.zeros(len(table.target_ids)), "I")
        for vbar in coeffs.idle_set:
            net = coeffs.net_rates(vbar)
            times = coeffs.bound_times(net)
            assert np.all(times[net > 0] == table.max_time[net > 0])
            assert np.all(times[net <= 0] == table.min_time[net <= 0])

    def test_flipping_any_bound_never_helps(self):
        inst = generate_instance(13, 4, 6, coverage_radius=25.0)
        table = _table(inst)
        rng = random.Random(0)
        lam = random_multipliers(rng, len(table.target_ids))
        coeffs = build_coeffs(table, lam, "I")
        for vbar in coeffs.idle_set:
            net = coeffs.net_rates(vbar)
            base = net * coeffs.bound_times(net)
            flipped_hi = net * table.max_time
            flipped_lo = net * table.min_time
            assert np.all(base >= flipped_hi - 1e-12)
            assert np.all(base >= flipped_lo - 1e-12)

    def test_case2_bound_times_follow_sign_rule(self):
        # bound times are the deadline-free optimum in case II as well; the
        # case-II screen checks its candidates' routes against the deadline
        # at these times
        inst = generate_instance(11, 3, 4, case="II", coverage_radius=30.0)
        table = _table(inst)
        lam = random_multipliers(random.Random(1), len(table.target_ids))
        coeffs = build_coeffs(table, lam, "II")
        times = coeffs.bound_times(coeffs.net)
        for vbar, row in zip(coeffs.idle_set, times):
            net = coeffs.net_rates(vbar)
            assert np.array_equal(row, coeffs.bound_times(net))
            assert np.all(row[net > 0] == table.max_time[net > 0])
            assert np.all(row[net <= 0] == table.min_time[net <= 0])


class TestAssemble:
    def test_single_waypoint_network_at_zero(self):
        inst = make_instance([("depot", (0.0, 0.0)), (8.0, 0.0)],
                             [(4.0, 1.0)], deadline=10_000.0,
                             coverage_radius=3.0)
        table = _table(inst)
        value = relax_value(table, inst, np.zeros(1), "I")
        # only route is 0 -> 1 -> 2; at lam = 0 the value is the best timed
        # tour's coverage
        orc = oracle_relaxation(table, inst, np.zeros(1), "I")
        assert value.value == pytest.approx(orc.value, rel=1e-12)
        assert value.best.nodes == (0, 1, 2)

    def test_positive_scaling_preserves_argmax_path(self):
        inst = generate_instance(17, 4, 5, coverage_radius=25.0,
                                 min_coverage=0.0)
        table = _table(inst)
        m = len(table.target_ids)
        base = relax_value(table, inst, np.zeros(m), "I")
        # scaling all weights by alpha > 0 with zero requirements is achieved
        # by scaling priorities; rebuild the instance with doubled priorities
        doubled = generate_instance(17, 4, 5, coverage_radius=25.0,
                                    min_coverage=0.0)
        table2 = _table(doubled)
        table2.priorities = table2.priorities * 2.0
        scaled = relax_value(table2, doubled, np.zeros(m), "I")
        assert scaled.best.nodes == base.best.nodes
        assert scaled.value == pytest.approx(2.0 * base.value, rel=1e-9)

    def test_weak_duality_against_feasible_solutions(self, rng):
        for _ in range(6):
            inst = random_desk_instance(rng, n_range=(2, 4), m_range=(2, 5),
                                        case="I")
            table = _table(inst)
            m = len(table.target_ids)
            lam = random_multipliers(rng, m, scale=2.0)
            f_val = relax_value(table, inst, lam, "I").value
            try:
                prim = oracle_primal(inst, table)
            except InfeasibleInstanceError:
                continue
            cov = np.asarray(prim.coverage)
            lagrangian = float(table.priorities @ cov
                               - lam @ (cov - table.required))
            assert f_val >= lagrangian - 1e-8

    def test_infeasible_signal(self):
        inst = make_instance([("depot", (0.0, 0.0)), (50.0, 0.0)],
                             [(25.0, 2.0)], deadline=1.0,
                             coverage_radius=5.0)
        table = _table(inst)
        with pytest.raises(InfeasibleInstanceError):
            relax_value(table, inst, np.zeros(1), "II")


class TestConvexityAndCuts:
    def test_f_is_convex_along_segments(self, rng):
        inst = random_desk_instance(rng, n_range=(3, 4), m_range=(3, 6),
                                    case="I")
        table = _table(inst)
        m = len(table.target_ids)
        for _ in range(10):
            l1 = random_multipliers(rng, m)
            l2 = random_multipliers(rng, m)
            mu = rng.random()
            f1 = relax_value(table, inst, l1, "I").value
            f2 = relax_value(table, inst, l2, "I").value
            fm = relax_value(table, inst, mu * l1 + (1 - mu) * l2, "I").value
            assert fm <= mu * f1 + (1 - mu) * f2 + 1e-8

    @pytest.mark.parametrize("case", ["I", "II"])
    def test_cut_tight_and_underestimating(self, rng, case):
        inst = random_desk_instance(rng, n_range=(2, 4), m_range=(2, 5),
                                    case=case)
        table = _table(inst)
        m = len(table.target_ids)
        for _ in range(3):
            lam = random_multipliers(rng, m)
            try:
                value = evaluate_dual_function(table, lam, case)
            except InfeasibleInstanceError:
                pytest.skip("deadline admits no route")
            (gradient,), (offset,) = make_cut([value.best], table)
            assert float(gradient @ lam) + offset == pytest.approx(
                value.value, abs=1e-8)
            for _ in range(20):
                probe = random_multipliers(rng, m, scale=8.0)
                f_probe = oracle_relaxation(table, inst, probe, case).value
                assert float(gradient @ probe) + offset <= f_probe + 1e-8

    @pytest.mark.parametrize("case", ["I", "II"])
    def test_cut_gradient_is_the_witness_shortfall(self, rng, case):
        # a cut and the witness route read one coverage kernel: for every
        # candidate's route, in one cut pass over all of them, the gradient
        # is the requirements minus the witness's per-target coverage, bit
        # for bit
        done = idle = 0
        while done < 8:
            inst = random_desk_instance(rng, n_range=(2, 5), m_range=(2, 6),
                                        case=case)
            table = _table(inst)
            lam = random_multipliers(rng, len(table.target_ids))
            try:
                value = evaluate_dual_function(table, lam, case)
            except InfeasibleInstanceError:
                continue
            timings = [timing for timing in value.routes.results.values()
                       if timing is not None]
            for timing, gradient, offset in zip(
                    timings, *make_cut(timings, table)):
                sol = timing_to_solution(timing, table)
                cov = np.array([c for _, c in sol.per_target_coverage])
                assert np.array_equal(gradient, table.required - cov)
                assert offset == sol.objective
                idle += timing.vbar != 0
            done += 1
        assert idle > 0

    def test_no_idle_cut_lacks_deadline_term(self):
        # single target coverable from an arc only: idling never pays, so the
        # witness coverage is purely the per-arc rates times the times
        inst = make_instance(
            [("depot", (0.0, 0.0)), (20.0, 0.0), (20.0, 20.0)],
            [(10.0, 3.0)], deadline=9000.0, coverage_radius=4.0)
        table = _table(inst)
        value = evaluate_dual_function(table, np.zeros(1), "I")
        _, (offset,) = make_cut([value.best], table)
        assert value.best.vbar == 0
        expect = 0.0
        for (i, j), t in zip(zip(value.best.nodes[:-1], value.best.nodes[1:]),
                             value.best.times):
            expect += table.coverage_rate[table.arc_id[(i, j)], 0] * t
        # offset = priority * coverage for the single target
        coverage = offset / table.priorities[0]
        assert coverage == pytest.approx(expect, rel=1e-12)
        assert coverage < inst.deadline  # no T-sized term crept in
