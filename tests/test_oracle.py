import math

import numpy as np
import pytest

from conftest import (kernel_pair, make_instance, random_desk_instance,
                      random_multipliers)
from coverage_routing.errors import BudgetExceededError, InfeasibleInstanceError
from coverage_routing.instance import build_index_table, generate_instance
from coverage_routing.oracle import (iter_paths, oracle_primal,
                                     oracle_relaxation)


class TestEnumeration:
    def test_count_matches_formula_and_iteration(self):
        for n in range(1, 6):
            formula = sum(
                math.factorial(k) * math.comb(n, k) for k in range(1, n + 1))
            paths = list(iter_paths(n))
            assert len(paths) == formula
            assert len(set(paths)) == len(paths)

    def test_budget_refuses_large_instances(self):
        inst = generate_instance(71, 9, 4, coverage_radius=30.0)
        table = build_index_table(inst)
        lam = np.zeros(len(table.target_ids))
        with pytest.raises(BudgetExceededError):
            oracle_relaxation(table, inst, lam, "I")


class TestOracleRelaxation:
    def test_zero_weights_zero_value(self):
        inst = make_instance([("depot", (0.0, 0.0)), (8.0, 0.0)],
                             [(4.0, 1.0, 0.0)], deadline=1000.0,
                             coverage_radius=3.0, min_coverage=0.0)
        assert inst.targets[0].priority == 0.0
        table = build_index_table(inst)
        res = oracle_relaxation(table, inst, np.zeros(1), "I")
        assert res.value == 0.0

    def test_too_small_deadline_infeasible(self):
        inst = make_instance([("depot", (0.0, 0.0)), (50.0, 0.0)],
                             [(25.0, 2.0)], deadline=1.0, coverage_radius=5.0)
        table = build_index_table(inst)
        with pytest.raises(InfeasibleInstanceError):
            oracle_relaxation(table, inst, np.zeros(1), "II")

    def test_weak_duality_against_primal(self, rng):
        done = 0
        while done < 8:
            inst = random_desk_instance(rng, n_range=(2, 4), m_range=(2, 5),
                                        case="I")
            table = build_index_table(inst)
            try:
                primal = oracle_primal(inst, table).value
            except InfeasibleInstanceError:
                continue
            for _ in range(4):
                lam = random_multipliers(rng, len(table.target_ids))
                relax = oracle_relaxation(table, inst, lam, "I").value
                assert relax >= primal - 1e-8
            done += 1


class TestOraclePrimal:
    def test_vacuous_requirements_equal_relaxation_at_zero(self, rng):
        for _ in range(5):
            inst = random_desk_instance(rng, n_range=(2, 4), m_range=(2, 5),
                                        case="I", min_coverage=0.0)
            table = build_index_table(inst)
            prim = oracle_primal(inst, table)
            relax = oracle_relaxation(table, inst,
                                      np.zeros(len(table.target_ids)), "I")
            assert prim.value == pytest.approx(relax.value, rel=1e-8, abs=1e-8)

    def test_single_waypoint_closed_form(self):
        # one waypoint, one target a unit away from it; with no minimum
        # coverage the best plan is to travel both legs at full speed and
        # idle the rest of the deadline at the waypoint
        T = 100.0
        inst = make_instance([("depot", (0.0, 0.0)), (10.0, 0.0)],
                             [(10.0, 1.0, 2.0)], deadline=T,
                             coverage_radius=5.0, min_coverage=0.0)
        table = build_index_table(inst)
        prim = oracle_primal(inst, table)
        arc_rate = kernel_pair(inst.point(0), inst.point(1),
                               inst.targets[0].point, 1.0, 5.0).rate
        idle_rate = 1.0  # factor / d^2 at distance 1
        min_leg = 10.0 / 10.0
        assert idle_rate > arc_rate  # idling must dominate slowing down
        expect = 2.0 * (2.0 * arc_rate * min_leg
                        + idle_rate * (T - 2.0 * min_leg))
        assert prim.value == pytest.approx(expect, rel=1e-9)
        assert prim.nodes == (0, 1, 2)

    def test_multi_idle_allowed(self):
        # targets exactly on the coverage boundary above their waypoints:
        # tangent chords cover nothing, so each target is only reachable by
        # idling at its own stop and the exact optimum must split idle time
        inst = make_instance(
            [("depot", (0.0, 0.0)), (30.0, 0.0), (60.0, 0.0)],
            [(30.0, 2.5), (60.0, 2.5)],
            deadline=50.0, coverage_radius=2.5, min_coverage=1.0)
        table = build_index_table(inst)
        assert np.all(table.coverage_rate == 0.0)  # arcs never cover
        prim = oracle_primal(inst, table)
        assert len(prim.idles) == 2
        cov = np.asarray(prim.coverage)
        assert np.all(cov >= table.required - 1e-9)

    def test_unreachable_requirements_raise(self):
        inst = make_instance(
            [("depot", (0.0, 0.0)), (30.0, 0.0)],
            [(30.0, 2.4)], deadline=50.0, coverage_radius=2.5,
            min_coverage=1e9)
        with pytest.raises(InfeasibleInstanceError):
            oracle_primal(inst)
