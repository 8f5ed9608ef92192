import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (case2_search_value, random_desk_instance,
                      random_multipliers, relax_value)
from coverage_routing.errors import InfeasibleInstanceError
from coverage_routing.instance import build_index_table, generate_instance
from coverage_routing.labeling_case2 import (Case2Solver, LabelC2,
                                             dominates_case2, envelope,
                                             knapsack_times, make_root,
                                             reconstruct, solve_case2)
from coverage_routing.oracle import oracle_relaxation
from coverage_routing.relaxation import build_coeffs
from coverage_routing.simplex import dense_lp_solve


def _solver_with(net, dist, t_lo, t_hi, T, vbar=0):
    """Solver over a 4-interior-waypoint playground with hand-set matrices."""
    inst = generate_instance(51, 4, 3, coverage_radius=30.0)
    table = build_index_table(inst)
    coeffs = build_coeffs(table, inst, np.zeros(len(table.target_ids)), "II")
    s = Case2Solver(coeffs, vbar, T, table)
    s.net_m = net
    s.key_m = net
    s.tlo_m = t_lo
    s.thi_m = t_hi
    s.dist = dist
    return s


def _plain_matrices(n_nodes, net_val=1.0, lo=1.0, hi=4.0, d=10.0):
    net = np.full((n_nodes, n_nodes), net_val)
    t_lo = np.full((n_nodes, n_nodes), lo)
    t_hi = np.full((n_nodes, n_nodes), hi)
    dist = np.full((n_nodes, n_nodes), d)
    np.fill_diagonal(dist, 0.0)
    return net, t_lo, t_hi, dist


def _label(node, mask, value, time, u1=(math.inf, 0.0, 0.0),
           u0=(-math.inf, 0.0, 0.0)):
    return LabelC2(node, mask, value, time, u1[0], u1[1], u1[2],
                   u0[0], u0[1], u0[2], None, None)


class TestExtensionRules:
    def test_nonpositive_rate_single_fast_child(self):
        net, t_lo, t_hi, dist = _plain_matrices(6)
        net[1, 2] = -3.0
        s = _solver_with(net, dist, t_lo, t_hi, T=1000.0)
        lab = _label(1, 0b0001, 0.0, 0.0)
        kids = s.extend(lab, 2)
        assert len(kids) == 1
        child = kids[0]
        assert child.time == pytest.approx(lab.time + 1.0)
        assert child.value == pytest.approx(-3.0)
        # tradeoff trackers inherited untouched
        assert child.u1_key == math.inf and child.u0_key == -math.inf

    def test_positive_rate_empty_set_forks(self):
        net, t_lo, t_hi, dist = _plain_matrices(6, net_val=2.0)
        s = _solver_with(net, dist, t_lo, t_hi, T=1000.0)
        kids = s.extend(_label(1, 0b0001, 0.0, 0.0), 2)
        assert len(kids) == 2
        assert sorted(k.last_u for k in kids) == [0, 1]

    def test_key_at_least_min_slow_key_forces_slow(self):
        net, t_lo, t_hi, dist = _plain_matrices(6, net_val=2.0)
        net[1, 2] = 5.0
        s = _solver_with(net, dist, t_lo, t_hi, T=1000.0)
        lab = _label(1, 0b0001, 0.0, 0.0, u1=(2.0, 2.0, 3.0))
        kids = s.extend(lab, 2)
        assert [k.last_u for k in kids] == [1]
        assert kids[0].time == pytest.approx(4.0)
        # the new slow arc does not displace the smaller tracked key
        assert kids[0].u1_key == 2.0

    def test_key_at_most_max_fast_key_forces_fast(self):
        net, t_lo, t_hi, dist = _plain_matrices(6, net_val=2.0)
        net[1, 2] = 0.5
        s = _solver_with(net, dist, t_lo, t_hi, T=1000.0)
        lab = _label(1, 0b0001, 0.0, 0.0, u0=(1.0, 1.0, 3.0))
        kids = s.extend(lab, 2)
        assert [k.last_u for k in kids] == [0]
        assert kids[0].time == pytest.approx(1.0)
        assert kids[0].u0_key == 1.0

    def test_middle_key_forks_and_updates_trackers(self):
        net, t_lo, t_hi, dist = _plain_matrices(6, net_val=2.0)
        net[1, 2] = 1.5
        s = _solver_with(net, dist, t_lo, t_hi, T=1000.0)
        lab = _label(1, 0b0001, 0.0, 0.0, u1=(2.0, 2.0, 3.0),
                     u0=(1.0, 1.0, 3.0))
        kids = s.extend(lab, 2)
        assert sorted(k.last_u for k in kids) == [0, 1]
        slow = next(k for k in kids if k.last_u == 1)
        fast = next(k for k in kids if k.last_u == 0)
        assert slow.u1_key == 1.5 and slow.u0_key == 1.0
        assert fast.u0_key == 1.5 and fast.u1_key == 2.0

    def test_incremental_time_matches_scratch_recompute(self, rng):
        checked = 0
        for _ in range(5):
            inst = random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6),
                                        case="II")
            table = build_index_table(inst)
            coeffs = build_coeffs(table, inst,
                                  np.zeros(len(table.target_ids)), "II")
            net = coeffs.net_rates(0)
            solver = Case2Solver(coeffs, 0, inst.deadline, table)
            solver.solve()
            for store in solver.stores:
                for idx in np.flatnonzero(store.alive[:store.size]):
                    label = store.labels[idx]
                    chain = []
                    cur = label
                    while cur.parent is not None:
                        chain.append(cur)
                        cur = cur.parent
                    t = 0.0
                    v = 0.0
                    prev = 0
                    for lab in reversed(chain):
                        arc = table.arc_id[(prev, lab.node)]
                        arc_t = (coeffs.t_hi if lab.last_u == 1 else
                                 coeffs.t_lo)[arc]
                        t += arc_t
                        v += net[arc] * arc_t
                        prev = lab.node
                    assert t == pytest.approx(label.time, abs=1e-12)
                    assert v == pytest.approx(label.value, abs=1e-10)
                    checked += 1
        assert checked


class TestFeasibleExtension:
    def test_huge_deadline_always_true(self):
        net, t_lo, t_hi, dist = _plain_matrices(6)
        s = _solver_with(net, dist, t_lo, t_hi, T=1e12)
        assert s.feasible_extension(_label(1, 0b0001, 0.0, 0.0), 2, 1)

    def test_closing_legs_alone_exceed(self):
        net, t_lo, t_hi, dist = _plain_matrices(6)
        s = _solver_with(net, dist, t_lo, t_hi, T=1.5)
        # arc takes 1.0 fast and the closing leg d/speed_max = 10/10 = 1.0
        assert not s.feasible_extension(_label(1, 0b0001, 0.0, 0.0), 2, 0)

    def test_boundary_equality_is_feasible(self):
        net, t_lo, t_hi, dist = _plain_matrices(6)
        s = _solver_with(net, dist, t_lo, t_hi, T=2.0)
        assert s.feasible_extension(_label(1, 0b0001, 0.0, 0.0), 2, 0)

    def test_unvisited_idle_stop_adds_two_legs(self):
        net, t_lo, t_hi, dist = _plain_matrices(6)
        s = _solver_with(net, dist, t_lo, t_hi, T=2.5, vbar=3)
        lab = _label(1, 0b0001, 0.0, 0.0)
        # fast arc 1.0 plus d(2,3)/10 + d(3,exit)/10 = 2.0 closing
        assert not s.feasible_extension(lab, 2, 0)
        lab_seen = _label(1, 0b0101, 0.0, 0.0)
        assert s.feasible_extension(lab_seen, 2, 0)


class TestDominance:
    def test_trivial_corner_case(self):
        l1 = _label(2, 0b001, 10.0, 5.0)
        l2 = _label(2, 0b011, 4.0, 9.0, u1=(1.0, 1.0, 2.0), u0=(0.5, 0.5, 2.0))
        # l1's single point beats both extremes of l2's frontier
        assert dominates_case2(l1, l2)

    def test_identical_labels_do_not_dominate(self):
        l1 = _label(2, 0b011, 4.0, 9.0)
        l2 = _label(2, 0b011, 4.0, 9.0)
        assert not dominates_case2(l1, l2)
        assert not dominates_case2(l2, l1)

    def test_subset_condition_required(self):
        l1 = _label(2, 0b110, 100.0, 1.0)
        l2 = _label(2, 0b011, 0.0, 9.0)
        assert not dominates_case2(l1, l2)

    def test_idle_membership_mismatch_declined(self):
        l1 = _label(2, 0b010, 100.0, 1.0)
        l2 = _label(2, 0b110, 0.0, 9.0)
        assert dominates_case2(l1, l2, vbar=0)
        assert not dominates_case2(l1, l2, vbar=3)

    def test_frontier_comparison_matches_dense_sampling(self):
        rng = random.Random(8)
        checked = agreements = 0
        while checked < 200:
            def rand_label():
                f_lo = rng.uniform(0.2, 3.0)
                f_hi = rng.uniform(f_lo, 4.0)
                return _label(
                    2, 0b011, rng.uniform(0, 10), rng.uniform(2, 10),
                    u1=(f_hi, f_hi, rng.uniform(0, 3)),
                    u0=(f_lo, f_lo, rng.uniform(0, 3)))

            l1, l2 = rand_label(), rand_label()
            if not (l1.value >= l2.value and l1.time <= l2.time
                    and (l1.value > l2.value or l1.time < l2.time)):
                continue
            verdict = dominates_case2(l1, l2)

            e1, e2 = envelope(l1), envelope(l2)

            def points(env, k=500):
                (ta, ca, tb, cb, tc, cc) = env
                out = []
                for (t0, c0, t1, c1) in ((ta, ca, tb, cb), (tb, cb, tc, cc)):
                    for i in range(k):
                        s = i / (k - 1)
                        out.append((t0 + s * (t1 - t0), c0 + s * (c1 - c0)))
                return out

            p1 = points(e1)
            margin = 0.0
            sampled_ok = True
            for (t2, c2) in points(e2):
                best = max((c for (t1c, c) in p1 if t1c <= t2 + 1e-9),
                           default=-math.inf)
                margin = min(margin if margin else math.inf, best - c2)
                if best < c2 - 1e-9:
                    sampled_ok = False
            checked += 1
            # skip knife-edge cases where sampling resolution decides
            if abs(margin) < 1e-3:
                continue
            assert verdict == sampled_ok
            agreements += 1
        assert agreements > 100


@st.composite
def _knapsack_inputs(draw):
    """Rates, speed bounds and a budget from all-fast to past all-slow."""
    k = draw(st.integers(1, 7))
    net = draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k))
    t_lo = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    span = draw(st.lists(st.floats(0.0, 3.0), min_size=k, max_size=k))
    t_lo = np.array(t_lo)
    t_hi = t_lo + np.array(span)
    T = float(t_lo.sum()) + draw(st.floats(0.0, 1.2)) * float(sum(span))
    return np.array(net), t_lo, t_hi, T


class TestKnapsackTiming:
    def test_three_arc_fixture(self):
        net = np.array([3.0, 1.0, -2.0])
        t_lo = np.array([0.1, 0.1, 0.1])
        t_hi = np.array([1.0, 1.0, 1.0])
        times, value = knapsack_times(net, t_lo, t_hi, 1.6)
        assert np.allclose(times, [1.0, 0.5, 0.1])
        assert value == pytest.approx(3.3, abs=1e-12)
        # one unit more of budget flows to the middle arc
        times, value = knapsack_times(net, t_lo, t_hi, 1.7)
        assert np.allclose(times, [1.0, 0.6, 0.1])
        assert value == pytest.approx(3.4, abs=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_knapsack_inputs())
    def test_matches_lp_oracle(self, inputs):
        """Under the slope key the timing is an optimal vertex of the timing
        LP: the LP optimum, with at most one arc strictly between its
        bounds."""
        net, t_lo, t_hi, T = inputs
        times, value = knapsack_times(net, t_lo, t_hi, T)
        lp = dense_lp_solve(net, [np.ones(len(net))], [T],
                            bounds=list(zip(t_lo, t_hi)))
        assert lp.status == "optimal"
        assert value == pytest.approx(lp.objective, abs=1e-8)
        assert np.sum((times > t_lo + 1e-9) & (times < t_hi - 1e-9)) <= 1

    def test_infeasible_budget(self):
        assert knapsack_times(np.array([1.0]), np.array([2.0]),
                              np.array([3.0]), 1.0) is None


class TestSolveCase2:
    def test_reduces_to_case1_when_deadline_slack(self, rng):
        for _ in range(5):
            inst = random_desk_instance(rng, n_range=(2, 4), m_range=(2, 5),
                                        case="I")
            table = build_index_table(inst)
            m = len(table.target_ids)
            lam = random_multipliers(rng, m)
            v1 = relax_value(table, inst, lam, "I")
            coeffs2 = build_coeffs(table, inst, lam, "II")
            totals = []
            for vbar in coeffs2.idle_set:
                r = Case2Solver(coeffs2, vbar, inst.deadline, table).solve()
                assert r is not None
                gain = inst.deadline * coeffs2.idle_gain[vbar] if vbar else 0.0
                totals.append(gain + r.value)
            v2 = coeffs2.constant + max(totals)
            assert v2 == pytest.approx(v1.value, rel=1e-9, abs=1e-9)

    def test_three_way_battery(self, rng):
        compared = 0
        while compared < 20:
            inst = random_desk_instance(rng, n_range=(2, 5), m_range=(2, 7),
                                        case="II")
            table = build_index_table(inst)
            m = len(table.target_ids)
            lam = random_multipliers(rng, m) if rng.random() < 0.5 else np.zeros(m)
            try:
                orc = oracle_relaxation(table, inst, lam, "II")
            except InfeasibleInstanceError:
                continue
            v_on = relax_value(table, inst, lam, "II", use_dominance=True)
            v_off = relax_value(table, inst, lam, "II", use_dominance=False)
            scale = max(1.0, abs(orc.value))
            assert abs(v_on.value - orc.value) <= 1e-8 * scale
            assert abs(v_off.value - orc.value) <= 1e-8 * scale
            for dominance in (True, False):
                v = case2_search_value(table, inst, lam,
                                       use_dominance=dominance)
                assert abs(v.value - orc.value) <= 1e-8 * scale
            compared += 1

    def test_threshold_structure_of_solutions(self, rng):
        seen_interior = 0
        for _ in range(25):
            inst = random_desk_instance(rng, n_range=(2, 5), m_range=(2, 6),
                                        case="II")
            table = build_index_table(inst)
            coeffs = build_coeffs(table, inst,
                                  np.zeros(len(table.target_ids)), "II")
            for vbar in coeffs.idle_set:
                res = Case2Solver(coeffs, vbar, inst.deadline, table).solve()
                if res is None:
                    continue
                ids = [table.arc_id[a] for a in
                       zip(res.nodes[:-1], res.nodes[1:])]
                net = coeffs.net_rates(vbar)[ids]
                lo = coeffs.t_lo[ids]
                hi = coeffs.t_hi[ids]
                times = np.asarray(res.times)
                at_lo = times <= lo + 1e-9
                at_hi = times >= hi - 1e-9
                interior = ~(at_lo | at_hi)
                assert interior.sum() <= 1
                if interior.any():
                    seen_interior += 1
                    kappa = net[interior][0]
                    assert np.all(net[at_hi & (np.abs(net - kappa) > 1e-9)]
                                  >= kappa - 1e-9)
                    assert np.all(net[at_lo & (np.abs(net - kappa) > 1e-9)]
                                  <= kappa + 1e-9)
        assert seen_interior > 0

    def test_slope_mode_keeps_frontier_ordered(self, rng):
        for _ in range(5):
            inst = random_desk_instance(rng, n_range=(2, 5), m_range=(2, 6),
                                        case="II")
            table = build_index_table(inst)
            coeffs = build_coeffs(table, inst,
                                  np.zeros(len(table.target_ids)), "II")
            for vbar in coeffs.idle_set:
                solver = Case2Solver(coeffs, vbar, inst.deadline, table)
                solver.solve()
                assert solver.envelope_violations == 0

    def test_infeasible_returns_none(self):
        inst = generate_instance(53, 3, 4, case="II", coverage_radius=30.0)
        table = build_index_table(inst)
        coeffs = build_coeffs(table, inst, np.zeros(len(table.target_ids)), "II")
        assert Case2Solver(coeffs, 0, 1e-6, table).solve() is None
        assert solve_case2(coeffs, coeffs.idle_set, 1e-6, table).results == \
            dict.fromkeys(coeffs.idle_set)
