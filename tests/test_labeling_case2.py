import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (case2_search_value, make_instance,
                      random_desk_instance, random_multipliers, relax_value)
from coverage_routing import bundle, labeling_case1, labeling_case2
from coverage_routing.bundle import evaluate_dual_function
from coverage_routing.errors import InfeasibleInstanceError
from coverage_routing.instance import build_index_table, generate_instance
from coverage_routing.labeling_case1 import solve_case1
from coverage_routing.labeling_case2 import (Case2Solver, LabelC2, curve,
                                             dominates_case2, knapsack_times,
                                             reconstruct, solve_case2)
from coverage_routing.oracle import oracle_relaxation
from coverage_routing.relaxation import (PathTiming, RelaxCoeffs,
                                         build_coeffs)
from coverage_routing.simplex import dense_lp_solve


def _solver_with(net, dist, t_lo, t_hi, T, vbar=0, keys=None):
    """Solver over a 4-interior-waypoint playground with hand-set matrices."""
    inst = generate_instance(51, 4, 3, coverage_radius=30.0)
    table = build_index_table(inst)
    coeffs = build_coeffs(table, np.zeros(len(table.target_ids)), "II")
    s = Case2Solver(coeffs, vbar)
    s.T = T
    s.net_m = net
    s.key_m = net if keys is None else keys
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


def _label(node, mask, time, value, arcs=()):
    return LabelC2(node, mask, time, value, tuple(arcs), None)


def _walk(net, t_lo, t_hi, keys=None):
    """Label of the path 0 -> 1 -> ... -> k over the given arcs, extended
    one arc at a time under a deadline that never binds."""
    k = len(net)
    size = max(k + 1, 6)
    mats = [np.zeros((size, size)) for _ in range(4)]
    for m, arc in zip(mats, (net, t_lo, t_hi,
                             net if keys is None else keys)):
        m[np.arange(k), np.arange(1, k + 1)] = arc
    s = _solver_with(mats[0], np.zeros((size, size)), mats[1], mats[2],
                     T=1e12, keys=mats[3])
    label = _label(0, 0, 0.0, 0.0)
    for j in range(1, k + 1):
        [label] = s.extend(label, j)
    return label


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
        # no tradeoff arc joins the pour
        assert child.arcs == ()

    def test_incremental_time_matches_scratch_recompute(self, rng):
        """Every alive label's all-fast time and value are its path's, and
        its tradeoff arcs are the path's positive-rate arcs in pouring
        order."""
        checked = 0
        for _ in range(5):
            inst = random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6),
                                        case="II")
            table = build_index_table(inst)
            coeffs = build_coeffs(table, np.zeros(len(table.target_ids)), "II")
            net = coeffs.net_rates(0)
            solver = Case2Solver(coeffs, 0)
            solver.solve()
            for store in solver.stores:
                for idx in np.flatnonzero(store.alive[:store.size]):
                    label = store.labels[idx]
                    ids = table.arc_ids(reconstruct(label))
                    t = v = 0.0
                    for arc in ids:
                        t += table.min_time[arc]
                        v += net[arc] * table.min_time[arc]
                    assert t == pytest.approx(label.time, abs=1e-12)
                    assert v == pytest.approx(label.value, abs=1e-10)
                    span = table.max_time[ids] - table.min_time[ids]
                    order = sorted((k for k in range(len(ids))
                                    if net[ids[k]] > 0.0 and span[k] > 0.0),
                                   key=lambda k: (-net[ids[k]], k))
                    assert [a[1:] for a in label.arcs] == \
                        [(net[ids[k]], span[k]) for k in order]
                    checked += 1
        assert checked


class TestFeasibleExtension:
    def test_huge_deadline_always_true(self):
        net, t_lo, t_hi, dist = _plain_matrices(6)
        s = _solver_with(net, dist, t_lo, t_hi, T=1e12)
        assert s.extend(_label(1, 0b0001, 0.0, 0.0), 2)

    def test_closing_legs_alone_exceed(self):
        net, t_lo, t_hi, dist = _plain_matrices(6)
        s = _solver_with(net, dist, t_lo, t_hi, T=1.5)
        # arc takes 1.0 fast and the closing leg d/speed_max = 10/10 = 1.0
        assert s.extend(_label(1, 0b0001, 0.0, 0.0), 2) == []

    def test_boundary_equality_is_feasible(self):
        net, t_lo, t_hi, dist = _plain_matrices(6)
        s = _solver_with(net, dist, t_lo, t_hi, T=2.0)
        assert s.extend(_label(1, 0b0001, 0.0, 0.0), 2)

    def test_unvisited_idle_stop_adds_two_legs(self):
        net, t_lo, t_hi, dist = _plain_matrices(6)
        s = _solver_with(net, dist, t_lo, t_hi, T=2.5, vbar=3)
        lab = _label(1, 0b0001, 0.0, 0.0)
        # fast arc 1.0 plus d(2,3)/10 + d(3,exit)/10 = 2.0 closing
        assert s.extend(lab, 2) == []
        lab_seen = _label(1, 0b0101, 0.0, 0.0)
        assert s.extend(lab_seen, 2)


@st.composite
def _arc_sequences(draw, max_arcs=7):
    """Rates, speed bounds and per-distance keys of a path, plus a budget
    from below all-fast to past all-slow.  Rates and distances come partly
    from short lists, so equal keys are common."""
    k = draw(st.integers(1, max_arcs))
    rate = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([-1.0, 1.0, 2.0]))
    dist = st.one_of(st.floats(0.5, 5.0), st.sampled_from([1.0, 2.0]))
    net = np.array(draw(st.lists(rate, min_size=k, max_size=k)))
    t_lo = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k,
                                  max_size=k)))
    span = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=k,
                                  max_size=k)))
    d = np.array(draw(st.lists(dist, min_size=k, max_size=k)))
    B = float(t_lo.sum()) + draw(st.floats(-0.2, 1.2)) * float(span.sum())
    return net, t_lo, t_lo + span, net / d, B


@st.composite
def _tradeoff_paths(draw):
    """Rates, speed bounds and a budget of a path of two to four tradeoff
    arcs, the budget between its all-fast and all-slow times."""
    k = draw(st.integers(2, 4))
    net, t_lo, span = (np.array(draw(st.lists(st.floats(lo, hi), min_size=k,
                                              max_size=k)))
                       for lo, hi in ((0.1, 4.0), (0.05, 1.0), (0.1, 3.0)))
    B = float(t_lo.sum()) + draw(st.floats(0.2, 1.0)) * float(span.sum())
    return net, t_lo, t_lo + span, B


class TestCurve:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_arc_sequences(), st.booleans())
    def test_curve_is_the_knapsack(self, arcs, per_distance):
        """Extending arc by arc and reading the curve at ``B`` gives the
        knapsack timing's value under either key, ties by position."""
        net, t_lo, t_hi, dkeys, B = arcs
        keys = dkeys if per_distance else net
        label = _walk(net, t_lo, t_hi, keys)
        timed = knapsack_times(net, t_lo, t_hi, B, keys)
        if timed is None:
            assert curve(label, B) == -math.inf
        else:
            scale = max(1.0, float(np.abs(net) @ t_hi))
            assert abs(curve(label, B) - timed[1]) <= 1e-12 * scale


def _completed(net, t_lo, t_hi, rest, T):
    """Slope-key knapsack value at ``T`` of a path followed by the arcs of
    ``rest``; -inf when it cannot meet ``T``."""
    timed = knapsack_times(*(np.concatenate([a, b]) for a, b in
                             zip((net, t_lo, t_hi), rest)), T)
    return -math.inf if timed is None else timed[1]


class TestDominance:
    def test_trivial_corner_case(self):
        l1 = _label(2, 0b001, 5.0, 10.0)
        l2 = _label(2, 0b011, 9.0, 4.0, arcs=[(1.0, 1.0, 2.0)])
        # l1's flat curve stays above l2's curve, which tops out at 6
        assert dominates_case2(l1, l2, 20.0)
        assert not dominates_case2(l2, l1, 20.0)

    def test_identical_labels_keep_one(self):
        net, t_lo, t_hi, dist = _plain_matrices(6)
        s = _solver_with(net, dist, t_lo, t_hi, T=20.0)
        l1 = _label(2, 0b011, 9.0, 4.0, arcs=[(1.0, 1.0, 2.0)])
        l2 = dataclasses.replace(l1)
        assert dominates_case2(l1, l2, 20.0)
        assert dominates_case2(l2, l1, 20.0)
        s._insert(l1)
        s._insert(l2)
        assert s.stores[2].labels == [l1]

    def test_subset_condition_required(self):
        l1 = _label(2, 0b110, 1.0, 100.0)
        l2 = _label(2, 0b011, 9.0, 0.0)
        assert not dominates_case2(l1, l2, 20.0)

    def test_idle_membership_mismatch_declined(self):
        l1 = _label(2, 0b010, 1.0, 100.0)
        l2 = _label(2, 0b110, 9.0, 0.0)
        assert dominates_case2(l1, l2, 20.0, vbar=0)
        assert not dominates_case2(l1, l2, 20.0, vbar=3)

    def test_frontier_comparison_matches_dense_sampling(self):
        """The verdict, taken at the curves' breakpoints, agrees with the
        curves compared on a dense grid of budgets up to ``T``."""
        rng = random.Random(8)
        checked = agreements = 0
        while checked < 200:
            def rand_label():
                arcs = sorted(((f, f, rng.uniform(0, 3)) for f in
                               (rng.uniform(0.2, 4.0)
                                for _ in range(rng.randint(0, 3)))),
                              key=lambda a: -a[0])
                return _label(2, 0b011, rng.uniform(2, 10),
                              rng.uniform(0, 10), arcs)

            l1, l2 = rand_label(), rand_label()
            if l1.time > l2.time:
                continue
            T = l2.time + rng.uniform(0, 8)
            verdict = dominates_case2(l1, l2, T)
            margin = min(curve(l1, b) - curve(l2, b)
                         for b in np.linspace(l2.time, T, 2000))
            checked += 1
            # skip knife-edge cases where sampling resolution decides
            if abs(margin) < 1e-3:
                continue
            assert verdict == (margin > 0.0)
            agreements += 1
        assert agreements > 100

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_tradeoff_paths(), _arc_sequences(3), st.data())
    def test_dominance_survives_any_completion(self, path, rest, data):
        """Under the slope key, whenever ``l1`` dominates ``l2``, ``l1``
        followed by any completion reaches at least ``l2`` followed by it
        by ``T``.  The completions are a rate-0 wait of 25 lengths, then
        the arcs of ``rest``.  ``l1`` is ``l2``'s path with its arcs
        perturbed and a value bonus, so the two curves often cross; or,
        for a ``lift``, ``l2``'s path with every rate raised by it (0: an
        identical copy), which always dominates."""
        net2, lo2, hi2, B = path
        k = len(net2)

        def factors(lo, hi):
            return np.array(data.draw(st.lists(st.floats(lo, hi),
                                               min_size=k, max_size=k)))

        lift = data.draw(st.one_of(st.none(), st.just(0.0),
                                   st.floats(0.01, 1.0)))
        if lift is None:
            net1 = net2 + factors(-1.0, 1.0)
            lo1 = lo2 * factors(0.7, 1.0)
            hi1 = lo1 + (hi2 - lo2) * factors(0.5, 1.5)
            bonus = data.draw(st.floats(0.0, 2.0))
        else:
            net1, lo1, hi1, bonus = net2 + lift, lo2, hi2, 0.0
        l1 = _walk(net1, lo1, hi1)
        l1 = dataclasses.replace(l1, node=9, mask=0b1,
                                 value=l1.value + bonus)
        l2 = dataclasses.replace(_walk(net2, lo2, hi2), node=9, mask=0b11)
        net_r, lo_r, hi_r = rest[:3]
        T = B + float(lo_r.sum())
        verdict = dominates_case2(l1, l2, T)
        if lift is not None:
            assert verdict
        if not verdict:
            return
        scale = max(1.0, float(np.abs(net2) @ hi2 + np.abs(net_r) @ hi_r))
        for wait in np.linspace(0.0, max(0.0, B - l2.time), 25):
            tail = (np.append(0.0, net_r), np.append(wait, lo_r),
                    np.append(wait, hi_r))
            v1 = _completed(net1, lo1, hi1, tail, T) + bonus
            v2 = _completed(net2, lo2, hi2, tail, T)
            assert v1 >= v2 - 1e-12 * scale


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

    def test_poured_times_fit_the_deadline_in_floats(self):
        """Random routes through generated instances (4-9 waypoints,
        ``deadline_scale`` 0.04-0.2), timed for every candidate at zero
        multipliers: the times' built-in sum and ``math.fsum`` are at most
        the deadline, every time stays within its arc's bounds (a full arc
        takes exactly ``hi``) and at most one arc lies strictly between
        them, and the value is the rates times the returned times.  The pour alone overruns the
        deadline by an ulp on about one timing in a hundred."""
        rng = np.random.default_rng(0)
        timed = 0
        for seed in range(60):
            n = 4 + seed % 6
            inst = generate_instance(
                seed, n, 6, case="II", coverage_radius=20.0,
                deadline_scale=float(rng.uniform(0.04, 0.2)))
            table = build_index_table(inst)
            coeffs = build_coeffs(table, np.zeros(len(table.target_ids)),
                                  "II")
            T = inst.deadline
            for vbar in coeffs.idle_set:
                net = coeffs.net_rates(vbar)
                for _ in range(10):
                    stops = rng.permutation(np.arange(1, n + 1))
                    stops = stops[:rng.integers(1, n + 1)].tolist()
                    ids = table.arc_ids([0, *stops, n + 1])
                    lo, hi = table.min_time[ids], table.max_time[ids]
                    res = knapsack_times(net[ids], lo, hi, T)
                    if res is None:
                        continue
                    times, value = res
                    seq = times.tolist()
                    assert sum(seq) <= T and math.fsum(seq) <= T
                    assert np.all(lo <= times)
                    assert np.all(times <= hi)
                    assert np.sum((times > lo) & (times < hi)) <= 1
                    assert value == float(net[ids] @ times)
                    timed += 1
        assert timed > 2000


    def test_accepts_what_fits_by_total(self):
        """Random 8-11-arc routes with random rate signs.  At a budget of
        the built-in ``sum`` of the fast times, the sum that
        :attr:`PathTiming.total` records, the all-fast timing fits and is
        never refused; at that budget and at numpy's sum of the fast
        times, every returned timing's built-in sum is at most the budget.
        numpy sums eight or more floats pairwise, so the two sums differ
        on many of these routes."""
        rng = np.random.default_rng(0)
        differ = 0
        for _ in range(2000):
            k = int(rng.integers(8, 12))
            t_lo = rng.uniform(1.0, 60.0, k)
            t_hi = t_lo + rng.uniform(0.0, 30.0, k)
            net = rng.choice([-1.0, 1.0], k) * rng.uniform(0.1, 5.0, k)
            total = sum(t_lo.tolist())
            differ += total != float(t_lo.sum())
            assert knapsack_times(net, t_lo, t_hi, total) is not None
            for budget in (total, float(t_lo.sum())):
                res = knapsack_times(net, t_lo, t_hi, budget)
                if res is not None:
                    assert sum(res[0].tolist()) <= budget
        assert differ > 200


class TestSolveCase2:
    def test_reduces_to_case1_when_deadline_slack(self, rng):
        for _ in range(5):
            inst = random_desk_instance(rng, n_range=(2, 4), m_range=(2, 5),
                                        case="I")
            table = build_index_table(inst)
            m = len(table.target_ids)
            lam = random_multipliers(rng, m)
            v1 = relax_value(table, inst, lam, "I")
            coeffs2 = build_coeffs(table, lam, "II")
            totals = []
            for vbar in coeffs2.idle_set:
                r = Case2Solver(coeffs2, vbar).solve()
                assert r is not None
                gain = inst.deadline * coeffs2.idle_gain[vbar] if vbar else 0.0
                totals.append(gain + r.value)
            v2 = coeffs2.constant + max(totals)
            assert v2 == pytest.approx(v1.value, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_screen_keeps_the_case1_answer_bit_for_bit(self, seed):
        # on a case-I instance no route binds, so the screen settles every
        # candidate and returns the fill's own answer: the value, the best
        # timed route and every candidate's value and timing are case I's
        inst = generate_instance(seed, 6, 12, coverage_radius=20.0)
        table = build_index_table(inst)
        rng = random.Random(seed)
        for _ in range(5):
            lam = random_multipliers(rng, len(table.target_ids))
            one, two = (evaluate_dual_function(table, lam, case)
                        for case in ("I", "II"))
            assert repr(two) == repr(one)
            assert repr(two.routes.values) == repr(one.routes.values)
            assert repr(two.routes.results) == repr(one.routes.results)

    def test_screen_times_no_route(self, monkeypatch):
        # at lam = 0 the screen settles every candidate of this instance,
        # and a settled candidate keeps the fill's timing: no knapsack runs
        calls = []
        real = labeling_case2.knapsack_times

        def counted(*args):
            calls.append(args)
            return real(*args)

        inst = generate_instance(0, 5, 8, case="II")
        table = build_index_table(inst)
        monkeypatch.setattr(labeling_case2, "knapsack_times", counted)
        value = evaluate_dual_function(table, np.zeros(len(table.target_ids)),
                                       "II")
        assert len(value.routes.values) > 1
        assert calls == []

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
            coeffs = build_coeffs(table, np.zeros(len(table.target_ids)), "II")
            for vbar in coeffs.idle_set:
                res = Case2Solver(coeffs, vbar).solve()
                if res is None:
                    continue
                ids = [table.arc_id[a] for a in
                       zip(res.nodes[:-1], res.nodes[1:])]
                net = coeffs.net_rates(vbar)[ids]
                lo = table.min_time[ids]
                hi = table.max_time[ids]
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

    def test_binding_deadline_battery(self, rng, monkeypatch):
        """Under deadlines that bind for most candidates, the search for
        every candidate agrees with the oracle at zero and at random
        multipliers, dominance on and off, and dominance kills labels."""
        killed = 0
        solve = Case2Solver.solve

        def counted(self):
            nonlocal killed
            res = solve(self)
            killed += sum(st.size - int(st.alive[:st.size].sum())
                          for st in self.stores)
            return res

        monkeypatch.setattr(Case2Solver, "solve", counted)
        compared = 0
        while compared < 30:
            inst = random_desk_instance(
                rng, n_range=(3, 6), m_range=(2, 7), case="II",
                scale_choices=(0.02, 0.03, 0.05, 0.08))
            table = build_index_table(inst)
            m = len(table.target_ids)
            for lam in (np.zeros(m), random_multipliers(rng, m)):
                try:
                    orc = oracle_relaxation(table, inst, lam, "II")
                except InfeasibleInstanceError:
                    continue
                scale = max(1.0, abs(orc.value))
                for dominance in (True, False):
                    v = case2_search_value(table, inst, lam,
                                           use_dominance=dominance)
                    assert abs(v.value - orc.value) <= 1e-8 * scale
                compared += 1
        assert killed > 0

    def test_infeasible_returns_none(self):
        inst = generate_instance(53, 3, 4, case="II", coverage_radius=30.0)
        table = build_index_table(dataclasses.replace(inst, deadline=1e-6))
        coeffs = build_coeffs(table, np.zeros(len(table.target_ids)), "II")
        assert Case2Solver(coeffs, 0).solve() is None
        assert solve_case2(coeffs).results == dict.fromkeys(coeffs.idle_set)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_evaluation_computes_the_net_rates_once(self, seed,
                                                        monkeypatch):
        # the desk-II shape at lam = 0, where the screen settles every
        # candidate: the screen's fill and its search keys both read the
        # net-rate matrix of the evaluation's one build_coeffs call, and
        # the screen looks up no row of it
        built, calls, searched = [], [], []
        real_build, real_rates = bundle.build_coeffs, RelaxCoeffs.net_rates
        real_solve = Case2Solver.solve

        def build(*args):
            built.append(real_build(*args))
            return built[-1]

        def counted(self, vbar):
            calls.append(vbar)
            return real_rates(self, vbar)

        def solve(self):
            searched.append(self.vbar)
            return real_solve(self)

        inst = generate_instance(seed, 7, 10, case="II")
        table = build_index_table(inst)
        monkeypatch.setattr(bundle, "build_coeffs", build)
        monkeypatch.setattr(RelaxCoeffs, "net_rates", counted)
        monkeypatch.setattr(Case2Solver, "solve", solve)
        evaluate_dual_function(table, np.zeros(len(table.target_ids)), "II")
        assert len(built) == 1 and searched == []
        assert calls == []

    def test_bad_idle_candidate_rejected(self):
        inst = generate_instance(41, 2, 4, coverage_radius=35.0)
        table = build_index_table(inst)
        coeffs = build_coeffs(table, np.zeros(len(table.target_ids)), "II")
        with pytest.raises(ValueError, match="idle candidate 7"):
            Case2Solver(coeffs, 7)

    def test_waypoint_outside_idle_set_rejected(self):
        # no waypoint covers the target, so the idle set is (0,): waypoint
        # 1 has no net-rate row to search with
        inst = make_instance(
            [("depot", (0.0, 0.0)), (20.0, 0.0), (20.0, 20.0)],
            [(10.0, 3.0)], deadline=5000.0, coverage_radius=4.0)
        table = build_index_table(inst)
        coeffs = build_coeffs(table, np.zeros(1), "II")
        assert coeffs.idle_set == (0,)
        with pytest.raises(ValueError,
                           match=r"idle candidate 1 is not in the idle set"):
            Case2Solver(coeffs, 1)


def _slowest_by_enumeration(table):
    """The largest path-order sum of ``max_time`` over every simple route
    from the entry depot through at least one waypoint to the exit."""
    n, slowest = table.n, -math.inf
    for size in range(1, n + 1):
        for order in itertools.permutations(range(1, n + 1), size):
            total = 0.0
            for arc in table.arc_ids((0, *order, table.exit_id)):
                total += float(table.max_time[arc])
            slowest = max(slowest, total)
    return slowest


def _screened(coeffs, ratio_mode=labeling_case2.RATIO_SLOPE):
    """``solve_case2`` with the slowest-route certificate turned off, so
    that the screen runs whatever the certificate says."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(labeling_case2, "_deadline_free", lambda coeffs: False)
        return solve_case2(coeffs, ratio_mode)


def _content(routes):
    """Every candidate's value and timed route, in candidate order, and
    the label counts, as ``repr`` strings."""
    return (repr(routes.values), repr(list(routes.results.items())),
            routes.labels_stored, routes.labels_alive)


class TestSlowestRouteCertificate:
    def test_certificate_is_sound_and_matches_the_screen(self):
        """Over random case-II draws, the first case-II fill's certificate
        is the enumerated slowest route (up to 6 waypoints); where it
        certifies the deadline, every fill route fits it and
        ``solve_case2`` returns the screen's answer bit for bit."""
        seen = []

        @settings(derandomize=True, deadline=None, max_examples=150)
        @given(st.integers(0, 10**6), st.integers(2, 7), st.integers(2, 8),
               st.floats(0.02, 0.3),
               st.sampled_from([labeling_case2.RATIO_SLOPE,
                                labeling_case2.RATIO_PER_DISTANCE]),
               st.booleans())
        def check(seed, n, m, scale, ratio_mode, zero):
            inst = generate_instance(seed, n, m, case="II",
                                     deadline_scale=scale)
            table = build_index_table(inst)
            k = len(table.target_ids)
            lam = (np.zeros(k) if zero
                   else random_multipliers(random.Random(seed), k))
            coeffs = build_coeffs(table, lam, "II")
            assert table.slowest_route is None
            free = solve_case1(coeffs)
            if n <= 6:
                assert table.slowest_route == _slowest_by_enumeration(table)
            certified = labeling_case2._deadline_free(coeffs)
            seen.append(certified)
            if not certified:
                return
            assert all(route.total <= inst.deadline
                       for route in free.results.values())
            assert _content(solve_case2(coeffs, ratio_mode)) == \
                _content(_screened(coeffs, ratio_mode))

        check()
        assert 20 <= sum(seen) <= len(seen) - 20

    @pytest.mark.parametrize("step", [0, 1, None])
    def test_deadline_at_the_certificate_runs_the_screen(self, step):
        # a desk-II instance rebuilt with its deadline at its certificate
        # and one ulp above it refuses the certificate and runs the screen,
        # which traces every candidate's route; at the certificate with
        # its allowance it is certified and gives the screen's answer
        inst = generate_instance(0, 7, 10, case="II")
        table = build_index_table(inst)
        lam = np.zeros(len(table.target_ids))
        solve_case1(build_coeffs(table, lam, "II"))
        slowest = table.slowest_route
        assert slowest < inst.deadline
        deadline = (slowest if step == 0 else
                    math.nextafter(slowest, math.inf) if step == 1 else
                    slowest * (1.0 + 4 * (inst.n + 2) * 2.0 ** -52))
        table = build_index_table(dataclasses.replace(inst,
                                                      deadline=deadline))
        coeffs = build_coeffs(table, lam, "II")
        traced = []
        real_trace = labeling_case1._trace

        def trace(*args):
            traced.append(args[2])
            return real_trace(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(labeling_case1, "_trace", trace)
            routes = solve_case2(coeffs)
        assert table.slowest_route == slowest
        assert labeling_case2._deadline_free(coeffs) == (step is None)
        assert len(traced) == (0 if step is None else len(coeffs.idle_set))
        assert _content(routes) == _content(_screened(coeffs))

    def test_certified_evaluation_builds_no_route(self, monkeypatch):
        """A certified case-II dual evaluation, in a fill of one chunk,
        builds and traces no route; the first read of the value's ``best``
        builds the maximizing candidate's timed route, and only it."""
        built, traced = [], []
        init = PathTiming.__init__
        real_trace = labeling_case1._trace

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        def trace(*args):
            traced.append(args[2])
            return real_trace(*args)

        monkeypatch.setattr(PathTiming, "__init__", counted)
        monkeypatch.setattr(labeling_case1, "_trace", trace)
        inst = generate_instance(0, 7, 10, case="II")
        table = build_index_table(inst)
        lam = np.zeros(len(table.target_ids))
        coeffs = build_coeffs(table, lam, "II")
        assert len(coeffs.idle_set) > 1
        value = evaluate_dual_function(table, lam, "II")
        assert labeling_case2._deadline_free(coeffs)
        assert value.routes.labels_stored == value.routes.labels_alive == 0
        assert built == [] and traced == []
        best = value.best
        assert len(built) == 1 and built[0] is best
        assert len(traced) == 1
        assert value.best is best
        assert len(built) == 1
