import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_desk_instance, random_multipliers, relax_value
from coverage_routing.instance import build_index_table, generate_instance
from coverage_routing.labeling_case1 import solve_case1
from coverage_routing.oracle import oracle_relaxation
from coverage_routing.relaxation import build_coeffs


def brute_force_best(values, n, exit_id, vbar):
    """Best route value, summed in path order, and the number of routes
    that reach it exactly."""
    rows = values.tolist()
    best = -np.inf
    ties = 0
    for r in range(1, n + 1):
        for perm in itertools.permutations(range(1, n + 1), r):
            if vbar != 0 and vbar not in perm:
                continue
            nodes = (0,) + perm + (exit_id,)
            val = sum(rows[i][j] for i, j in zip(nodes[:-1], nodes[1:]))
            if val > best:
                best = val
                ties = 1
            elif val == best:
                ties += 1
    return best, ties


class TestSolveCase1:
    def test_two_waypoint_network_exhaustive(self):
        inst = generate_instance(41, 2, 4, coverage_radius=35.0)
        table = build_index_table(inst)
        coeffs = build_coeffs(table, inst, np.zeros(len(table.target_ids)), "I")
        for vbar in coeffs.idle_set:
            values = table.matrix(coeffs.arc_values(vbar), fill=-1e300)
            expect, _ = brute_force_best(values, 2, 3, vbar)
            got = solve_case1(coeffs, vbar, table)
            assert got.value == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_negative_arc_values_still_exact(self, rng):
        # strongly negative multipliers push many net rates negative
        for _ in range(5):
            inst = random_desk_instance(rng, n_range=(2, 4), m_range=(2, 5))
            table = build_index_table(inst)
            lam = random_multipliers(rng, len(table.target_ids), scale=10.0)
            coeffs = build_coeffs(table, inst, lam, "I")
            for vbar in coeffs.idle_set:
                values = table.matrix(coeffs.arc_values(vbar), fill=-1e300)
                expect, _ = brute_force_best(values, table.n, table.exit_id,
                                             vbar)
                got = solve_case1(coeffs, vbar, table)
                assert got.value == pytest.approx(expect, rel=1e-9, abs=1e-9)

    def test_route_visits_idle_candidate(self, rng):
        for _ in range(5):
            inst = random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6))
            table = build_index_table(inst)
            coeffs = build_coeffs(table, inst,
                                  np.zeros(len(table.target_ids)), "I")
            for vbar in coeffs.idle_set:
                got = solve_case1(coeffs, vbar, table)
                if vbar != 0:
                    assert vbar in got.nodes

    def test_bad_idle_candidate_rejected(self):
        inst = generate_instance(41, 2, 4, coverage_radius=35.0)
        table = build_index_table(inst)
        coeffs = build_coeffs(table, inst, np.zeros(len(table.target_ids)), "I")
        with pytest.raises(ValueError):
            solve_case1(coeffs, 7, table)

    def test_reconstruction_resums_value(self, rng):
        inst = random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6))
        table = build_index_table(inst)
        lam = random_multipliers(rng, len(table.target_ids))
        coeffs = build_coeffs(table, inst, lam, "I")
        for vbar in coeffs.idle_set:
            got = solve_case1(coeffs, vbar, table)
            values = table.matrix(coeffs.arc_values(vbar), fill=-1e300)
            interior = got.nodes[1:-1]
            resum = sum(values[i, j] for i, j in
                        zip((0,) + interior, interior)) + \
                values[got.nodes[-2], table.exit_id]
            assert resum == pytest.approx(got.value, abs=1e-9)

    def test_dominance_never_stores_more_labels(self, rng):
        """The table keeps exactly one label per (node, visited set) state
        and its value equals the best path-order sum bit for bit.  The last
        input is one where a rule comparing rounded ``value + detour cost``
        sums across visited sets would prune the optimal label at idle
        candidate 3."""
        cases = []
        for _ in range(5):
            inst = random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6))
            table = build_index_table(inst)
            lam = random_multipliers(rng, len(table.target_ids))
            cases.append((inst, table, lam))
        inst = generate_instance(986341, 4, 2, case="I", coverage_radius=25.0)
        table = build_index_table(inst)
        cases.append((inst, table, np.zeros(len(table.target_ids))))
        for inst, table, lam in cases:
            coeffs = build_coeffs(table, inst, lam, "I")
            n = table.n
            for vbar in coeffs.idle_set:
                got = solve_case1(coeffs, vbar, table)
                values = table.matrix(coeffs.arc_values(vbar), fill=-1e300)
                expect, _ = brute_force_best(values, n, table.exit_id, vbar)
                assert got.labels_alive == got.labels_stored == n * 2 ** (n - 1)
                assert got.value == expect

    # (seed, waypoints, targets, coverage radius, multiplier, idle candidate,
    # route): inputs with several exactly optimal routes, and the route the
    # former per-label search returned for each
    TIED = [
        (5, 2, 2, 25.0, 0.0, 1, (0, 2, 1, 3)),
        (7, 4, 4, 15.0, -2.0, 0, (0, 4, 1, 2, 3, 5)),
        (9, 6, 2, 10.0, 0.0, 0, (0, 5, 3, 2, 1, 7)),
        (12, 4, 1, 10.0, -2.0, 0, (0, 4, 3, 1, 5)),
        (14, 6, 3, 25.0, -2.0, 4, (0, 4, 5, 2, 7)),
        (18, 5, 3, 10.0, -2.0, 0, (0, 5, 1, 6)),
        (19, 6, 4, 15.0, 0.0, 1, (0, 6, 4, 2, 3, 1, 7)),
        (23, 5, 4, 25.0, 0.0, 0, (0, 5, 2, 4, 6)),
        (26, 3, 3, 25.0, -2.0, 3, (0, 2, 3, 1, 4)),
        (38, 5, 3, 25.0, 0.0, 5, (0, 5, 1, 4, 3, 6)),
    ]

    @pytest.mark.parametrize("seed,n,m,radius,lam,vbar,route", TIED)
    def test_tied_optimum_keeps_route(self, seed, n, m, radius, lam, vbar,
                                      route):
        """Among exactly tied optima the table returns the route the former
        per-label search did: smallest predecessor per state, then the first
        best completion by end node, visited-set size and sorted visited
        set."""
        inst = generate_instance(seed, n, m, case="I", coverage_radius=radius)
        table = build_index_table(inst)
        coeffs = build_coeffs(table, inst,
                              np.full(len(table.target_ids), lam), "I")
        values = table.matrix(coeffs.arc_values(vbar), fill=-1e300)
        expect, ties = brute_force_best(values, n, table.exit_id, vbar)
        got = solve_case1(coeffs, vbar, table)
        assert ties > 1
        assert got.value == expect
        assert got.nodes == route

    def test_three_way_battery(self, rng):
        for _ in range(25):
            inst = random_desk_instance(rng, n_range=(2, 6), m_range=(2, 8))
            table = build_index_table(inst)
            m = len(table.target_ids)
            lam = random_multipliers(rng, m) if rng.random() < 0.5 else np.zeros(m)
            got = relax_value(table, inst, lam, "I")
            orc = oracle_relaxation(table, inst, lam, "I")
            assert abs(got.value - orc.value) <= 1e-8 * max(1.0, abs(orc.value))


@st.composite
def _case1_inputs(draw):
    """A generated case-I instance with at least one target, and multipliers
    that are zero or random and non-positive."""
    inst = generate_instance(draw(st.integers(0, 10 ** 6)),
                             draw(st.integers(1, 6)), draw(st.integers(1, 6)),
                             case="I",
                             coverage_radius=draw(st.sampled_from(
                                 [5.0, 10.0, 15.0, 25.0])))
    m = len(inst.targets)
    assume(m > 0)
    if draw(st.booleans()):
        lam = np.zeros(m)
    else:
        lam = np.array(draw(st.lists(st.floats(-10.0, 0.0),
                                     min_size=m, max_size=m)))
    return inst, lam


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_case1_inputs())
def test_dominance_is_exact_and_matches_oracle(inputs):
    inst, lam = inputs
    table = build_index_table(inst)
    coeffs = build_coeffs(table, inst, lam, "I")
    for vbar in coeffs.idle_set:
        values = table.matrix(coeffs.arc_values(vbar), fill=-1e300)
        expect, _ = brute_force_best(values, table.n, table.exit_id, vbar)
        assert solve_case1(coeffs, vbar, table).value == expect
    got = relax_value(table, inst, lam, "I")
    orc = oracle_relaxation(table, inst, lam, "I")
    assert abs(got.value - orc.value) <= 1e-8 * max(1.0, abs(orc.value))
