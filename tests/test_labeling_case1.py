import itertools
import random

import numpy as np
import pytest

from conftest import random_desk_instance, random_multipliers, relax_value
from coverage_routing import labeling_case1
from coverage_routing.instance import build_index_table, generate_instance
from coverage_routing.labeling_case1 import (LabelC1, dominates_case1,
                                             path_value, reconstruct,
                                             solve_case1)
from coverage_routing.oracle import oracle_relaxation
from coverage_routing.relaxation import build_coeffs


def brute_force_best(values, n, exit_id, vbar):
    best = -np.inf
    best_path = None
    for r in range(1, n + 1):
        for perm in itertools.permutations(range(1, n + 1), r):
            if vbar != 0 and vbar not in perm:
                continue
            nodes = (0,) + perm + (exit_id,)
            val = sum(values[i, j] for i, j in zip(nodes[:-1], nodes[1:]))
            if val > best:
                best = val
                best_path = nodes
    return best, best_path


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
            assert path_value(got.label, values) + \
                values[got.nodes[-2], table.exit_id] == \
                pytest.approx(got.value, abs=1e-9)

    def test_dominance_never_stores_more_labels(self, rng):
        for _ in range(5):
            inst = random_desk_instance(rng, n_range=(3, 5), m_range=(3, 6))
            table = build_index_table(inst)
            lam = random_multipliers(rng, len(table.target_ids))
            coeffs = build_coeffs(table, inst, lam, "I")
            for vbar in coeffs.idle_set:
                with_dom = solve_case1(coeffs, vbar, table)
                without = solve_case1(coeffs, vbar, table, use_dominance=False)
                assert with_dom.labels_stored <= without.labels_stored
                assert with_dom.value == pytest.approx(without.value, abs=1e-9)

    def test_scan_cap_never_changes_value(self, rng, monkeypatch):
        # desk stores never outgrow the default cap, so force the capped
        # branch: only exact-state merges prune
        monkeypatch.setattr(labeling_case1, "SCAN_CAP", 0)
        for _ in range(8):
            inst = random_desk_instance(rng, n_range=(3, 6), m_range=(3, 6))
            table = build_index_table(inst)
            lam = random_multipliers(rng, len(table.target_ids))
            coeffs = build_coeffs(table, inst, lam, "I")
            for vbar in coeffs.idle_set:
                capped = solve_case1(coeffs, vbar, table)
                without = solve_case1(coeffs, vbar, table, use_dominance=False)
                assert abs(capped.value - without.value) <= \
                    1e-8 * max(1.0, abs(without.value))

    def test_three_way_battery(self, rng):
        for _ in range(25):
            inst = random_desk_instance(rng, n_range=(2, 6), m_range=(2, 8))
            table = build_index_table(inst)
            m = len(table.target_ids)
            lam = random_multipliers(rng, m) if rng.random() < 0.5 else np.zeros(m)
            v_on = relax_value(table, inst, lam, "I", use_dominance=True)
            v_off = relax_value(table, inst, lam, "I", use_dominance=False)
            orc = oracle_relaxation(table, inst, lam, "I")
            scale = max(1.0, abs(orc.value))
            assert abs(v_on.value - orc.value) <= 1e-8 * scale
            assert abs(v_off.value - orc.value) <= 1e-8 * scale


class TestDominanceRule:
    def test_clause_one_true(self):
        l1 = LabelC1(2, 0b011, 10.0, None)
        l2 = LabelC1(2, 0b011, 8.0, None)
        assert dominates_case1(l1, l2, vbar=1, c_extra=None)

    def test_subset_violation_false(self):
        l1 = LabelC1(2, 0b110, 100.0, None)
        l2 = LabelC1(2, 0b011, 1.0, None)
        assert not dominates_case1(l1, l2, vbar=0, c_extra=None)

    def test_different_end_false(self):
        l1 = LabelC1(1, 0b001, 10.0, None)
        l2 = LabelC1(2, 0b011, 1.0, None)
        assert not dominates_case1(l1, l2, vbar=0, c_extra=None)

    def test_detour_clause_numeric(self):
        # l1 skipped vbar=3, l2 visited it; domination must survive the
        # worst-case detour cost
        l1 = LabelC1(1, 0b0001, 9.0, None)
        l2 = LabelC1(1, 0b0101, 10.0, None)
        assert dominates_case1(l1, l2, vbar=3, c_extra=2.0)
        assert not dominates_case1(l1, l2, vbar=3, c_extra=0.5)
        assert not dominates_case1(l1, l2, vbar=3, c_extra=None)

    def test_detour_clause_against_exhaustive_completions(self):
        # random tiny value matrices: whenever the rule claims dominance the
        # dominating label's best completion must match or beat the other's
        rng = random.Random(4)
        n, exit_id, vbar = 4, 5, 3
        for _ in range(300):
            values = np.full((n + 2, n + 2), -1e300)
            for i in range(n + 1):
                for j in list(range(1, n + 1)) + [exit_id]:
                    if i != j:
                        values[i, j] = rng.uniform(-5, 5)

            def best_completion(end, mask, need_vbar):
                free = [i for i in range(1, n + 1)
                        if not (mask >> (i - 1)) & 1]
                best = -np.inf
                for r in range(len(free) + 1):
                    for perm in itertools.permutations(free, r):
                        if need_vbar and vbar not in perm:
                            continue
                        nodes = (end,) + perm + (exit_id,)
                        best = max(best, sum(values[i, j] for i, j in
                                             zip(nodes[:-1], nodes[1:])))
                return best

            mask1 = 0b0001
            mask2 = 0b0101  # visited vbar = 3
            c1 = rng.uniform(-5, 5)
            c2 = rng.uniform(-5, 5)
            l1 = LabelC1(1, mask1, c1, None)
            l2 = LabelC1(1, mask2, c2, None)
            candidates = [values[i, vbar] + values[vbar, exit_id]
                          - values[i, exit_id]
                          for i in [1] + [i for i in range(1, n + 1)
                                          if not (mask2 >> (i - 1)) & 1]
                          if i != vbar]
            c_extra = min(candidates)
            if dominates_case1(l1, l2, vbar, c_extra):
                total1 = c1 + best_completion(1, mask1, True)
                total2 = c2 + best_completion(1, mask2, False)
                assert total1 >= total2 - 1e-9
