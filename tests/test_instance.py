import json
import math

import numpy as np
import pytest

from conftest import make_instance, too_many_waypoints_document
from coverage_routing.errors import SchemaError
from coverage_routing.geometry import Point2, arc_coverage_index
from coverage_routing.instance import (PathSolution, ValidateOptions,
                                       arc_energy, build_index_table,
                                       generate_instance, instance_to_json,
                                       load_instance, load_solution,
                                       serialize_instance, solution_to_json,
                                       validate_solution)


class TestGeneration:
    def test_deterministic_for_fixed_seed(self):
        a = instance_to_json(generate_instance(1, 5, 6))
        b = instance_to_json(generate_instance(1, 5, 6))
        assert a == b

    def test_presets(self):
        small = generate_instance(3, preset="small")
        assert small.n == 9
        assert small.vehicle.coverage_radius == 10.0
        medium = generate_instance(3, preset="medium")
        assert medium.n == 12
        assert medium.vehicle.coverage_radius == 20.0
        large = generate_instance(3, preset="large")
        assert large.n == 15
        assert large.vehicle.coverage_radius == 20.0

    def test_priorities_integer_one_to_five(self):
        inst = generate_instance(7, 6, 30)
        prios = {t.priority for t in inst.targets}
        assert prios <= {1.0, 2.0, 3.0, 4.0, 5.0}

    def test_deadline_formula(self):
        inst = generate_instance(5, 4, 4, case="II", deadline_scale=0.2)
        n = inst.n
        max_d = 0.0
        for (i, j) in inst.arcs():
            d = math.dist((inst.point(i).x, inst.point(i).y),
                          (inst.point(j).x, inst.point(j).y))
            max_d = max(max_d, d)
        assert inst.deadline == pytest.approx(inst.arc_count * max_d * 0.2,
                                              rel=1e-12)

    def test_arc_count_matches_formula(self):
        inst = generate_instance(2, 5, 3)
        arcs = list(inst.arcs())
        assert len(arcs) == inst.arc_count == inst.n ** 2 + 2 * inst.n
        assert (0, inst.exit_id) not in arcs
        assert all(i != j for (i, j) in arcs)

    def test_depots_share_location(self):
        inst = generate_instance(9, 4, 3)
        assert inst.point(0) == inst.point(inst.exit_id)


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        inst = generate_instance(21, 6, 8, case="II")
        path = tmp_path / "inst.json"
        path.write_text(instance_to_json(inst))
        again = load_instance(path)
        assert again == inst

    def test_round_trip_via_dict(self):
        inst = generate_instance(22, 4, 5)
        assert load_instance(serialize_instance(inst)) == inst

    def test_minimal_document(self):
        inst = make_instance([(0.0, 0.0), (5.0, 0.0)], [(5.0, 1.0)],
                             deadline=100.0)
        assert inst.n == 1
        assert len(inst.targets) == 1

    def test_malformed_time_field(self):
        doc = serialize_instance(generate_instance(1, 3, 3))
        doc["waypoints"][1]["window_open"] = "soon"
        with pytest.raises(SchemaError):
            load_instance(doc)

    def test_missing_key(self):
        doc = serialize_instance(generate_instance(1, 3, 3))
        del doc["vehicle"]
        with pytest.raises(SchemaError):
            load_instance(doc)

    def test_speed_bounds_rejected(self):
        doc = serialize_instance(generate_instance(1, 3, 3))
        doc["vehicle"]["speed_min"] = 20.0
        with pytest.raises(SchemaError):
            load_instance(doc)

    def test_only_energy_and_window_close_may_be_infinite(self):
        doc = serialize_instance(generate_instance(1, 3, 3))
        doc["vehicle"]["energy_max"] = math.inf
        doc["waypoints"][1]["window_close"] = math.inf
        load_instance(doc)
        for block, key, bad in ((doc["vehicle"], "energy_max", math.nan),
                                (doc["waypoints"][1], "window_close", math.nan),
                                (doc["waypoints"][1], "window_close", -math.inf),
                                (doc["targets"][0], "min_coverage", math.inf)):
            good, block[key] = block[key], bad
            with pytest.raises(SchemaError, match="must be finite"):
                load_instance(doc)
            block[key] = good

    def test_target_on_arc_cleaned_with_report(self):
        # target exactly halfway between the two interior waypoints
        inst = make_instance([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)],
                             [(15.0, 0.0), (15.0, 5.0)], deadline=1000.0)
        assert [t.id for t in inst.targets] == [1]
        assert inst.removed_targets == ((0, "on-arc"),)

    def test_uncoverable_target_dropped(self):
        inst = make_instance([(0.0, 0.0), (10.0, 0.0)], [(90.0, 90.0)],
                             deadline=1000.0, coverage_radius=5.0)
        assert inst.targets == ()
        assert inst.removed_targets == ((0, "uncoverable"),)

    def test_coincident_waypoints_rejected(self):
        with pytest.raises(SchemaError):
            make_instance([(0.0, 0.0), (3.0, 0.0), (3.0, 0.0)],
                          [(1.0, 1.0)], deadline=10.0)

    def test_waypoint_limit(self):
        assert load_instance(serialize_instance(
            generate_instance(0, 63, 2))).n == 63
        with pytest.raises(SchemaError, match="at most 63"):
            load_instance(too_many_waypoints_document())


class TestIndexTable:
    def test_out_of_range_target_zero_row(self):
        inst = make_instance([(0.0, 0.0), (10.0, 0.0)], [(50.0, 0.0)],
                             deadline=1000.0, coverage_radius=45.0,
                             risk_radius=2.0)
        table = build_index_table(inst)
        assert np.any(table.coverage_rate > 0.0)

    def test_arc_reversal_symmetric(self):
        inst = generate_instance(31, 4, 5, coverage_radius=30.0)
        table = build_index_table(inst)
        for (i, j) in inst.arcs():
            if (j, i) not in table.arc_id:
                continue
            a, b = table.arc_id[(i, j)], table.arc_id[(j, i)]
            assert np.allclose(table.cov_index[a], table.cov_index[b],
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(table.cov_frac[a], table.cov_frac[b],
                               rtol=1e-12, atol=1e-12)

    def test_spot_entry_matches_direct_geometry(self):
        inst = generate_instance(33, 5, 6, coverage_radius=25.0)
        table = build_index_table(inst)
        arc = (2, 4)
        k = table.arc_id[arc]
        col = 0
        t = inst.targets[col]
        ci = arc_coverage_index(inst.point(2), inst.point(4), t.point,
                                inst.vehicle.coverage_factor,
                                inst.vehicle.coverage_radius, inst.eps_geo)
        assert table.cov_index[k, col] == ci.per_time_index
        assert table.cov_frac[k, col] == ci.frac


class TestArcEnergy:
    def test_direct_evaluation(self):
        assert arc_energy(5.0, 2.0, 1.0, 1.0) == 25.0

    def test_drag_term_quadruples_with_doubled_speed(self):
        base = arc_energy(3.0, 2.0, 0.0, 1.0)
        assert arc_energy(3.0, 4.0, 0.0, 1.0) == pytest.approx(4 * base)

    def test_zero_distance(self):
        assert arc_energy(0.0, 2.0, 1.0, 1.0) == 0.0

    def test_bad_speed(self):
        with pytest.raises(ValueError):
            arc_energy(1.0, 0.0, 1.0, 1.0)


def _square_instance():
    return make_instance(
        [("depot", (0.0, 0.0)), (10.0, 0.0), (10.0, 10.0)],
        [(10.0, 5.0, 2.0), (5.0, 0.5, 1.0)],
        deadline=60.0, coverage_radius=6.0)


class TestValidateSolution:
    def test_feasible_tour_passes(self):
        inst = _square_instance()
        sol = PathSolution(nodes=(0, 1, 2, 3), times=(2.0, 4.0, 5.0),
                           idle_node=1, idle_time=10.0)
        report = validate_solution(inst, sol)
        assert report.ok
        names = [c.name for c in report.constraints]
        assert "speed-bounds" in names and "deadline" in names

    def test_deadline_violation_slack(self):
        inst = _square_instance()
        sol = PathSolution(nodes=(0, 1, 2, 3), times=(2.0, 4.0, 5.0),
                           idle_node=1, idle_time=50.0)
        report = validate_solution(inst, sol)
        check = {c.name: c for c in report.constraints}["deadline"]
        assert not check.passed
        assert check.slack == pytest.approx(-1.0, abs=1e-12)

    def test_coverage_requirement_names_target(self):
        inst = make_instance(
            [("depot", (0.0, 0.0)), (10.0, 0.0), (10.0, 10.0)],
            [(10.0, 5.0, 2.0), (5.0, 0.5, 1.0)],
            deadline=60.0, coverage_radius=6.0, min_coverage=50.0)
        sol = PathSolution(nodes=(0, 1, 3), times=(2.0, 2.0))
        report = validate_solution(inst, sol,
                                   ValidateOptions(enforce_coverage=True))
        failing = [c.name for c in report.constraints if not c.passed]
        assert any(name.startswith("coverage[") for name in failing)
        # and the satisfied variant reports an aggregate check instead
        ok_rep = validate_solution(_square_instance(),
                                   PathSolution(nodes=(0, 1, 2, 3),
                                                times=(2.0, 4.0, 5.0),
                                                idle_node=1, idle_time=10.0),
                                   ValidateOptions(enforce_coverage=True))
        names = [c.name for c in ok_rep.constraints]
        assert "coverage-requirement" in names

    def test_objective_mismatch_flagged(self):
        inst = _square_instance()
        sol = PathSolution(nodes=(0, 1, 2, 3), times=(2.0, 4.0, 5.0),
                           idle_node=1, idle_time=10.0, objective=1e9)
        report = validate_solution(inst, sol)
        check = {c.name: c for c in report.constraints}["objective-consistency"]
        assert not check.passed

    def test_structural_error_reported_not_thrown(self):
        inst = _square_instance()
        sol = PathSolution(nodes=(0, 2, 2, 3), times=(1.0, 1.0, 1.0))
        report = validate_solution(inst, sol)
        assert not report.ok
        assert not report.constraints[0].passed

    def test_speed_bound_violation(self):
        inst = _square_instance()
        sol = PathSolution(nodes=(0, 1, 3), times=(0.5, 2.0))  # v = 20 > 10
        report = validate_solution(inst, sol)
        check = {c.name: c for c in report.constraints}["speed-bounds"]
        assert not check.passed

    def test_report_schema(self):
        inst = _square_instance()
        sol = PathSolution(nodes=(0, 1, 3), times=(2.0, 2.0))
        doc = validate_solution(inst, sol).to_dict()
        assert set(doc) == {"constraints", "objective", "per_target"}
        assert all(set(c) == {"name", "pass", "slack"}
                   for c in doc["constraints"])
        assert all(set(p) == {"id", "coverage", "required"}
                   for p in doc["per_target"])
        json.dumps(doc)

    def test_full_model_checks_optional(self):
        inst = _square_instance()
        sol = PathSolution(nodes=(0, 1, 2, 3), times=(2.0, 4.0, 5.0),
                           idle_node=1, idle_time=10.0)
        report = validate_solution(
            inst, sol, ValidateOptions(check_time_windows=True,
                                       check_energy=True))
        names = [c.name for c in report.constraints]
        assert "time-windows" in names and "energy" in names
        assert report.ok


class TestEndToEndConsistency:
    def test_validator_accepts_solver_witnesses(self):
        import random

        from conftest import random_desk_instance, random_multipliers
        from coverage_routing.bundle import (evaluate_dual_function,
                                             timing_to_solution)
        from coverage_routing.errors import InfeasibleInstanceError

        rng = random.Random(818)
        done = 0
        while done < 100:
            case = "I" if done % 2 else "II"
            inst = random_desk_instance(rng, n_range=(2, 5), m_range=(2, 6),
                                        case=case)
            table = build_index_table(inst)
            m = len(table.target_ids)
            lam = (np.zeros(m) if done % 3 else
                   random_multipliers(rng, m, scale=4.0))
            try:
                value, _ = evaluate_dual_function(table, inst, lam, case)
            except InfeasibleInstanceError:
                continue
            sol = timing_to_solution(value.best, table, inst.deadline)
            report = validate_solution(inst, sol, table=table)
            assert report.ok, [c for c in report.constraints if not c.passed]
            done += 1


class TestSolutionSerialization:
    def test_round_trip(self):
        sol = PathSolution(nodes=(0, 2, 1, 3), times=(1.0, 2.5, 3.25),
                           idle_node=2, idle_time=4.5, objective=12.125,
                           per_target_coverage=((0, 1.5), (3, 2.25)))
        assert load_solution(json.loads(solution_to_json(sol))) == sol

    def test_bad_document(self):
        with pytest.raises(SchemaError):
            load_solution({"nodes": [0, 1]})
