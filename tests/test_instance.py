import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_geometry as ref
import reference_repair as ref_repair
from conftest import (FAR_TARGET, ROUTE_OVERFLOW, SINGULAR_RATES,
                      make_instance, raw_instance, singular_rate_document,
                      too_many_waypoints_document)
from coverage_routing.cli import main as cli_main
from coverage_routing.errors import SchemaError, TargetTooCloseError
from coverage_routing.geometry import Point2
from coverage_routing.instance import (PathSolution, ValidateOptions,
                                       arc_energy, build_index_table,
                                       finalize_instance,
                                       generate_instance, instance_to_json,
                                       load_instance, load_solution,
                                       serialize_instance, solution_to_json,
                                       validate_solution)


# One instance per kind of edge: against the arc (0,0)-(4,0), (2,3) makes a
# tangent chord at radius 3, (6,0) a radial one (theta = 0), (1,1) a chord
# clipped at the arc's start, and (4,3) sits exactly on the coverage circle
# of waypoint (4,0).
EDGES = raw_instance([(0.0, 0.0), (4.0, 0.0)],
                     [(2.0, 3.0), (6.0, 0.0), (1.0, 1.0), (4.0, 3.0)], 3.0)
EDGES_NO_FACTOR = raw_instance([(0.0, 0.0), (4.0, 0.0)],
                               [(2.0, 3.0), (6.0, 0.0), (1.0, 1.0), (4.0, 3.0)],
                               3.0, factor=0.0)
# targets on an arc and on a waypoint, next to coverable and uncoverable ones
ON_ARC = raw_instance([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)],
                      [(15.0, 5.0), (15.0, 0.0), (10.0, 0.0), (40.0, 40.0)], 10.0)


#: edits of a generated instance document that validation refuses, each
#: with its refusal
BAD_DOCUMENTS = {
    "no-interior-waypoint": (
        lambda d: d.update(waypoints=[d["waypoints"][0],
                                      dict(d["waypoints"][-1], id=1)]),
        "need at least one interior waypoint"),
    "ids-out-of-order": (lambda d: d["waypoints"][2].update(id=1),
                         "found id 1 at position 2"),
    "empty-window": (
        lambda d: d["waypoints"][1].update(window_open=d["deadline"] + 1.0),
        "waypoint 1 has an empty time window"),
    "zero-deadline": (lambda d: d.update(deadline=0.0),
                      "deadline must be positive"),
    "negative-deadline": (lambda d: d.update(deadline=-5.0),
                          "deadline must be positive"),
    "duplicate-target-id": (
        lambda d: d["targets"][1].update(id=d["targets"][0]["id"]),
        "duplicate or negative target id"),
    "negative-requirement": (
        lambda d: d["targets"][0].update(min_coverage=-0.5),
        "negative coverage requirement"),
    "zero-risk-radius": (lambda d: d["targets"][0].update(risk_radius=0.0),
                         "bad risk parameters"),
    "negative-risk-factor": (
        lambda d: d["targets"][0].update(risk_factor=-1.0),
        "bad risk parameters"),
    "negative-priority": (lambda d: d["targets"][0].update(priority=-1.0),
                          "negative priority"),
}


@st.composite
def instances(draw):
    """Small raw instances, on a half-unit grid (targets on arcs, on
    waypoints and on coverage circles, tangent and radial chords) or with
    coordinates anywhere in a box."""
    if draw(st.booleans()):
        coord = st.integers(0, 12).map(lambda v: v / 2.0)
        radius = st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0])
    else:
        coord = st.floats(0.0, 60.0, allow_subnormal=False)
        radius = st.floats(0.5, 40.0)
    point = st.tuples(coord, coord)
    wps = draw(st.lists(point, min_size=2, max_size=5,
                        unique_by=lambda p: (round(p[0], 3), round(p[1], 3))))
    tgs = draw(st.lists(point, min_size=0, max_size=6))
    return raw_instance(wps, tgs, draw(radius),
                        draw(st.sampled_from([0.0, 1.0, 2.5])))


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

    @pytest.mark.parametrize("args, kwargs, message", [
        ((0,), dict(preset="tiny"), "unknown preset"),
        ((0,), {}, "give a preset"),
        ((0, 0, 3), {}, "sizes must be at least 1"),
        ((0, 3, 0), {}, "sizes must be at least 1"),
        ((0, 3, 3), dict(case="III"), "case must be 'I' or 'II'"),
    ])
    def test_bad_parameters_refused(self, args, kwargs, message):
        with pytest.raises(SchemaError, match=message):
            generate_instance(*args, **kwargs)

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
        """Vehicle parameters out of range: speed bounds out of order, a
        coverage radius that is not positive, a negative coverage factor."""
        for key, bad in (("speed_min", 20.0), ("coverage_radius", 0.0),
                         ("coverage_radius", -1.0),
                         ("coverage_factor", -1.0)):
            doc = serialize_instance(generate_instance(1, 3, 3))
            doc["vehicle"][key] = bad
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
        # apart, but the squared offset underflows to 0
        with pytest.raises(SchemaError, match="waypoints 0 and 1 coincide"):
            make_instance([(0.0, 0.0), (0.0, 1e-200)], [], deadline=10.0)

    @pytest.mark.parametrize("kind", sorted(BAD_DOCUMENTS))
    def test_invalid_document_refused(self, tmp_path, capsys, kind):
        # refused on load, and by ``covroute solve`` as an input error (exit
        # 4) with nothing on stdout
        edit, message = BAD_DOCUMENTS[kind]
        doc = serialize_instance(generate_instance(1, 3, 3))
        edit(doc)
        with pytest.raises(SchemaError, match=message):
            load_instance(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["solve", str(path)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_negative_target_id_refused(self):
        # the file reader refuses a negative id before validation does; an
        # instance built in code meets the validation rule
        inst = generate_instance(1, 3, 3)
        bad = replace(inst, targets=(replace(inst.targets[0], id=-1),))
        with pytest.raises(SchemaError,
                           match="duplicate or negative target id -1"):
            finalize_instance(bad)

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
            assert np.allclose(table.coverage_rate[a],
                               table.coverage_rate[b], rtol=1e-12, atol=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(instances())
    @example(EDGES)
    @example(EDGES_NO_FACTOR)
    @example(ON_ARC)
    def test_every_entry_matches_scalar_reference(self, inst):
        try:
            want = ref.table_arrays(inst)
        except TargetTooCloseError as exc:
            with pytest.raises(TargetTooCloseError) as got:
                build_index_table(inst)
            assert str(got.value) == str(exc)
            assert str(got.value.__cause__) == str(exc.__cause__)
            return
        table = build_index_table(inst)
        for name, arr in zip(("coverage_rate", "wp_cov", "node_dist"), want):
            assert getattr(table, name).shape == arr.shape
            assert getattr(table, name).tobytes() == arr.tobytes()

    def test_edge_instance_reaches_each_branch(self):
        a, b = EDGES.point(0), EDGES.point(1)
        tangent, radial, clipped, on_circle = (t.point for t in EDGES.targets)
        assert ref.chord_disk_intersect(a, b, tangent, 3.0).is_empty
        assert ref.point_segment_distance(tangent, a, b) == 3.0
        ch = ref.chord_disk_intersect(a, b, radial, 3.0)
        assert ch.p_start == Point2(3.0, 0.0) and ch.p_end == b
        ch = ref.chord_disk_intersect(a, b, clipped, 3.0)
        assert ch.p_start == a and 0.0 < ch.frac < 1.0
        assert ref.point_index(b, on_circle, 1.0, 3.0) == 1.0 / 9.0
        table = build_index_table(EDGES)
        assert table.wp_cov[0, 3] == 1.0 / 9.0
        assert np.all(build_index_table(EDGES_NO_FACTOR).coverage_rate == 0.0)

    def test_uncleaned_target_on_arc_keeps_message(self):
        inst = raw_instance([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)],
                            [(15.0, 5.0), (15.0, 0.0)], 10.0)
        eps = inst.eps_geo
        with pytest.raises(TargetTooCloseError) as info:
            build_index_table(inst)
        assert str(info.value) == (
            f"target 1 against arc (0,2): target at (15.0, 0.0) lies on arc "
            f"within clearance {eps}")

    @pytest.mark.parametrize("kind, where", [
        ("waypoint-underflow", "arc (0,1)"),
        ("arc-overflow", "arc (0,1)"),
        ("idle-only", "waypoint 1"),
    ])
    def test_singular_rate_refused_by_name(self, kind, where):
        # the loader keeps the target; the table refuses it by name instead
        # of filling an infinite rate (under filterwarnings = error, a numpy
        # divide or overflow warning would fail this test)
        x, target, factor = SINGULAR_RATES[kind]
        inst = load_instance(singular_rate_document(x, target, factor))
        assert [t.point for t in inst.targets] == [Point2(*target)]
        with pytest.raises(TargetTooCloseError) as info:
            build_index_table(inst)
        assert str(info.value) == (
            f"target 0 against {where}: target at {target} is too close for "
            f"a finite coverage rate")

    def test_far_target_dropped_without_warning(self):
        # the geometry kernel's quotients overflow for a target this far
        # from a network this small; the target is out of reach, and no
        # numpy warning (an error under filterwarnings = error) escapes
        inst = load_instance(singular_rate_document(*FAR_TARGET))
        assert inst.targets == ()
        assert inst.removed_targets == ((0, "uncoverable"),)

    @pytest.mark.parametrize("kind", sorted(ROUTE_OVERFLOW))
    def test_route_coverage_overflow_refused_by_name(self, kind):
        # every rate is finite, but a route would cover the target beyond
        # the float range: the table refuses it, naming the arc or waypoint
        x, target, factor, where = ROUTE_OVERFLOW[kind]
        inst = load_instance(singular_rate_document(x, target, factor))
        assert [t.point for t in inst.targets] == [Point2(*target)]
        with pytest.raises(TargetTooCloseError) as info:
            build_index_table(inst)
        assert str(info.value) == (
            f"target 0 against {where}: target at {target} is too close for "
            f"its route coverage to stay within the float range")

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.integers(0, 10 ** 6), st.integers(1, 9), st.integers(1, 8),
           st.integers(1, 4), st.sampled_from([-1.0, 0.0, 0.5, 30.0]))
    def test_batched_route_coverage_matches_one_timing_calls(
            self, seed, n, m, batch, idle_time):
        # a random route through the instance, timed ``batch`` ways between
        # its all-fast and all-slow times: each row of one batched call is
        # the call with that timing alone, and that call sums arc by arc
        # like the per-pair reference, bit for bit
        inst = generate_instance(seed, n, m, coverage_radius=30.0)
        table = build_index_table(inst)
        r = np.random.default_rng(seed)
        stops = r.permutation(np.arange(1, n + 1))[:r.integers(1, n + 1)]
        nodes = [0, *map(int, stops), n + 1]
        ids = table.arc_ids(nodes)
        times = r.uniform(table.min_time[ids], table.max_time[ids],
                          (batch, len(ids)))
        idle_node = int(r.choice([0, *stops]))
        cov = table.route_coverage(nodes, times, idle_node, idle_time)
        assert cov.shape == (batch, len(inst.targets))
        for row, t in zip(cov, times):
            one = table.route_coverage(nodes, t, idle_node, idle_time)
            assert row.tobytes() == one.tobytes()
            want = ref_repair.route_coverage(table, nodes, tuple(t),
                                             idle_node, idle_time)
            assert one.tobytes() == want.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(instances())
    @example(ON_ARC)
    def test_cleaning_matches_scalar_reference(self, inst):
        want = ref.removed_targets(inst)
        cleaned = finalize_instance(inst)
        assert list(cleaned.removed_targets) == want
        dropped = {tid for tid, _ in want}
        assert cleaned.targets == tuple(t for t in inst.targets
                                        if t.id not in dropped)


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


#: routes through :func:`_square_instance` (exit depot 3) that break one
#: structural rule each
BAD_ROUTES = {
    "starts-off-entry": dict(nodes=(1, 2, 3), times=(4.0, 5.0)),
    "ends-off-exit": dict(nodes=(0, 1, 2), times=(2.0, 4.0)),
    "one-node": dict(nodes=(0,), times=()),
    "time-per-arc": dict(nodes=(0, 1, 2, 3), times=(2.0, 4.0)),
    "zero-time": dict(nodes=(0, 1, 2, 3), times=(2.0, 0.0, 5.0)),
    "negative-time": dict(nodes=(0, 1, 2, 3), times=(2.0, -4.0, 5.0)),
    "not-an-arc": dict(nodes=(0, 3), times=(5.0,)),
    "idle-off-route": dict(nodes=(0, 1, 3), times=(2.0, 2.0), idle_node=2,
                           idle_time=1.0),
    "idle-at-depot": dict(nodes=(0, 1, 3), times=(2.0, 2.0), idle_node=0,
                          idle_time=1.0),
    "negative-idle-time": dict(nodes=(0, 1, 3), times=(2.0, 2.0),
                               idle_node=1, idle_time=-1.0),
    "idle-time-without-stop": dict(nodes=(0, 1, 3), times=(2.0, 2.0),
                                   idle_time=1.0),
}


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

    def test_coverage_mismatch_flagged(self):
        """Claimed per-target coverage must name the instance's targets and
        match the recomputed values."""
        inst = _square_instance()
        route = dict(nodes=(0, 1, 2, 3), times=(2.0, 4.0, 5.0), idle_node=1,
                     idle_time=10.0)
        truth = validate_solution(inst, PathSolution(**route)).per_target
        honest = tuple((p.id, p.coverage) for p in truth)

        def check(cov):
            report = validate_solution(
                inst, PathSolution(**route, per_target_coverage=cov))
            return {c.name: c for c in report.constraints}[
                "coverage-consistency"]

        assert check(honest).passed
        assert not check(tuple((i, 100 * c + 5) for i, c in honest)).passed
        assert len(honest) == 1
        assert not check(()).passed
        assert not check(honest + ((99, 0.0),)).passed
        assert not check(((99, honest[0][1]),)).passed

    def test_structural_error_reported_not_thrown(self):
        inst = _square_instance()
        sol = PathSolution(nodes=(0, 2, 2, 3), times=(1.0, 1.0, 1.0))
        report = validate_solution(inst, sol)
        assert not report.ok
        assert not report.constraints[0].passed

    @pytest.mark.parametrize("kind", sorted(BAD_ROUTES))
    def test_bad_route_fails_path_structure(self, tmp_path, capsys, kind):
        # one broken rule, so path-structure is the only check, at slack -1;
        # ``covroute verify`` reports it with exit 1
        inst = _square_instance()
        sol = PathSolution(**BAD_ROUTES[kind])
        report = validate_solution(inst, sol)
        assert [(c.name, c.passed, c.slack) for c in report.constraints] == [
            ("path-structure", False, -1.0)]
        paths = tmp_path / "inst.json", tmp_path / "sol.json"
        paths[0].write_text(instance_to_json(inst))
        paths[1].write_text(solution_to_json(sol))
        assert cli_main(["verify", *map(str, paths)]) == 1
        assert json.loads(capsys.readouterr().out) == report.to_dict()

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
                value = evaluate_dual_function(table, lam, case)
            except InfeasibleInstanceError:
                continue
            sol = timing_to_solution(value.best, table)
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
