import gc
import json
import math
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_geometry as ref
import reference_repair as ref_repair
from conftest import (FAR_TARGET, HUGE_ARC, ROUTE_OVERFLOW, SINGULAR_RATES,
                      TIME_OVERFLOW, make_instance, raw_instance,
                      singular_rate_document, too_many_waypoints_document)
from coverage_routing import instance as instance_module
from coverage_routing.cli import main as cli_main
from coverage_routing.errors import SchemaError, TargetTooCloseError
from coverage_routing.geometry import Point2
from coverage_routing.instance import (Instance, PathSolution,
                                       ValidateOptions,
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
                                (doc["vehicle"], "energy_max", -math.inf),
                                (doc["waypoints"][1], "window_close", math.nan),
                                (doc["waypoints"][1], "window_close", -math.inf),
                                (doc["targets"][0], "min_coverage", math.inf)):
            good, block[key] = block[key], bad
            with pytest.raises(SchemaError, match="must be finite"):
                load_instance(doc)
            block[key] = good

    def test_nan_token_refused_by_solve(self, tmp_path, capsys):
        # Python's JSON reader takes a bare NaN token; the loader refuses it
        # itself, even in a field that may be +inf, as an input error
        doc = serialize_instance(generate_instance(1, 3, 3))
        doc["vehicle"]["energy_max"] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert '"energy_max": NaN' in path.read_text()
        assert cli_main(["solve", str(path)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "field 'energy_max' in vehicle must be finite, got nan" in err

    def test_loader_checks_each_coordinate_once(self, monkeypatch):
        # the loader's number check refuses a non-finite coordinate, so its
        # points skip Point2's own check and come back equal to checked
        # ones; a coordinate that is not finite is refused all the same
        inst = generate_instance(6, 4, 6)
        assert len(inst.targets) == 4
        doc = serialize_instance(inst)

        def refuse(self):
            raise AssertionError("Point2 checked a loaded coordinate again")

        monkeypatch.setattr(Point2, "__post_init__", refuse)
        loaded = load_instance(doc)
        monkeypatch.undo()
        points = [p.point for p in loaded.waypoints + loaded.targets]
        assert all(type(p) is Point2 for p in points)
        assert loaded == inst
        assert [hash(p) for p in points] == [
            hash(Point2(p.x, p.y)) for p in points]
        for block, bad in ((doc["waypoints"][2], math.inf),
                           (doc["targets"][0], math.nan)):
            good, block["y"] = block["y"], bad
            with pytest.raises(SchemaError, match="must be finite"):
                load_instance(doc)
            block["y"] = good

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf),
                                      (-math.inf, math.nan)])
    def test_point_elsewhere_refuses_non_finite_coordinates(self, x, y):
        # every Point2 built outside the loader still checks its coordinates
        with pytest.raises(ValueError, match="non-finite coordinates"):
            Point2(x, y)

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


def _assert_table_matches_reference(inst):
    """The index table of ``inst``, or its refusal, equals the per-pair
    reference's byte for byte, in the reference's row-major layout."""
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
        assert getattr(table, name).strides == arr.strides
        assert getattr(table, name).tobytes() == arr.tobytes()


#: every array of an index table
TABLE_ARRAYS = ("coverage_rate", "wp_cov", "node_dist", "arc_dist",
                "min_time", "max_time", "priorities", "required")

#: the benchmark's generator shapes: the small preset, 7 waypoints x 10
#: targets in case II, and 6 waypoints x 60 targets at radius 20
GENERATOR_SHAPES = (
    [dict(seed=s, preset="small") for s in range(4)]
    + [dict(seed=s, n_waypoints=7, n_targets=10, case="II") for s in range(4)]
    + [dict(seed=s, n_waypoints=6, n_targets=60, coverage_radius=20.0,
            min_coverage=0.01) for s in range(8)])


def _document(shape, extra: bool) -> dict:
    """The generated instance's document; with ``extra``, two more targets
    that cleaning drops: one on the segment of waypoints 1 and 2, first in
    the list, and one out of reach, in the middle."""
    doc = serialize_instance(generate_instance(**shape))
    if extra:
        w1, w2 = doc["waypoints"][1], doc["waypoints"][2]
        base = dict(doc["targets"][0])
        tid = max(t["id"] for t in doc["targets"]) + 1
        doc["targets"].insert(0, dict(base, id=tid, x=(w1["x"] + w2["x"]) / 2,
                                      y=(w1["y"] + w2["y"]) / 2))
        doc["targets"].insert(len(doc["targets"]) // 2,
                              dict(base, id=tid + 1, x=1e4, y=1e4))
    return doc


def _assert_same_table(got, want):
    """Equal arrays, byte for byte and in the same memory layout: a
    reduction over a column-major copy of equal values can round another
    way."""
    for name in TABLE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.strides == b.strides, name
        assert a.tobytes() == b.tobytes(), name


def _scratch_table(inst):
    """The table of an equal instance that no cleaning pass returned, so
    the table computes its geometry itself."""
    twin = replace(inst)
    assert twin == inst and twin is not inst
    return build_index_table(twin)


class TestGeometryHandoff:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = instance_module.geometry.segment_disk_batch

        def counted(*args, **kwargs):
            calls.append(None)
            return kernel(*args, **kwargs)
        monkeypatch.setattr(instance_module.geometry, "segment_disk_batch",
                            counted)
        return calls

    @pytest.mark.parametrize("extra", [False, True])
    @pytest.mark.parametrize("shape", GENERATOR_SHAPES,
                             ids=lambda s: "-".join(map(str, s.values())))
    def test_loaded_table_is_byte_exact(self, kernel_calls, shape, extra):
        # one kernel pass serves the loaded instance's cleaning and its
        # table; a cleaning that drops targets hands nothing on, and its
        # copy's table runs its own pass
        doc = _document(shape, extra)
        kernel_calls.clear()  # generation's own pass
        loaded = load_instance(doc)
        table = build_index_table(loaded)
        assert len(kernel_calls) == (2 if extra else 1)
        if extra:
            added = [t["id"] for t in doc["targets"]
                     if t["id"] not in {u.id for u in loaded.targets}]
            assert loaded.removed_targets == ((added[0], "on-arc"),
                                              (added[1], "uncoverable"))
            assert len(loaded.targets) == len(doc["targets"]) - 2
        else:
            assert loaded.removed_targets == ()
        _assert_same_table(table, _scratch_table(loaded))
        assert len(kernel_calls) == (3 if extra else 2)

    # Each of the next three fails alone when a table reads a geometry pass
    # that is not its own instance's.  The two documents keep every target,
    # so each load leaves its pass on the instance it returns.

    def test_handoff_not_taken_by_another_instance(self):
        b = load_instance(_document(GENERATOR_SHAPES[-2], False))
        load_instance(_document(GENERATOR_SHAPES[-1], False))
        _assert_same_table(build_index_table(b), _scratch_table(b))

    def test_handoff_not_taken_by_a_copy_with_fewer_targets(self):
        a = load_instance(_document(GENERATOR_SHAPES[-1], False))
        fewer = replace(a, targets=a.targets[1:])
        _assert_same_table(build_index_table(fewer), _scratch_table(fewer))

    def test_second_table_computes_its_own(self, kernel_calls):
        doc_a = _document(GENERATOR_SHAPES[-1], False)
        doc_b = _document(GENERATOR_SHAPES[-2], False)
        kernel_calls.clear()  # generation's own passes
        a = load_instance(doc_a)
        first = build_index_table(a)
        load_instance(doc_b)
        _assert_same_table(build_index_table(a), first)
        _assert_same_table(first, _scratch_table(a))
        # one pass per load, and one per table but A's first, the only
        # table that found a pass on its instance
        assert len(kernel_calls) == 2 + 2

    def test_table_after_another_load_runs_no_kernel(self, kernel_calls):
        # a later load leaves an earlier instance's pass where it is
        a = load_instance(_document(GENERATOR_SHAPES[-1], False))
        load_instance(_document(GENERATOR_SHAPES[-2], False))
        kernel_calls.clear()
        table = build_index_table(a)
        assert kernel_calls == []
        _assert_same_table(table, _scratch_table(a))

    def test_loaded_instance_freed_without_a_table(self):
        # nothing but the instance holds its pass, or the instance: once
        # dropped, a loaded instance that never got a table is freed
        loaded = load_instance(_document(GENERATOR_SHAPES[-1], False))
        alive = weakref.ref(loaded)
        del loaded
        gc.collect()
        assert alive() is None

    def test_loaded_instance_value_unchanged(self):
        # the geometry pass cleaning leaves on a loaded instance is no
        # field: the instance compares, hashes, prints and serializes as
        # one built from the same fields
        loaded = load_instance(_document(GENERATOR_SHAPES[0], False))
        twin = Instance(**{f.name: getattr(loaded, f.name)
                           for f in fields(Instance)})
        assert [f.name for f in fields(Instance)] == [
            "waypoints", "targets", "vehicle", "physics", "deadline", "meta",
            "removed_targets"]
        assert loaded == twin and hash(loaded) == hash(twin)
        assert repr(loaded) == repr(twin)
        assert serialize_instance(loaded) == serialize_instance(twin)
        assert load_instance(serialize_instance(loaded)) == loaded


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
        # the raw instance computes its own geometry pass; the cleaned one
        # takes the kept columns of its cleaning pass
        _assert_table_matches_reference(inst)
        _assert_table_matches_reference(finalize_instance(inst))

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

    def test_target_off_a_huge_arc_dropped_as_uncoverable(self):
        # arc (0,1)'s squared length overflows and its line distance reads
        # inf/inf; computed again at a smaller scale, the target lies 1.4e200
        # from the arc, out of reach, and is not kept for a NaN hit
        inst = load_instance(singular_rate_document(*HUGE_ARC))
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

    @pytest.mark.parametrize("kind, length, speed", [
        ("arc", "1e+200", "1e-200"), ("route", "1e+300", "1e-08")])
    def test_travel_time_overflow_refused_by_name(self, kind, length, speed):
        # an arc time, or a route's n + 1 of them, past the float range is
        # an input error naming the arc, not a numpy warning followed by a
        # target refused as too close
        inst = load_instance(TIME_OVERFLOW[kind])
        with pytest.raises(SchemaError) as info:
            build_index_table(inst)
        assert str(info.value) == (
            f"arc (0,1) of length {length} at speed_min {speed} takes too "
            f"long: a route of 2 such arcs leaves the float range")

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.integers(0, 10 ** 6), st.integers(1, 9), st.integers(1, 8),
           st.lists(st.sampled_from([-1.0, 0.0, 0.5, 30.0]), min_size=1,
                    max_size=4))
    def test_batched_route_coverage_matches_one_timing_calls(
            self, seed, n, m, idle_times):
        # one to four random routes of their own lengths through the
        # instance, each given by its arc ids and timed between its
        # all-fast and all-slow times, with its own idle stop (None and 0
        # mean none) and idle time: each row of one batched call is the
        # call with that route alone, and that call sums arc by arc like
        # the per-pair reference over the route's nodes, bit for bit
        inst = generate_instance(seed, n, m, coverage_radius=30.0)
        table = build_index_table(inst)
        r = np.random.default_rng(seed)
        routes, paths = [], []
        for idle_time in idle_times:
            stops = r.permutation(np.arange(1, n + 1))[:r.integers(1, n + 1)]
            nodes = [0, *map(int, stops), n + 1]
            ids = table.arc_ids(nodes)
            times = tuple(r.uniform(table.min_time[ids], table.max_time[ids]))
            idle_node = [None, 0, *map(int, stops)][r.integers(len(stops) + 2)]
            routes.append((tuple(ids), times, idle_node, idle_time))
            paths.append(nodes)
        cov = table.route_coverage(routes)
        assert cov.shape == (len(routes), len(inst.targets))
        for row, route, nodes in zip(cov, routes, paths):
            (one,) = table.route_coverage([route])
            assert row.tobytes() == one.tobytes()
            want = ref_repair.route_coverage(table, nodes, *route[1:])
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


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_integer_past_float_range_refused(tmp_path, capsys, command):
    # an integer of 401 digits as the instance's deadline, or as a solution
    # time: refused on load as a schema error naming the field, and by the
    # CLI as an input error (exit 4) with nothing on stdout
    doc = serialize_instance(generate_instance(1, 3, 3))
    sol = {"nodes": [0, 1, 4], "times": [1.0, 2.0]}
    if command == "solve":
        doc["deadline"] = 10 ** 400
        load, bad, field = load_instance, doc, "'deadline' in document"
    else:
        sol["times"][1] = 10 ** 400
        load, bad, field = load_solution, sol, "'1' in times"
    message = f"field {field} is too large for a float"
    with pytest.raises(SchemaError, match=message):
        load(bad)
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    inst_path.write_text(json.dumps(doc))
    sol_path.write_text(json.dumps(sol))
    assert cli_main([command, str(inst_path)]
                    + ([str(sol_path)] if command == "verify" else [])) == 4
    out, err = capsys.readouterr()
    assert out == "" and message in err
