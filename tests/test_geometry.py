import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import reference_geometry as ref
from conftest import kernel_pair, raw_instance
from coverage_routing.errors import DegenerateSegmentError, TargetTooCloseError
from coverage_routing.geometry import (Point2, arc_coverage_index,
                                       arc_risk_index, dist, distances,
                                       point_rates, segment_disk_batch)
from coverage_routing.instance import build_index_table

SQ3 = math.sqrt(3.0)


def quad_total(a, b, w, factor, radius, travel_time):
    """Independent oracle: adaptive quadrature of factor/d^2 along the
    reference's in-disk sub-segment, converted from distance to time."""
    ch = ref.chord_disk_intersect(a, b, w, radius)
    if ch.is_empty:
        return 0.0
    ux, uy = ch.p_end.x - ch.p_start.x, ch.p_end.y - ch.p_start.y
    sub_len = math.hypot(ux, uy)

    def integrand(s):
        x = ch.p_start.x + s * ux - w.x
        y = ch.p_start.y + s * uy - w.y
        return factor / (x * x + y * y)

    val, err = quad(integrand, 0.0, 1.0, limit=200)
    return val * sub_len * travel_time / dist(a, b)


def point_rate(p, w, factor, radius):
    """The kernel's idle rate at ``p`` against the disk around ``w``."""
    d = distances([p.x], [p.y], [w.x], [w.y])
    return float(point_rates(d, factor, radius)[0, 0])


def random_pair(rng, span):
    """A segment and a disk center drawn in ``[-span, span]^2``, or None
    when the segment is shorter than 1e-6 or the center lies within 1e-3 of
    it."""
    a, b, w = (Point2(rng.uniform(-span, span), rng.uniform(-span, span))
               for _ in range(3))
    if dist(a, b) < 1e-6 or ref.point_segment_distance(w, a, b) < 1e-3:
        return None
    return a, b, w


class TestChordDiskIntersect:
    """The kernel's chord: hit mask, in-disk share and sub-segment ends."""

    def test_crossing_chord_fixture(self):
        ch = kernel_pair(Point2(-3, 1), Point2(3, 1), Point2(0, 0), 0.0, 2)
        assert ch.hit
        assert ch.p_start.x == pytest.approx(-SQ3, abs=1e-12)
        assert ch.p_start.y == pytest.approx(1.0, abs=1e-12)
        assert ch.p_end.x == pytest.approx(SQ3, abs=1e-12)
        assert ch.frac == pytest.approx(2 * SQ3 / 6, abs=1e-12)

    def test_outside_disk_is_empty(self):
        ch = kernel_pair(Point2(10, 10), Point2(11, 10), Point2(0, 0), 0.0, 2)
        assert not ch.hit and ch.frac == 0.0

    def test_contained_segment_keeps_frac_one(self):
        ch = kernel_pair(Point2(-0.5, 0), Point2(0.5, 0.2), Point2(0, 0), 0.0, 2)
        assert ch.frac == pytest.approx(1.0, abs=1e-12)
        assert ch.p_start == Point2(-0.5, 0)

    def test_tangent_counts_as_empty(self):
        ch = kernel_pair(Point2(-1, 1), Point2(1, 1), Point2(0, 0), 1.0, 1)
        assert not ch.hit and ch.frac == 0.0 and ch.per_time == 0.0
        # a segment whose end touches the circle from outside
        ch = kernel_pair(Point2(0, 0), Point2(1, 0), Point2(3, 0), 1.0, 2)
        assert not ch.hit and ch.frac == 0.0 and ch.per_time == 0.0

    def test_degenerate_segment_rejected(self):
        with pytest.raises(DegenerateSegmentError):
            kernel_pair(Point2(1, 1), Point2(1, 1), Point2(0, 0), 0.0, 2)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            kernel_pair(Point2(0, 0), Point2(1, 0), Point2(0, 0), 0.0, 0.0)

    @settings(derandomize=True, deadline=None, max_examples=1000)
    @given(*[st.floats(-100.0, 100.0)] * 6, st.floats(0.01, 100.0))
    def test_endpoints_on_circle_or_original(self, ax, ay, bx, by, cx, cy, r):
        """A segment end outside the disk is cut back to a point on the
        circle, and one inside is kept, both to a few ulps of the largest
        coordinate."""
        a, b, c = Point2(ax, ay), Point2(bx, by), Point2(cx, cy)
        assume(dist(a, b) > 1e-6)
        ch = kernel_pair(a, b, c, 0.0, r)
        assume(ch.hit)
        ulp = math.ulp(max(map(abs, (ax, ay, bx, by, cx, cy, r))))
        for p, orig in ((ch.p_start, a), (ch.p_end, b)):
            on_circle = abs(dist(p, c) - r) <= 8 * ulp
            assert on_circle or (dist(orig, c) <= r
                                 and dist(p, orig) <= 8 * ulp)


class TestArcIndices:
    """The kernel's ``rate``: the in-disk integral per unit travel time."""

    def test_radial_chord_half(self):
        # travel (1,0) -> (2,0) against a sensor at the origin in unit time:
        # integral of 1/x^2 from 1 to 2 is exactly one half
        idx = kernel_pair(Point2(1, 0), Point2(2, 0), Point2(0, 0), 1.0, 3.0)
        assert idx.rate * 1.0 == pytest.approx(0.5, abs=1e-9)

    def test_perpendicular_chord_half_pi(self):
        idx = kernel_pair(Point2(-1, 1), Point2(1, 1), Point2(0, 0), 1.0, 2.0)
        assert idx.rate * 2.0 == pytest.approx(math.pi / 2, abs=1e-9)

    def test_no_intersection_zero_index(self):
        idx = kernel_pair(Point2(5, 5), Point2(6, 5), Point2(0, 0), 1.0, 2.0)
        assert idx.per_time == 0.0 and idx.frac == 0.0

    def test_coverage_same_contract(self):
        # the index table's coverage entry of the perpendicular pass is the
        # kernel's rate: the same integral, pi/2 over two time units
        inst = raw_instance([(-1.0, 1.0), (1.0, 1.0)], [(0.0, 0.0)], 2.0)
        table = build_index_table(inst)
        rate = table.coverage_rate[table.arc_id[(0, 1)], 0]
        assert rate == kernel_pair(inst.point(0), inst.point(1),
                                   inst.targets[0].point, 1.0, 2.0).rate
        assert rate * 2.0 == pytest.approx(math.pi / 2, abs=1e-9)

    def test_coverage_frac_is_in_disk_share(self):
        a, b, w = Point2(-3, 1), Point2(3, 1), Point2(0, 0)
        idx = kernel_pair(a, b, w, 1.0, 2.0)
        ch = ref.chord_disk_intersect(a, b, w, 2.0)
        assert idx.frac == pytest.approx(ch.frac, abs=1e-15)

    def test_zero_factor_zeroes_index(self):
        idx = kernel_pair(Point2(-1, 1), Point2(1, 1), Point2(0, 0), 0.0, 2.0)
        assert idx.per_time == 0.0
        assert idx.frac > 0.0

    def test_target_on_arc_rejected(self):
        # the kernel flags the pair and leaves its singular index at 0; the
        # index table raises on the flag
        a, b, w = Point2(-1, 0), Point2(1, 0), Point2(0.2, 0)
        idx = kernel_pair(a, b, w, 1.0, 2.0, eps=1e-6)
        assert not idx.clear and idx.per_time == 0.0
        assert not kernel_pair(a, b, w, 1.0, 2.0, eps=0.1).clear
        assert kernel_pair(a, b, Point2(0.2, 1e-3), 1.0, 2.0, eps=1e-6).clear
        with pytest.raises(TargetTooCloseError):
            build_index_table(raw_instance([(-1.0, 0.0), (1.0, 0.0)],
                                           [(0.2, 0.0)], 2.0))

    def test_quadrature_battery(self):
        rng = random.Random(11)
        checked = 0
        while checked < 150:
            a, b, w = (Point2(rng.uniform(-10, 10), rng.uniform(-10, 10)),
                       Point2(rng.uniform(-10, 10), rng.uniform(-10, 10)),
                       Point2(rng.uniform(-8, 8), rng.uniform(-8, 8)))
            r = rng.uniform(0.5, 8.0)
            if dist(a, b) < 1e-6 or ref.point_segment_distance(w, a, b) < 1e-3:
                continue
            t = rng.uniform(0.1, 5.0)
            total = kernel_pair(a, b, w, 1.7, r).rate * t
            expect = quad_total(a, b, w, 1.7, r, t)
            assert total == pytest.approx(expect, rel=1e-6, abs=1e-12)
            checked += 1

    def test_rigid_motion_invariance(self):
        rng = random.Random(13)
        for _ in range(100):
            pair = random_pair(rng, 5)
            if pair is None:
                continue
            a, b, w = pair
            r = rng.uniform(0.5, 6.0)
            base = kernel_pair(a, b, w, 1.0, r)
            th = rng.uniform(0, 2 * math.pi)
            dx, dy = rng.uniform(-9, 9), rng.uniform(-9, 9)

            def move(p):
                return Point2(math.cos(th) * p.x - math.sin(th) * p.y + dx,
                              math.sin(th) * p.x + math.cos(th) * p.y + dy)

            moved = kernel_pair(move(a), move(b), move(w), 1.0, r)
            assert moved.per_time == pytest.approx(
                base.per_time, rel=1e-9, abs=1e-9)
            assert moved.frac == pytest.approx(base.frac, abs=1e-9)

    def test_orientation_free(self):
        rng = random.Random(17)
        for _ in range(100):
            pair = random_pair(rng, 5)
            if pair is None:
                continue
            a, b, w = pair
            fwd = kernel_pair(a, b, w, 1.0, 3.0)
            rev = kernel_pair(b, a, w, 1.0, 3.0)
            assert fwd.per_time == pytest.approx(rev.per_time,
                                                 rel=1e-12, abs=1e-12)
            assert fwd.frac == pytest.approx(rev.frac, abs=1e-12)

    def test_radius_monotonicity(self):
        rng = random.Random(19)
        for _ in range(100):
            pair = random_pair(rng, 5)
            if pair is None:
                continue
            a, b, w = pair
            r1 = rng.uniform(0.5, 4.0)
            r2 = r1 + rng.uniform(0.1, 4.0)
            small = kernel_pair(a, b, w, 1.0, r1)
            big = kernel_pair(a, b, w, 1.0, r2)
            assert big.rate >= small.rate - 1e-12


class TestPointIndex:
    """``point_rates`` at ``distances``: the idle rate at a waypoint."""

    def test_inside(self):
        assert point_rate(Point2(0.5, 0), Point2(0, 0), 1.0, 1.0) == 4.0

    def test_outside(self):
        assert point_rate(Point2(2, 0), Point2(0, 0), 1.0, 1.0) == 0.0

    def test_boundary_included(self):
        r = 1.7
        assert point_rate(Point2(r, 0), Point2(0, 0), 1.0, r) == \
            pytest.approx(1.0 / (r * r), rel=1e-12)

    def test_coincident_rejected(self):
        # a target on a waypoint never reaches the point rates: the index
        # table refuses it
        with pytest.raises(TargetTooCloseError):
            build_index_table(raw_instance([(0.0, 0.0), (4.0, 0.0)],
                                           [(4.0, 0.0)], 3.0))

    def test_negative_factor_rejected(self):
        # the index table passes the factor to the arc kernel before the
        # point rates, and the kernel refuses a negative one
        with pytest.raises(ValueError, match="factor must be nonnegative"):
            build_index_table(raw_instance([(0.0, 0.0), (4.0, 0.0)],
                                           [(2.0, 1.0)], 3.0, factor=-1.0))


# Coordinates on a half-unit grid (tangent and radial chords, targets on
# segments and on circles) or anywhere in a box.
COORD = st.one_of(st.integers(-8, 8).map(lambda v: v / 2.0),
                  st.floats(-50.0, 50.0, allow_subnormal=False))
POINT = st.builds(Point2, COORD, COORD)
RADIUS = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0]),
                   st.floats(0.01, 60.0))
FACTOR = st.sampled_from([0.0, 1.0, 1.7])


def _outcome(fn, *args):
    """The result of ``fn``, or the type of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


class TestScalarReference:
    """The batch kernel against the per-pair code it replaced, bit for
    bit."""

    @settings(derandomize=True, deadline=None, max_examples=1000)
    @given(POINT, POINT, POINT, RADIUS, FACTOR, st.sampled_from([0.0, 1e-9, 0.5]))
    @example(Point2(0, 0), Point2(1, 0), Point2(3, 0), 2.0, 1.0, 0.0)
    @example(Point2(0, 0), Point2(1, 0), Point2(1, 0), 2.0, 1.0, 0.5)
    @example(Point2(1, 1), Point2(1, 1), Point2(1, 1), 2.0, 1.0, 0.0)
    def test_single_pairs_match_reference(self, a, b, w, r, factor, eps):
        assume(a == b or dist(a, b) > 1e-6)
        # the inverse-square rate is singular where a squared distance
        # underflows to 0; an instance keeps its targets eps_geo away
        assume(all(v == 0.0 or v * v > 0.0 for v in
                   (dist(a, w), ref.point_segment_distance(w, a, b))))
        d = distances([a.x], [a.y], [w.x], [w.y])
        want = _outcome(ref.point_index, a, w, factor, r, eps)
        if d[0, 0] <= eps:
            assert want is TargetTooCloseError
        else:
            assert point_rates(d, factor, r)[0, 0] == want
        chord = _outcome(ref.chord_disk_intersect, a, b, w, r)
        idx = _outcome(ref.arc_index, a, b, w, factor, r, eps)
        got = _outcome(kernel_pair, a, b, w, factor, r, eps)
        if a == b:
            assert got is chord is DegenerateSegmentError
            return
        # the tracer's per-pair names return the reference's index or raise
        # its error
        for fn in (arc_risk_index, arc_coverage_index):
            out = _outcome(fn, a, b, w, factor, r, eps)
            if isinstance(out, type):
                assert out is idx
            else:
                assert (out.per_time_index, out.frac) == tuple(idx)
        assert got.hit == (not chord.is_empty)
        assert got.frac == chord.frac
        if got.hit:
            assert (got.p_start, got.p_end) == (chord.p_start, chord.p_end)
        assert got.clear == (ref.point_segment_distance(w, a, b) > eps)
        if got.clear:
            assert (got.per_time, got.rate) == \
                (idx.per_time_index, idx.per_time_index * idx.frac)
        else:
            assert idx is TargetTooCloseError and got.per_time == 0.0

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(st.tuples(POINT, POINT), min_size=1, max_size=6),
           st.lists(POINT, min_size=0, max_size=6), RADIUS, FACTOR,
           st.sampled_from([0.0, 1e-9, 0.5]))
    def test_batch_entries_match_reference(self, segs, centers, r, factor, eps):
        assume(all(dist(a, b) > 1e-6 for a, b in segs))
        (ax, ay), (bx, by) = ([[p[k].x for p in segs], [p[k].y for p in segs]]
                              for k in (0, 1))
        batch = segment_disk_batch(ax, ay, bx, by, [c.x for c in centers],
                                   [c.y for c in centers], factor, r, eps)
        assert batch.hit.shape == (len(segs), len(centers))
        for k, (a, b) in enumerate(segs):
            for col, w in enumerate(centers):
                chord = ref.chord_disk_intersect(a, b, w, r)
                assert batch.hit[k, col] == (not chord.is_empty)
                assert batch.frac[k, col] == chord.frac
                clear = ref.point_segment_distance(w, a, b) > eps
                assert batch.clear[k, col] == clear
                if clear:
                    idx = ref.arc_index(a, b, w, factor, r, eps)
                    assert batch.per_time[k, col] == idx.per_time_index
                    assert batch.rate[k, col] == idx.per_time_index * idx.frac
                if not chord.is_empty:
                    s_lo, s_hi = batch.s_lo[k, col], batch.s_hi[k, col]
                    assert (a.x + s_lo * (b.x - a.x), a.y + s_lo * (b.y - a.y)) == \
                        (chord.p_start.x, chord.p_start.y)
                    assert (a.x + s_hi * (b.x - a.x), a.y + s_hi * (b.y - a.y)) == \
                        (chord.p_end.x, chord.p_end.y)

    def test_degenerate_segment_in_batch_rejected(self):
        segs = ([0.0, 1.0], [0.0, 2.0], [3.0, 1.0], [0.0, 2.0], [5.0], [5.0])
        with pytest.raises(DegenerateSegmentError, match=r"coincide at \(1.0, 2.0\)"):
            segment_disk_batch(*segs, 1.0, 1.0)
        # the error order: a negative factor, then coincident endpoints,
        # then a non-positive radius
        with pytest.raises(ValueError, match="factor must be nonnegative"):
            segment_disk_batch(*segs, -1.0, 0.0)
        with pytest.raises(DegenerateSegmentError):
            segment_disk_batch(*segs, 1.0, 0.0)
