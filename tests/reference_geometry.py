"""Per-pair reference for the batch geometry kernel: the scalar chord, index
and cleaning code that ``coverage_routing.geometry`` and
``coverage_routing.instance`` replaced with one array kernel.  It takes
nothing from the package but ``Point2``, ``dist`` and the errors.  Tests
compare the package against it for exact equality, errors included."""

from __future__ import annotations

import math
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from coverage_routing.errors import DegenerateSegmentError, TargetTooCloseError
from coverage_routing.geometry import Point2, dist

_SMALL_ANGLE = 1e-4


class Chord(NamedTuple):
    """The sub-segment of ``[a, b]`` inside a closed disk, its ends ordered
    from ``a`` toward ``b``, and its share of the segment's length.  A
    tangent touch counts as empty: no ends and a zero share."""

    p_start: Optional[Point2]
    p_end: Optional[Point2]
    frac: float

    @property
    def is_empty(self) -> bool:
        return self.p_start is None


class ArcIndex(NamedTuple):
    """An arc's index per unit time against one disk, and its in-disk
    share."""

    per_time_index: float
    frac: float


_EMPTY_CHORD = Chord(None, None, 0.0)


def chord_disk_intersect(a: Point2, b: Point2, center: Point2,
                         radius: float) -> Chord:
    ux, uy = b.x - a.x, b.y - a.y
    seg2 = ux * ux + uy * uy
    if seg2 == 0.0:
        raise DegenerateSegmentError(f"segment endpoints coincide at ({a.x}, {a.y})")
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")

    seg_len = math.sqrt(seg2)
    ax, ay = a.x - center.x, a.y - center.y
    t_mid = -(ax * ux + ay * uy) / seg2
    line_dist = (ax * uy - ay * ux) / seg_len
    half2 = radius * radius - line_dist * line_dist
    if half2 <= 0.0:
        return _EMPTY_CHORD
    half = math.sqrt(half2) / seg_len

    s_lo = max(0.0, t_mid - half)
    s_hi = min(1.0, t_mid + half)
    if s_lo >= s_hi:
        return _EMPTY_CHORD
    return Chord(
        Point2(a.x + s_lo * ux, a.y + s_lo * uy),
        Point2(a.x + s_hi * ux, a.y + s_hi * uy),
        s_hi - s_lo,
    )


def _theta_over_sin(theta: float) -> float:
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        return 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
    return theta / math.sin(theta)


def point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    ux, uy = b.x - a.x, b.y - a.y
    seg2 = ux * ux + uy * uy
    if seg2 == 0.0:
        return dist(p, a)
    s = ((p.x - a.x) * ux + (p.y - a.y) * uy) / seg2
    s = min(1.0, max(0.0, s))
    return math.hypot(p.x - (a.x + s * ux), p.y - (a.y + s * uy))


def arc_index(i: Point2, j: Point2, w: Point2, factor: float, radius: float,
              eps: float = 0.0) -> ArcIndex:
    if factor < 0.0:
        raise ValueError(f"factor must be nonnegative, got {factor}")
    if point_segment_distance(w, i, j) <= eps:
        raise TargetTooCloseError(
            f"target at ({w.x}, {w.y}) lies on arc within clearance {eps}")
    chord = chord_disk_intersect(i, j, w, radius)
    if chord.is_empty:
        return ArcIndex(0.0, 0.0)
    if factor == 0.0:
        return ArcIndex(0.0, chord.frac)
    v1x, v1y = chord.p_start.x - w.x, chord.p_start.y - w.y
    v2x, v2y = chord.p_end.x - w.x, chord.p_end.y - w.y
    d1 = math.hypot(v1x, v1y)
    d2 = math.hypot(v2x, v2y)
    theta = math.atan2(abs(v1x * v2y - v1y * v2x), v1x * v2x + v1y * v2y)
    return ArcIndex(factor * _theta_over_sin(theta) / (d1 * d2), chord.frac)


def point_index(p: Point2, w: Point2, factor: float, radius: float,
                eps: float = 0.0) -> float:
    if factor < 0.0:
        raise ValueError(f"factor must be nonnegative, got {factor}")
    d = dist(p, w)
    if d <= eps:
        raise TargetTooCloseError(
            f"target at ({w.x}, {w.y}) coincides with waypoint within {eps}")
    if d <= radius:
        return factor / (d * d)
    return 0.0


def _segment_pairs(n: int) -> Iterator[Tuple[int, int]]:
    """Node pairs joined by some arc of a network with ``n`` interior
    waypoints: every pair except the two depots."""
    for i in range(n + 2):
        for j in range(i + 1, n + 2):
            if (i, j) != (0, n + 1):
                yield (i, j)


def table_arrays(instance):
    """``(coverage_rate, wp_cov, node_dist)`` of ``ArcIndexTable``, one
    geometry call per pair."""
    n = instance.n
    pts = [w.point for w in instance.waypoints]
    node_dist = np.zeros((n + 2, n + 2))
    for i in range(n + 2):
        for j in range(i + 1, n + 2):
            node_dist[i, j] = node_dist[j, i] = dist(pts[i], pts[j])
    arcs = list(instance.arcs())
    m = len(instance.targets)
    eps = instance.eps_geo
    veh = instance.vehicle
    coverage_rate = np.zeros((len(arcs), m))
    for k, (i, j) in enumerate(arcs):
        for col, t in enumerate(instance.targets):
            try:
                ci = arc_index(pts[i], pts[j], t.point, veh.coverage_factor,
                               veh.coverage_radius, eps)
            except TargetTooCloseError as exc:
                raise TargetTooCloseError(
                    f"target {t.id} against arc ({i},{j}): {exc}") from exc
            coverage_rate[k, col] = ci.per_time_index * ci.frac
    wp_cov = np.zeros((n, m))
    for i in instance.interior_ids:
        for col, t in enumerate(instance.targets):
            try:
                wp_cov[i - 1, col] = point_index(
                    pts[i], t.point, veh.coverage_factor, veh.coverage_radius,
                    eps)
            except TargetTooCloseError as exc:
                raise TargetTooCloseError(
                    f"target {t.id} against waypoint {i}: {exc}") from exc
    return coverage_rate, wp_cov, node_dist


def removed_targets(instance) -> List[Tuple[int, str]]:
    """The targets the cleaning pass drops, in target order, with reasons."""
    eps = instance.eps_geo
    radius = instance.vehicle.coverage_radius
    pairs = list(_segment_pairs(instance.n))
    removed = []
    for t in instance.targets:
        if any(point_segment_distance(t.point, instance.point(i),
                                      instance.point(j)) <= eps
               for (i, j) in pairs):
            removed.append((t.id, "on-arc"))
            continue
        coverable = any(dist(instance.point(i), t.point) <= radius
                        for i in instance.interior_ids)
        if not coverable:
            coverable = any(
                not chord_disk_intersect(instance.point(i), instance.point(j),
                                         t.point, radius).is_empty
                for (i, j) in pairs)
        if not coverable:
            removed.append((t.id, "uncoverable"))
    return removed
