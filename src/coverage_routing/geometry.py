"""The chord-disk geometry behind the per-arc and per-waypoint indices.

A stationary sensor at point ``w`` acts on a vehicle at rate ``factor / d**2``
while the vehicle is inside the sensor's disk.  For straight-line motion at
constant speed the time integral over the in-disk sub-segment has a closed
form: with ``theta`` the angle subtended at ``w`` by the sub-segment endpoints
``p`` and ``q``,

    integral = factor * theta / (sin(theta) * d(p,w) * d(q,w))
               * (len(sub-segment) / len(arc)) * travel_time.

:func:`segment_disk_batch` computes the sub-segment and the two leading
factors (a rate per unit time and the in-disk fraction) for a whole batch of
segments against a whole batch of disk centers at once, and
:func:`distances` and :func:`point_rates` give the rate while idling at a
waypoint.  These three are the geometry API: the index table and the
target cleaning pass read nothing else.  A center too close to a point for
its inverse-square rate to fit a float gets ``inf`` or ``nan``, which the
index table refuses.  The arithmetic would serve a target's detection of
the vehicle as well, with the target's factor and radius; the schema keeps
those, but no solver reads them.

The batch arithmetic is the scalar arithmetic, element by element: numpy's
``+ - * /``, ``sqrt`` and ``abs`` round exactly as Python floats do, and the
transcendental steps (``hypot``, ``atan2``, ``sin``) stay scalar ``math``
calls, because numpy's versions differ from them in the last bit on a
fraction of inputs.  A batch entry is therefore bit-identical to the same
computation on one pair in Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSegmentError, TargetTooCloseError

# Below this subtended angle, theta/sin(theta) is evaluated by series to
# avoid 0/0 on radial chords.
_SMALL_ANGLE = 1e-4


@dataclass(frozen=True)
class Point2:
    """A point in the horizontal plane of motion."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")


def dist(a: Point2, b: Point2) -> float:
    """Euclidean distance between two points."""
    return math.hypot(b.x - a.x, b.y - a.y)


# ---------------------------------------------------------------------------
# the batch kernel


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``math.hypot`` of every entry pair, in the shape of ``x``."""
    flat = map(math.hypot, x.ravel().tolist(), y.ravel().tolist())
    return np.array(list(flat), dtype=float).reshape(x.shape)


def _above0(v: np.ndarray) -> np.ndarray:
    """``max(0.0, v)`` entry by entry, with Python's tie rule."""
    return np.where(v > 0.0, v, 0.0)


def _below1(v: np.ndarray) -> np.ndarray:
    """``min(1.0, v)`` entry by entry, with Python's tie rule."""
    return np.where(v < 1.0, v, 1.0)


def _theta_over_sin(theta: np.ndarray) -> np.ndarray:
    out = np.empty_like(theta)
    small = theta < _SMALL_ANGLE
    t2 = theta[small] * theta[small]
    out[small] = 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
    big = theta[~small]
    out[~small] = big / np.array(list(map(math.sin, big.tolist())), dtype=float)
    return out


@dataclass(frozen=True)
class SegmentDiskBatch:
    """Every segment of a batch against every disk center of a batch.  Each
    array has one row per segment and one column per center."""

    #: the in-disk sub-segment as segment parameters ``a + s*(b - a)``;
    #: both 0 where the chord is empty
    s_lo: np.ndarray
    s_hi: np.ndarray
    #: the chord has positive length
    hit: np.ndarray
    #: the center lies farther than ``eps`` from the closed segment
    clear: np.ndarray
    #: the in-disk index per unit time, ``factor * theta / (sin(theta) *
    #: d(p,w) * d(q,w))``; 0 where the chord is empty or the pair fails the
    #: clearance test
    per_time: np.ndarray

    @property
    def frac(self) -> np.ndarray:
        """In-disk share of each segment's length."""
        return self.s_hi - self.s_lo

    @property
    def rate(self) -> np.ndarray:
        """Effect per unit travel time over the whole segment:
        ``per_time_index * frac``."""
        return self.per_time * self.frac


def segment_disk_batch(ax, ay, bx, by, cx, cy, factor: float, radius: float,
                       eps: float = 0.0) -> SegmentDiskBatch:
    """Segments ``[a_k, b_k]`` (coordinate arrays of equal length) against
    closed disks of one ``radius`` around the centers ``c_l``, with the
    inverse-square ``factor`` and the clearance ``eps``.

    Raises ``ValueError`` for a negative factor or a non-positive radius and
    :class:`DegenerateSegmentError` for a segment whose endpoints coincide.
    Pairs that fail the clearance test are reported in ``clear``, not
    raised, and get a zero ``per_time`` (the index is singular there).
    """
    if factor < 0.0:
        raise ValueError(f"factor must be nonnegative, got {factor}")
    ax, ay, bx, by = (np.asarray(v, dtype=float)[:, None] for v in (ax, ay, bx, by))
    cx, cy = (np.asarray(v, dtype=float)[None, :] for v in (cx, cy))
    ux, uy = bx - ax, by - ay
    seg2 = ux * ux + uy * uy
    degenerate = np.flatnonzero(seg2 == 0.0)
    if degenerate.size:
        k = degenerate[0]
        raise DegenerateSegmentError(
            f"segment endpoints coincide at ({float(ax[k, 0])}, {float(ay[k, 0])})")
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    # the center's foot on the segment's line, in segment parameter units
    t_mid = -((ax - cx) * ux + (ay - cy) * uy) / seg2

    # Clearance, from the center's offset to its nearest segment point:
    # np.hypot may differ from math.hypot in the last bit, so it only
    # settles the pairs far from the threshold; math.hypot decides the rest.
    s = _below1(_above0(t_mid))
    dx, dy = cx - (ax + s * ux), cy - (ay + s * uy)
    near = np.hypot(dx, dy) <= 2.0 * eps
    clear = ~near
    clear[near] = ~(_hypot(dx[near], dy[near]) <= eps)

    # The chord is t_mid -/+ half around the foot of the perpendicular,
    # with half from the signed center-to-line distance.  This form keeps
    # the computed endpoints on the circle to ~1 ulp instead of solving the
    # raw quadratic.
    seg_len = np.sqrt(seg2)
    line_dist = ((ax - cx) * uy - (ay - cy) * ux) / seg_len
    half2 = radius * radius - line_dist * line_dist
    hit = ~(half2 <= 0.0)
    half = np.sqrt(np.where(hit, half2, 0.0)) / seg_len
    lo = _above0(t_mid - half)
    hi = _below1(t_mid + half)
    hit &= ~(lo >= hi)
    s_lo = np.where(hit, lo, 0.0)
    s_hi = np.where(hit, hi, 0.0)

    per_time = np.zeros(hit.shape)
    todo = hit & clear
    if factor != 0.0 and todo.any():
        def at(v):
            return np.broadcast_to(v, todo.shape)[todo]
        pax, pay, pux, puy, pcx, pcy, lo, hi = map(
            at, (ax, ay, ux, uy, cx, cy, s_lo, s_hi))
        v1x, v1y = pax + lo * pux - pcx, pay + lo * puy - pcy
        v2x, v2y = pax + hi * pux - pcx, pay + hi * puy - pcy
        cross = np.abs(v1x * v2y - v1y * v2x)
        dot = v1x * v2x + v1y * v2y
        theta = np.array(list(map(math.atan2, cross.tolist(), dot.tolist())),
                         dtype=float)
        per_time[todo] = factor * _theta_over_sin(theta) / (
            _hypot(v1x, v1y) * _hypot(v2x, v2y))
    return SegmentDiskBatch(s_lo, s_hi, hit, clear, per_time)


def distances(px, py, qx, qy) -> np.ndarray:
    """``dist(p_k, q_l)`` for every point ``p_k`` (rows) and ``q_l``
    (columns)."""
    px, py = (np.asarray(v, dtype=float)[:, None] for v in (px, py))
    qx, qy = (np.asarray(v, dtype=float)[None, :] for v in (qx, qy))
    return _hypot(qx - px, qy - py)


def point_rates(d: np.ndarray, factor: float, radius: float) -> np.ndarray:
    """Per-unit-time index at distances ``d`` (all positive) from a sensor:
    ``factor/d**2`` inside the closed disk, zero outside."""
    out = np.zeros(d.shape)
    inside = d <= radius
    di = d[inside]
    out[inside] = factor / (di * di)
    return out


def on_arc_error(w: Point2, eps: float) -> TargetTooCloseError:
    """The error for a target ``w`` within ``eps`` of an arc."""
    return TargetTooCloseError(
        f"target at ({w.x}, {w.y}) lies on arc within clearance {eps}")


# ---------------------------------------------------------------------------
# single pairs: nothing in the package calls these; bench/tracing.py times
# the geometry layer under these two names


@dataclass(frozen=True)
class ArcIndex:
    """One pair's ``per_time`` and ``frac`` entries."""

    per_time_index: float
    frac: float


def _arc_index(i: Point2, j: Point2, w: Point2, factor: float, radius: float,
               eps: float) -> ArcIndex:
    batch = segment_disk_batch([i.x], [i.y], [j.x], [j.y], [w.x], [w.y],
                               factor, radius, eps)
    if not batch.clear[0, 0]:
        raise on_arc_error(w, eps)
    return ArcIndex(float(batch.per_time[0, 0]), float(batch.frac[0, 0]))


def arc_risk_index(i: Point2, j: Point2, w: Point2, sigma: float,
                   risk_radius: float, eps: float = 0.0) -> ArcIndex:
    """Arc ``(i, j)`` against target ``w``'s detection disk; raises
    :class:`TargetTooCloseError` for a target within ``eps`` of the arc."""
    return _arc_index(i, j, w, sigma, risk_radius, eps)


def arc_coverage_index(i: Point2, j: Point2, w: Point2, rho: float,
                       coverage_radius: float, eps: float = 0.0) -> ArcIndex:
    """:func:`arc_risk_index` with the vehicle's coverage factor and
    radius."""
    return _arc_index(i, j, w, rho, coverage_radius, eps)
