"""Chord-disk geometry behind the surveillance indices.

A vehicle moving along an arc accrues effect from a disk-shaped sensor
footprint at a rate proportional to 1/d^2 while inside the disk.  One array
kernel, ``segment_disk_batch``, intersects a batch of flight legs with a
batch of disks and gives each pair's closed-form time integral per unit
travel time; ``distances`` and ``point_rates`` give the rate while idling.
This walks through both and checks the closed form against brute-force
quadrature.
"""

import math

from coverage_routing import (Point2, dist, distances, point_rates,
                              segment_disk_batch)


def one_leg(a, b, center, factor, radius):
    """The kernel's entry for the one leg ``a -> b`` against one disk."""
    return segment_disk_batch([a.x], [a.y], [b.x], [b.y], [center.x],
                              [center.y], factor, radius)


# --- where does a flight leg cross a sensor disk? --------------------------
a, b = Point2(-3.0, 1.0), Point2(3.0, 1.0)
center, radius = Point2(0.0, 0.0), 2.0
leg = one_leg(a, b, center, 1.0, radius)
s_lo, s_hi = float(leg.s_lo[0, 0]), float(leg.s_hi[0, 0])
p = (a.x + s_lo * (b.x - a.x), a.y + s_lo * (b.y - a.y))
q = (a.x + s_hi * (b.x - a.x), a.y + s_hi * (b.y - a.y))
print("flight leg", (a.x, a.y), "->", (b.x, b.y), "vs disk r =", radius)
print(f"  in-disk sub-segment: ({p[0]:+.6f},{p[1]:.1f}) -> "
      f"({q[0]:+.6f},{q[1]:.1f}), fraction {float(leg.frac[0, 0]):.6f}")

# --- two exactly solvable exposure integrals --------------------------------
# radial approach: integral of 1/x^2 from 1 to 2 is exactly 1/2
rate = float(one_leg(Point2(1, 0), Point2(2, 0), Point2(0, 0), 1.0, 3.0).rate[0, 0])
print("\nradial pass, unit travel time:")
print(f"  computed {rate:.12f}   analytic 0.5")

# perpendicular pass: integral of 1/(1+x^2) over [-1, 1] is pi/2
rate = float(one_leg(Point2(-1, 1), Point2(1, 1), Point2(0, 0), 1.0, 2.0).rate[0, 0])
print("perpendicular pass, two time units:")
print(f"  computed {rate * 2:.12f}   analytic {math.pi / 2:.12f}")

# --- many legs against many disks in one call --------------------------------
legs = [(Point2(-3, 1), Point2(3, 1)), (Point2(1, 0), Point2(2, 0)),
        (Point2(5, 5), Point2(6, 5))]
disks = [Point2(0, 0), Point2(2, 2)]
batch = segment_disk_batch([s.x for s, _ in legs], [s.y for s, _ in legs],
                           [e.x for _, e in legs], [e.y for _, e in legs],
                           [c.x for c in disks], [c.y for c in disks],
                           1.0, 2.5)
print("\nthree legs (rows) against two disks of radius 2.5 (columns):")
print("  hit\n", batch.hit)
print("  rate per unit travel time\n", batch.rate.round(6))

# --- the same integral, done numerically ------------------------------------
try:
    from scipy.integrate import quad
except ImportError:
    quad = None

if quad is not None:
    w, r, t = Point2(0.4, -0.7), 1.9, 2.5
    a, b = Point2(-2.0, 0.3), Point2(2.5, -1.1)
    leg = one_leg(a, b, w, 1.0, r)
    ux, uy = b.x - a.x, b.y - a.y
    s_lo, s_hi = float(leg.s_lo[0, 0]), float(leg.s_hi[0, 0])
    val, _ = quad(lambda s: 1.0 / ((a.x + s * ux - w.x) ** 2
                                   + (a.y + s * uy - w.y) ** 2),
                  s_lo, s_hi)
    numeric = val * t
    closed = float(leg.rate[0, 0]) * t
    print("\nrandom oblique pass:")
    print(f"  closed form {closed:.12f}")
    print(f"  quadrature  {numeric:.12f}")

# --- idling next to a target -------------------------------------------------
stops = [Point2(0.5, 0.0), Point2(2.0, 0.0)]
d = distances([p.x for p in stops], [p.y for p in stops], [0.0], [0.0])
idle = point_rates(d, 1.0, 1.0)
print("\nidle exposure at distance", dist(stops[0], Point2(0, 0)),
      "inside a unit disk:", float(idle[0, 0]))
print("idle exposure outside the disk:", float(idle[1, 0]))
