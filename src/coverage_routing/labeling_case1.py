"""Maximum-value simple-path search when the deadline never binds (case I).

Every arc's travel time is pre-optimized (bound-valued), so a route is scored
by summing fixed arc values and the search is the Held-Karp dynamic program:
``dp[mask, j]`` is the best value of a path from the entry depot that visits
exactly the interior waypoints in ``mask`` and ends at ``j`` (bit ``k-1`` of
``mask`` stands for waypoint ``k``).  The table holds ``2^n * (n+1)`` floats
plus as many predecessor bytes; column 0 is the entry depot, reached only by
the empty path.  It is filled layer by layer (by visited-set size), one numpy
operation per (layer, end node), and every sum is taken in path order, so a
state's value is the rounded path sum of its kept route.  Keeping only the
best path per state is exact in floating point too: every completion adds
the same arc values, in the same order, to all paths in a state, and rounded
addition is monotone (``a <= b`` implies ``fl(a + c) <= fl(b + c)``).

Ties are broken deterministically.  A state keeps its smallest best
predecessor node.  The returned route is the first best completion in this
order: end node ascending, then visited-set size, then the lexicographic
order of the sorted visited waypoints.

The search refuses, before allocating anything, an instance whose table
would exceed :data:`MAX_TABLE_BYTES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import SchemaError
from .instance import ArcIndexTable
from .relaxation import RelaxCoeffs

_NEG = -1e300

#: largest case-I table, in bytes: ``2^n * (9(n+1) + 16)`` for n waypoints
#: (value and predecessor per state, plus the int64 mask and visited-set-size
#: columns), which allows at most 22 waypoints
MAX_TABLE_BYTES = 1 << 30


@dataclass
class Case1Result:
    value: float
    nodes: Tuple[int, ...]
    #: reachable (end node, visited set) states; the table prunes none
    labels_stored: int
    labels_alive: int


def solve_case1(coeffs: RelaxCoeffs, vbar: int,
                table: ArcIndexTable) -> Case1Result:
    """Best simple route for one idle candidate.

    Returns the maximum sum of arc values over routes from the entry to the
    exit depot through at least one waypoint; for ``vbar != 0`` only routes
    visiting ``vbar`` qualify.  The returned value excludes the multiplier
    constant and the idle-gain term, which the caller adds.
    """
    n = table.n
    if not (vbar == 0 or 1 <= vbar <= n):
        raise ValueError(f"idle candidate {vbar} is not a waypoint id")
    table_bytes = (1 << n) * (9 * (n + 1) + 16)
    if table_bytes > MAX_TABLE_BYTES:
        raise SchemaError(
            f"case I needs a {table_bytes / 2**30:.1f} GiB table for {n} "
            f"waypoints, above the {MAX_TABLE_BYTES / 2**30:.0f} GiB limit")
    exit_id = table.exit_id
    values = table.matrix(coeffs.arc_values(vbar), fill=_NEG)

    masks = np.arange(1 << n, dtype=np.int64)
    sizes = np.zeros(1, dtype=np.int64)  # visited-set size of every mask
    for _ in range(n):
        sizes = np.concatenate([sizes, sizes + 1])
    dp = np.full((1 << n, n + 1), -np.inf)
    par = np.zeros((1 << n, n + 1), dtype=np.int8)
    dp[0, 0] = 0.0
    for size in range(1, n + 1):
        layer = masks[sizes == size]
        for j in range(1, n + 1):
            bit = 1 << (j - 1)
            ends = layer[(layer & bit) != 0]
            # predecessors outside the visited set sit at -inf; argmax keeps
            # the smallest best one
            cand = dp[ends ^ bit] + values[:n + 1, j]
            best = np.argmax(cand, axis=1)
            dp[ends, j] = cand[np.arange(len(ends)), best]
            par[ends, j] = best

    rows = masks if vbar == 0 else masks[(masks & (1 << (vbar - 1))) != 0]
    total = dp[rows, 1:] + values[1:n + 1, exit_id]
    best_total = total.max()

    def scan_order(state):
        mask, node = state
        return node, int(sizes[mask]), [k for k in range(n) if mask >> k & 1]

    ties = [(int(rows[r]), int(c) + 1)
            for r, c in np.argwhere(total == best_total)]
    mask, node = min(ties, key=scan_order)
    route = [exit_id]
    while node:
        route.append(node)
        mask, node = mask ^ (1 << (node - 1)), int(par[mask, node])
    route.append(0)
    states = n << (n - 1)
    return Case1Result(float(best_total), tuple(reversed(route)),
                       states, states)
