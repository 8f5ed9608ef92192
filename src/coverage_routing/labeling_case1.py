"""Maximum-value simple-path search without the deadline.

This is the whole search in case I, where the deadline never binds.  In
case II it is the screen described in ``labeling_case2``.

Every arc's travel time is pre-optimized (bound-valued), so a route is scored
by summing fixed arc values and the search is the Held-Karp dynamic program:
``dp[mask, k, j]`` is the best value, for idle candidate ``k``, of a path
from the entry depot that visits exactly the interior waypoints in ``mask``
and ends at ``j`` (bit ``j-1`` of ``mask`` stands for waypoint ``j``).
Node 0 is the entry depot, reached only by the empty path.  The candidates
of one dual evaluation differ only in their arc values, so one fill serves
them all along the candidate axis (it sits before the node axis, so that
the predecessor ``argmax`` runs along contiguous memory).  Each candidate's
best route comes back as a :class:`PathTiming` timed at its bound times.

The table is filled layer by layer (by visited-set size).  One gather over
all of a layer's (mask, end node) states adds every predecessor state's
value to the arc value into the end node, and an ``argmax`` along the
predecessor axis keeps the best.  Every sum is taken in path order, so a
state's value is the rounded path sum of its kept route.  Keeping only the
best path per state is exact in floating point too: every completion adds
the same arc values, in the same order, to all paths in a state, and
rounded addition is monotone (``a <= b`` implies ``fl(a + c) <= fl(b + c)``).

Memory: one candidate's table holds ``2^n * (n+1)`` floats plus as many
predecessor bytes.  Candidates are filled in chunks of at most
:data:`TABLE_CHUNK_BYTES` (one candidate at least), and each layer is
gathered in chunks of at most :data:`STATE_CHUNK_BYTES`.  The per-layer
index arrays take 9 bytes for each of the ``n * 2^(n-1)`` states; they are
built once per waypoint count and cached.  The search refuses, before
allocating anything, an instance whose fill (see :func:`fill_bytes`) would
exceed :data:`MAX_TABLE_BYTES`.

Ties are broken per candidate, exactly as a fill for that candidate alone
would break them.  A state keeps its smallest best predecessor node.  The
returned route is the first best completion in this order: end node
ascending, then visited-set size, then the lexicographic order of the sorted
visited waypoints.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

import numpy as np

from .errors import SchemaError
from .instance import ArcIndexTable
from .relaxation import BestRoutes, PathTiming, RelaxCoeffs

_NEG = -1e300

#: bytes of one gathered (state, predecessor, candidate) block of a layer;
#: larger layers are filled in several gathers
STATE_CHUNK_BYTES = 1 << 17
#: bytes of the value and predecessor tables filled at once; candidates
#: beyond them are filled in further passes
TABLE_CHUNK_BYTES = 1 << 20
#: largest fill, in bytes (see :func:`fill_bytes`): at most 21 waypoints
MAX_TABLE_BYTES = 1 << 30


def fill_bytes(n: int) -> int:
    """Most bytes a fill over ``n`` waypoints holds at once: the tables of
    one candidate chunk (value and predecessor per state), the cached
    per-layer index arrays, and a few state chunks of temporaries."""
    one = (1 << n) * (n + 1) * 9
    return max(one, TABLE_CHUNK_BYTES) + 9 * ((n << n) >> 1) \
        + 4 * STATE_CHUNK_BYTES


@functools.lru_cache(maxsize=1)
def _layers(n: int) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """For each visited-set size 1..n, the (mask, end node) states with the
    end node in the mask, ordered by end node: the mask, the end node, and
    the predecessor mask."""
    masks = np.arange(1 << n, dtype=np.int32)
    sizes = np.zeros(1, dtype=np.int8)  # visited-set size of every mask
    for _ in range(n):
        sizes = np.concatenate([sizes, sizes + 1])
    layers = []
    for size in range(1, n + 1):
        layer = masks[sizes == size]
        held, ends, prev = [], [], []
        for j in range(1, n + 1):
            bit = 1 << (j - 1)
            held.append(layer[(layer & bit) != 0])
            ends.append(np.full(len(held[-1]), j, dtype=np.int8))
            prev.append(held[-1] ^ bit)
        layers.append(tuple(map(np.concatenate, (held, ends, prev))))
    for layer in layers:
        for a in layer:
            a.flags.writeable = False  # shared by every later fill
    return tuple(layers)


def _fill(n: int, vin: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Value and predecessor tables ``[mask, candidate, node]`` for the
    candidates of ``vin``, where ``vin[j, k, i]`` is candidate ``k``'s value
    of arc ``i -> j``."""
    kc = vin.shape[1]
    dp = np.full((1 << n, kc, n + 1), -np.inf)
    par = np.zeros((1 << n, kc, n + 1), dtype=np.int8)
    dp[0, :, 0] = 0.0
    step = max(1, STATE_CHUNK_BYTES // ((n + 1) * kc * 8))
    cells = np.arange(step * kc)
    for held, ends, prev in _layers(n):
        for a in range(0, len(held), step):
            b = min(a + step, len(held))
            # a chunk inside one end node's run indexes by that node alone
            j = ends[a] if ends[a] == ends[b - 1] else ends[a:b]
            # predecessors outside the visited set sit at -inf; argmax keeps
            # the smallest best one
            cand = dp[prev[a:b]]
            cand += vin[j]
            best = cand.argmax(axis=2)
            dp[held[a:b], :, j] = cand.reshape(-1, n + 1)[
                cells[:best.size], best.ravel()].reshape(best.shape)
            par[held[a:b], :, j] = best
    return dp, par


def _best_routes(n: int, exit_id: int, dp: np.ndarray, par: np.ndarray,
                 vexit: np.ndarray, vbars: Sequence[int]
                 ) -> List[Tuple[float, Tuple[int, ...]]]:
    """Best completion (value, route) through the exit arc per candidate;
    ``vexit[k, j-1]`` is candidate ``k``'s value of arc ``j -> exit``."""
    need = np.array([1 << (v - 1) if v else 0 for v in vbars])
    step = max(1, STATE_CHUNK_BYTES // (n * len(vbars) * 8))
    starts = range(0, 1 << n, step)

    def totals(a):
        """Completed values of the masks from ``a`` on, ``[mask, k, end]``,
        and whether each mask qualifies for each candidate."""
        masks = np.arange(a, min(a + step, 1 << n))
        ok = ((masks[:, None] & need) == need)[..., None]
        return np.where(ok, dp[a:a + step, :, 1:] + vexit, -np.inf), ok

    tops = np.array([totals(a)[0].max(axis=(0, 2)) for a in starts])
    best = tops.max(axis=0)
    ties: List[List[Tuple[int, int]]] = [[] for _ in vbars]
    for a, top in zip(starts, tops):
        if (top == best).any():
            total, ok = totals(a)
            for r, k, c in np.argwhere((total == best[:, None]) & ok):
                ties[k].append((a + int(r), int(c) + 1))

    def scan_order(state):
        mask, node = state
        return node, bin(mask).count("1"), [b for b in range(n) if mask >> b & 1]

    out = []
    for k in range(len(vbars)):
        mask, node = min(ties[k], key=scan_order)
        route = [exit_id]
        while node:
            route.append(node)
            mask, node = mask ^ (1 << (node - 1)), int(par[mask, k, node])
        route.append(0)
        out.append((float(best[k]), tuple(reversed(route))))
    return out


def solve_case1(coeffs: RelaxCoeffs, vbars: Sequence[int],
                table: ArcIndexTable) -> BestRoutes:
    """Best simple route for each idle candidate in ``vbars``, timed at
    the candidate's bound times (the deadline is ignored).

    A candidate's value is the maximum sum of arc values over routes from
    the entry to the exit depot through at least one waypoint; for
    ``vbar != 0`` only routes visiting ``vbar`` qualify.  It excludes the
    multiplier constant and the idle-gain term, which the caller adds.
    The label counts are the reachable (end node, visited set) states over
    all candidates; the table prunes none.
    """
    n = table.n
    vbars = tuple(vbars)
    for vbar in vbars:
        if not (vbar == 0 or 1 <= vbar <= n):
            raise ValueError(f"idle candidate {vbar} is not a waypoint id")
    nbytes = fill_bytes(n)
    if nbytes > MAX_TABLE_BYTES:
        raise SchemaError(
            f"case {coeffs.case} needs a {nbytes / 2**30:.1f} GiB table for "
            f"{n} waypoints, above the {MAX_TABLE_BYTES / 2**30:.0f} GiB "
            f"limit")
    values = table.matrix(coeffs.arc_values(vbars), fill=_NEG)
    vin = values[:, :n + 1].transpose(2, 0, 1)
    vexit = values[:, 1:n + 1, table.exit_id]
    step = max(1, TABLE_CHUNK_BYTES // ((1 << n) * (n + 1) * 9))
    routes: List[Tuple[float, Tuple[int, ...]]] = []
    for k in range(0, len(vbars), step):
        dp, par = _fill(n, np.ascontiguousarray(vin[:, k:k + step]))
        routes += _best_routes(n, table.exit_id, dp, par, vexit[k:k + step],
                               vbars[k:k + step])
    times = coeffs.bound_times(vbars)
    results = {
        vbar: PathTiming(vbar, nodes,
                         tuple(map(float, t[table.arc_ids(nodes)])), value)
        for vbar, t, (value, nodes) in zip(vbars, times, routes)}
    states = len(vbars) * (n << (n - 1))
    return BestRoutes(results, states, states)
