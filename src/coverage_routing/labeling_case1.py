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
the predecessor ``argmax`` runs along contiguous memory).  One pass over
the completed table finds every candidate's best value, end node and
visited set; only the idle-stop exclusion and the tie column take one
slice per candidate.  A candidate's route is back-traced and timed at its
bound times only when asked for, so a dual evaluation, which needs the
maximizing candidate's route alone, traces and times one.

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
built once per waypoint count and cached.  A fill of one chunk keeps its
predecessor table for tracing as long as its result lives; a fill of
several traces each chunk's routes before the chunk's tables are freed.
The search refuses, before allocating anything, an instance whose fill
(see :func:`fill_bytes`) would exceed :data:`MAX_TABLE_BYTES`.

Ties are broken per candidate, exactly as a fill for that candidate alone
would break them.  A state keeps its smallest best predecessor node.  The
returned route is the first best completion in this order: end node
ascending, then visited-set size, then the lexicographic order of the sorted
visited waypoints.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import SchemaError
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


def _mask_order(n: int, mask: int) -> Tuple[int, List[int]]:
    """Tie order of visited sets: size, then the sorted visited waypoints."""
    return bin(mask).count("1"), [b for b in range(n) if mask >> b & 1]


def _best_ends(n: int, dp: np.ndarray, vexit: np.ndarray,
               vbars: Sequence[int]
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best completion through the exit arc per candidate of a chunk: its
    value, its first best end node and its first best visited set.
    ``vexit[k, j]`` is candidate ``k``'s value of arc ``j -> exit``, and 0
    at the entry depot, whose column no completion reads.  The completed
    values overwrite ``dp``."""
    dp += vexit
    for k, vbar in enumerate(vbars):
        if vbar:  # masks without the idle stop do not qualify
            dp.reshape(-1, 2, 1 << (vbar - 1), *dp.shape[1:])[
                :, 0, :, k] = -np.inf
    tops = dp.max(axis=0)[:, 1:]
    best = tops.max(axis=1)
    ends = (tops == best[:, None]).argmax(axis=1) + 1
    # per candidate, so that no float column is copied out of the table
    hits = np.empty(dp.shape[:2], dtype=bool)
    for k, end in enumerate(ends):
        np.equal(dp[:, k, end], best[k], out=hits[:, k])
    first = hits.argmax(axis=0)
    for k in np.flatnonzero(hits.sum(axis=0) > 1):
        first[k] = min(np.flatnonzero(hits[:, k]).tolist(),
                       key=functools.partial(_mask_order, n))
    return best, ends, first


def _fill_chunk(n: int, exit_id: int, vin: np.ndarray, vexit: np.ndarray,
                vbars: Sequence[int]
                ) -> Tuple[np.ndarray, Callable[[int], Tuple[int, ...]]]:
    """Fill one candidate chunk: each candidate's best value, and a tracer
    of the ``k``-th candidate's best route.  The tracer holds the chunk's
    predecessor table; the value table is freed on return."""
    dp, par = _fill(n, vin)
    best, ends, masks = _best_ends(n, dp, vexit, vbars)

    def trace(k: int) -> Tuple[int, ...]:
        node, mask = int(ends[k]), int(masks[k])
        route = [exit_id]
        while node:
            route.append(node)
            mask, node = mask ^ (1 << (node - 1)), int(par[mask, k, node])
        route.append(0)
        return tuple(reversed(route))

    return best, trace


def solve_case1(coeffs: RelaxCoeffs) -> BestRoutes:
    """Best simple route for each idle candidate of ``coeffs``, timed at
    the candidate's bound times (the deadline is ignored).

    A candidate's value is the maximum sum of arc values over routes from
    the entry to the exit depot through at least one waypoint; for
    ``vbar != 0`` only routes visiting ``vbar`` qualify.  It excludes the
    multiplier constant and the idle-gain term, which the caller adds.
    A route is traced and timed when :meth:`BestRoutes.timing` asks for it.
    The label counts are the reachable (end node, visited set) states over
    all candidates; the table prunes none.
    """
    table = coeffs.table
    n = table.n
    vbars = coeffs.idle_set
    nbytes = fill_bytes(n)
    if nbytes > MAX_TABLE_BYTES:
        raise SchemaError(
            f"case {coeffs.case} needs a {nbytes / 2**30:.1f} GiB table for "
            f"{n} waypoints, above the {MAX_TABLE_BYTES / 2**30:.0f} GiB "
            f"limit")
    times = coeffs.bound_times(coeffs.net)
    values = table.matrix(coeffs.net * times, fill=_NEG)
    vin = values[:, :n + 1].transpose(2, 0, 1)
    vexit = values[:, :n + 1, table.exit_id].copy()
    vexit[:, 0] = 0.0
    step = max(1, TABLE_CHUNK_BYTES // ((1 << n) * (n + 1) * 9))
    if step >= len(vbars):
        best, trace = _fill_chunk(n, table.exit_id,
                                  np.ascontiguousarray(vin), vexit, vbars)
    else:
        best, nodes = [], []
        for k in range(0, len(vbars), step):
            chunk, trace = _fill_chunk(
                n, table.exit_id,
                np.ascontiguousarray(vin[:, k:k + step]),
                vexit[k:k + step], vbars[k:k + step])
            best.extend(chunk)
            nodes.extend(map(trace, range(len(chunk))))
            del trace  # frees the chunk's tables before the next fill
        trace = nodes.__getitem__
    found = dict(zip(vbars, map(float, best)))

    def route(vbar: int) -> PathTiming:
        k = vbars.index(vbar)
        path = trace(k)
        return PathTiming(vbar, path,
                          tuple(map(float, times[k, table.arc_ids(path)])),
                          found[vbar])

    states = len(vbars) * (n << (n - 1))
    return BestRoutes(found, route, states, states)
