"""Maximum-value simple-path search without the deadline.

This is the whole search in case I, where the deadline never binds.  In
case II it is the screen described in ``labeling_case2``.

Every arc's travel time is pre-optimized (bound-valued), so a route is scored
by summing fixed arc values and the search is the Held-Karp dynamic program:
``dp[k, j, mask]`` is the best value, for idle candidate ``k``, of a path
from the entry depot that visits exactly the interior waypoints in ``mask``
and ends at ``j`` (bit ``j-1`` of ``mask`` stands for waypoint ``j``).
Node 0 is the entry depot; its row stays at -inf.  The candidates of one
dual evaluation differ only in their arc values, so one fill serves them
all along the leading candidate axis.

The table is filled layer by layer (by visited-set size), and it holds
values only.  The first layer is written directly: the depot is a
one-waypoint state's only predecessor, so its value is ``0.0`` plus the
entry arc's value, as a gather's maximum would give it.  Every later
layer is gathered.  A layer's (end node, mask) states are ordered by end node,
``C(n-1, s-1)`` of them per node at visited-set size ``s``, so a chunk of
them holds whole end-node groups or lies inside one group.  For a chunk,
one gather along the mask axis takes every predecessor state's value, the
arc values into the end nodes are added to it by broadcasting (onto the
gather viewed as ``[candidate, predecessor, end node, state]``, or as one
column inside a group), and one maximum-reduce along the node axis keeps
the best.  A layer that fits one chunk is gathered whole, with no slice of
its index arrays.  Every sum is taken in path order, so a
state's value is the rounded path sum of its kept route.  Keeping only the
best path per state is exact in floating point too: every completion adds
the same arc values, in the same order, to all paths in a state, and
rounded addition is monotone (``a <= b`` implies ``fl(a + c) <= fl(b + c)``).

The completion scan only reads the table, in two halves.  The value half
runs right after the fill.  Per candidate, one reduce over a view of the
masks that hold the idle stop gives each end node's peak; by monotone
rounding, the peak plus the exit arc's value is the best completion
through that end node, and the candidate's value is the largest of them.
No route is needed for a value, so a dual evaluation, which compares the
candidates by value, chooses, traces and times none.  The route half runs
once, across the candidates of a chunk at once, when the first of their
routes is asked for: it finds each candidate's first best end node and
visited set (the tie rules below) from the value half's completions.  A
candidate's route is then re-derived, and timed at its bound times, only
when asked for.  The trace walks back from the end state: a state's
predecessor is the first node, in ascending order, whose state value plus
arc value, in Python floats, equals the state's value.  Those are the sums
the fill compared, so this is the first of their maxima.  The walk yields
the route's arc ids as well as its nodes (from a grid of arc ids cached
per waypoint count), and the route's times are taken at those ids, so the
route's record (see :class:`~coverage_routing.relaxation.PathTiming`)
carries both for every later reader.

Memory: one candidate's table holds ``2^n * (n+1)`` floats.  Candidates are
filled in chunks of at most :data:`TABLE_CHUNK_BYTES` (one candidate at
least), and each layer is gathered in chunks of at most
:data:`STATE_CHUNK_BYTES`.  The per-layer index arrays take 8 bytes for each
of the ``n * 2^(n-1)`` states; they are built once per waypoint count and
cached.  A fill of one chunk keeps its table until each candidate's route
has been traced once; a fill of several traces each chunk's routes, which
frees the chunk's table, before it fills the next.  The tie search reads
the best end nodes' columns in chunks of at most :data:`STATE_CHUNK_BYTES`.
The search refuses, before allocating anything, an instance whose fill
(see :func:`fill_bytes`) would exceed :data:`MAX_TABLE_BYTES`.

Ties are broken per candidate, exactly as a fill for that candidate alone
would break them.  A state's kept path runs through its smallest best
predecessor node.  The returned route is the first best completion in this
order: end node ascending, then visited-set size, then the lexicographic
order of the sorted visited waypoints.  Completions tie when their rounded
values are equal, also where the states' own values differ: a visited set
ties when its state value plus the exit arc's value, the sum the value half
compared, equals the best completion.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .errors import SchemaError
from .instance import _arc_grid
from .relaxation import CASE_II, BestRoutes, PathTiming, RelaxCoeffs

_NEG = -1e300

#: a traced route: its nodes and its arc ids, in path order
Route = Tuple[Tuple[int, ...], Tuple[int, ...]]

#: bytes of one gathered (candidate, predecessor, state) block of a layer;
#: larger layers are filled in several gathers
STATE_CHUNK_BYTES = 1 << 17
#: bytes of the value table filled at once; candidates beyond it are
#: filled in further passes
TABLE_CHUNK_BYTES = 1 << 20
#: largest fill, in bytes (see :func:`fill_bytes`): at most 21 waypoints
MAX_TABLE_BYTES = 1 << 30


def fill_bytes(n: int) -> int:
    """Most bytes a fill over ``n`` waypoints holds at once: the value
    table of one candidate chunk (one float per state), the cached
    per-layer index arrays, and a few state chunks of temporaries."""
    one = (1 << n) * (n + 1) * 8
    return max(one, TABLE_CHUNK_BYTES) + 8 * ((n << n) >> 1) \
        + 4 * STATE_CHUNK_BYTES


@functools.lru_cache(maxsize=1)
def _layers(n: int) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """For each visited-set size 1..n, the (end node, mask) states with the
    end node in the mask, ordered by end node: the state's cell (its flat
    index ``node * 2^n + mask`` in one candidate's table, so ``cell >> n``
    is its end node) and the predecessor mask."""
    masks = np.arange(1 << n, dtype=np.int32)
    sizes = np.zeros(1, dtype=np.int8)  # visited-set size of every mask
    for _ in range(n):
        sizes = np.concatenate([sizes, sizes + 1])
    layers = []
    for size in range(1, n + 1):
        layer = masks[sizes == size]
        cells, prev = [], []
        for j in range(1, n + 1):
            bit = 1 << (j - 1)
            held = layer[(layer & bit) != 0]
            cells.append(held | j << n)
            prev.append(held ^ bit)
        layers.append(tuple(map(np.concatenate, (cells, prev))))
    for layer in layers:
        for a in layer:
            a.flags.writeable = False  # shared by every later fill
    return tuple(layers)


def _fill(n: int, w: np.ndarray) -> np.ndarray:
    """Value table ``[candidate, node, mask]`` for the candidates of ``w``,
    where ``w[k, i, j]`` is candidate ``k``'s value of arc ``i -> j``."""
    kc = w.shape[0]
    dp = np.full((kc, n + 1, 1 << n), -np.inf)
    flat = dp.reshape(kc, -1)  # [candidate, cell]
    first, *layers = _layers(n)
    # the entry depot is a one-waypoint state's only finite predecessor, so
    # the gather's maximum is 0.0 plus the entry arc's value
    flat[:, first[0]] = 0.0 + w[:, 0, 1:]
    step = max(1, STATE_CHUNK_BYTES // ((n + 1) * kc * 8))
    into = w[:, :, 1:, None]  # [candidate, predecessor, end node, 1]
    for cells, prev in layers:
        per = len(cells) // n  # states per end node
        if len(cells) <= step:
            # predecessors outside the visited set sit at -inf
            cand = dp.take(prev, axis=2)
            groups = cand.reshape(kc, n + 1, n, per)  # a view
            groups += into
            flat[:, cells] = np.maximum.reduce(cand, axis=1)
        elif per <= step:
            # chunks of whole end-node groups
            size = step // per * per
            for a in range(0, len(cells), size):
                b = a + size
                cand = dp.take(prev[a:b], axis=2)
                groups = cand.reshape(kc, n + 1, -1, per)
                groups += into[:, :, a // per:b // per]
                flat[:, cells[a:b]] = np.maximum.reduce(cand, axis=1)
        else:
            # chunks inside one end node's group
            for j in range(n):
                column = into[:, :, j]
                for a in range(j * per, (j + 1) * per, step):
                    b = min(a + step, (j + 1) * per)
                    cand = dp.take(prev[a:b], axis=2)
                    cand += column
                    flat[:, cells[a:b]] = np.maximum.reduce(cand, axis=1)
    return dp


def _mask_order(n: int, mask: int) -> Tuple[int, List[int]]:
    """Tie order of visited sets: size, then the sorted visited waypoints."""
    return bin(mask).count("1"), [b for b in range(n) if mask >> b & 1]


def _tops(n: int, dp: np.ndarray, vexit: np.ndarray, vbars: Sequence[int]
          ) -> np.ndarray:
    """The value half of the completion scan: per candidate of a chunk,
    each end node's best completion through the exit arc (``vexit[k,
    j-1]`` is candidate ``k``'s value of arc ``j -> exit``) over the masks
    that hold the idle stop.  A candidate's value is its row maximum.  The
    table is only read."""
    # per-node peaks over the masks that hold the idle stop, through views
    peaks = np.array([np.maximum.reduce(
        dp[k, 1:].reshape(n, -1, 2, 1 << (vbar - 1))[:, :, 1], axis=(1, 2))
        if vbar else np.maximum.reduce(dp[k, 1:], axis=1)
        for k, vbar in enumerate(vbars)])
    # rounding is monotone, so the completed peak is the best completion
    return peaks + vexit


def _best_ends(n: int, dp: np.ndarray, vexit: np.ndarray,
               vbars: Sequence[int], tops: np.ndarray
               ) -> Tuple[List[int], List[int]]:
    """The route half of the completion scan: per candidate of a chunk, its
    first best end node and its first best visited set, from the value
    half's completions ``tops`` (see :func:`_tops`): a visited set ties
    where its state value plus the exit arc's value equals the best.  The
    table is only read."""
    ends = tops.argmax(axis=1)  # first best end node, less one
    rows = np.arange(len(vbars))
    best = tops[rows, ends][:, None]
    exits = vexit[rows, ends][:, None]
    ends += 1
    ties: List[List[int]] = [[] for _ in vbars]
    step = max(1, STATE_CHUNK_BYTES // (8 * len(vbars)))
    for a in range(0, 1 << n, step):
        done = dp[rows, ends, a:a + step]  # a copy, completed in place
        done += exits
        for k, m in zip(*(x.tolist() for x in (done == best).nonzero())):
            m += a
            vbar = vbars[k]
            if not vbar or m >> (vbar - 1) & 1:
                ties[k].append(m)
    firsts = [t[0] if len(t) == 1 else
              min(t, key=functools.partial(_mask_order, n)) for t in ties]
    return ends.tolist(), firsts


def _trace(dp: np.ndarray, w: np.ndarray, k: int, node: int, mask: int,
           exit_id: int, grid: Tuple[Tuple[int, ...], ...]) -> Route:
    """Candidate ``k``'s route: its kept path from the entry depot to
    ``node`` through the waypoints of ``mask``, then the exit, as its nodes
    and its arc ids (looked up in ``grid``, see ``instance._arc_grid``).  A
    state's predecessor is the first node, in ascending order, whose state
    value plus arc value, in Python floats, equals the state's value: the
    first maximum of the sums the fill compared."""
    path, arcs = [exit_id], [grid[node][exit_id]]
    value = dp.item(k, node, mask)
    while node:
        path.append(node)
        mask ^= 1 << (node - 1)
        rest, end, node = mask, node, 0
        while rest:  # the waypoints of mask, lowest first
            low = rest & -rest
            rest ^= low
            i = low.bit_length()
            prior = dp.item(k, i, mask)
            if prior + w.item(k, i, end) == value:
                node, value = i, prior
                break
        arcs.append(grid[node][end])  # node 0 once the mask is empty
    path.append(0)
    return tuple(reversed(path)), tuple(reversed(arcs))


def _fill_chunk(n: int, exit_id: int, w: np.ndarray, vexit: np.ndarray,
                vbars: Sequence[int]
                ) -> Tuple[np.ndarray, Callable[[int], Route]]:
    """Fill one candidate chunk: each row's best value, and a tracer of the
    ``k``-th candidate's best route (its nodes and arc ids).  Rows of ``w``
    beyond ``vbars`` are value-only rows without an idle stop: they get a
    value and never a route.  The values come from the value half of the
    completion scan alone; the tracer's first call runs the route half for
    every candidate of the chunk.  The tracer holds the chunk's value table
    until it has traced every candidate's route once."""
    dp = _fill(n, w)
    kc = len(vbars)
    tops = _tops(n, dp, vexit, (*vbars, *[0] * (len(w) - kc)))
    grid = _arc_grid(n)
    ends = None  # each candidate's best end node and visited set
    routes: Dict[int, Route] = {}

    def trace(k: int) -> Route:
        nonlocal dp, ends
        if k not in routes:
            if ends is None:
                ends = _best_ends(n, dp[:kc], vexit[:kc], vbars, tops[:kc])
            nodes, masks = ends
            routes[k] = _trace(dp, w, k, nodes[k], masks[k], exit_id, grid)
            if len(routes) == kc:
                dp = None  # frees the table
        return routes[k]

    return np.maximum.reduce(tops, axis=1), trace


def solve_case1(coeffs: RelaxCoeffs) -> BestRoutes:
    """Best simple route for each idle candidate of ``coeffs``, timed at
    the candidate's bound times (the deadline is ignored).

    A candidate's value is the maximum sum of arc values over routes from
    the entry to the exit depot through at least one waypoint; for
    ``vbar != 0`` only routes visiting ``vbar`` qualify.  It excludes the
    multiplier constant and the idle-gain term, which the caller adds.
    A route is traced and timed when :meth:`BestRoutes.timing` asks for it.
    The label counts are the reachable (end node, visited set) states over
    all candidates; the table prunes none.  The first case-II fill of a
    table scores one value-only row more, with ``max_time`` as arc values
    and no idle stop, and keeps its value on the table as the
    slowest-route certificate (:attr:`ArcIndexTable.slowest_route`, read
    by ``labeling_case2``).
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
    per_arc = coeffs.net * times
    # the table's first case-II fill scores one more row, the slowest-route
    # certificate's: max_time as arc values, no idle stop
    certify = coeffs.case == CASE_II and table.slowest_route is None
    if certify:
        per_arc = np.vstack([per_arc, table.max_time])
    values = table.matrix(per_arc, fill=_NEG)
    w = np.ascontiguousarray(values[:, :n + 1, :n + 1])
    vexit = values[:, 1:n + 1, table.exit_id]
    step = max(1, TABLE_CHUNK_BYTES // ((1 << n) * (n + 1) * 8))
    if step >= len(w):
        best, trace = _fill_chunk(n, table.exit_id, w, vexit, vbars)
    else:
        best, traced = [], []
        for k in range(0, len(w), step):
            chunk = vbars[k:k + step]
            rows, trace = _fill_chunk(n, table.exit_id, w[k:k + step],
                                      vexit[k:k + step], chunk)
            best.extend(rows)
            # tracing every route frees the chunk's table before the next fill
            traced.extend(map(trace, range(len(chunk))))
        trace = traced.__getitem__
    if certify:
        table.slowest_route = float(best[-1])
    found = dict(zip(vbars, map(float, best)))

    def route(vbar: int) -> PathTiming:
        k = vbars.index(vbar)
        path, arcs = trace(k)
        t = times[k].take(arcs).tolist()
        return PathTiming(vbar, path, tuple(t), found[vbar], arcs, sum(t))

    states = len(vbars) * (n << (n - 1))
    return BestRoutes(found, route, states, states)
