"""Route search under a binding deadline (case II).

Per-arc travel times are no longer bound-valued up front: on any fixed route
the optimal timing is a continuous knapsack over the time budget, so all arcs
sit at a speed bound except at most one.  The search tracks, per label, which
positive-rate ("tradeoff") arcs were taken slow (u=1) or fast (u=0), keeping
the assignments threshold-consistent: every fast tradeoff arc's key stays
below every slow one's.  An ambiguous new arc forks the label both ways.

A label's reachable (time, value) pairs when one arc's time is freed (the
"token") form a two-piece frontier anchored at the label's realized point:
speeding up the cheapest slow arc walks down-left, slowing the dearest fast
arc walks up-right.  Dominance compares those frontiers pointwise.  Complete
routes are finally re-timed exactly, so the token's interior split never has
to be guessed during the search.

The search is an elementary-path labeling algorithm (Feillet et al.,
*Networks* 2004): labels are stored at their end node and expanded
breadth-first by the number of interior waypoints they have visited.

The screen: :func:`solve_case2` first fills the deadline-free
``labeling_case1`` table for all idle candidates.  A candidate whose best
route there fits the deadline at its bound times takes that route, timed
at those bound times under either key order; no route beats its
deadline-free value.  Only the other candidates are searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .instance import ArcIndexTable
from .labeling_case1 import solve_case1
from .relaxation import BestRoutes, PathTiming, RelaxCoeffs

_NEG = -1e300

RATIO_SLOPE = "slope"          # order tradeoff arcs by value per unit time
RATIO_PER_DISTANCE = "per-distance"  # order by value per unit distance


@dataclass(slots=True)
class LabelC2:
    """Partial path state: realized value/time plus the token frontier.

    ``u1_*`` describes the slow tradeoff arc with the smallest key (the one
    a token would speed up), ``u0_*`` the fast tradeoff arc with the largest
    key (the one a token would slow down).  ``span`` is the arc's time range
    ``t_hi - t_lo``; missing sides carry zero span and +/-inf keys.
    """

    node: int
    mask: int
    value: float
    time: float
    u1_key: float
    u1_slope: float
    u1_span: float
    u0_key: float
    u0_slope: float
    u0_span: float
    parent: Optional["LabelC2"]
    last_u: Optional[int]


class Store:
    """Labels ending at one node plus numpy mirrors of their visited-set
    masks, values, times and alive flags, so dominance can pre-filter a whole
    store at once.

    ``alive`` is the only record of which rows dominance killed.  Rows are
    appended layer by layer, so each layer of a store is one contiguous row
    range.
    """

    __slots__ = ("labels", "masks", "values", "times", "alive", "size")

    def __init__(self):
        self.labels: List[LabelC2] = []
        cap = 64
        self.masks = np.zeros(cap, dtype=np.int64)
        self.values = np.zeros(cap)
        self.times = np.zeros(cap)
        self.alive = np.zeros(cap, dtype=bool)
        self.size = 0

    def append(self, label: LabelC2) -> None:
        if self.size == len(self.masks):
            self.masks = np.resize(self.masks, 2 * self.size)
            self.values = np.resize(self.values, 2 * self.size)
            self.times = np.resize(self.times, 2 * self.size)
            self.alive = np.resize(self.alive, 2 * self.size)
        k = self.size
        self.masks[k] = label.mask
        self.values[k] = label.value
        self.times[k] = label.time
        self.alive[k] = True
        self.labels.append(label)
        self.size = k + 1


def reconstruct(label: LabelC2) -> List[int]:
    """Node sequence of a label, oldest first."""
    nodes: List[int] = []
    cur = label
    while cur is not None:
        nodes.append(cur.node)
        cur = cur.parent
    nodes.reverse()
    return nodes


def make_root() -> LabelC2:
    return LabelC2(0, 0, 0.0, 0.0, math.inf, 0.0, 0.0, -math.inf, 0.0, 0.0,
                   None, None)


def envelope(label: LabelC2) -> Tuple[float, float, float, float, float, float]:
    """Frontier breakpoints ``(t_min, c_min, t, c, t_max, c_max)``."""
    return (label.time - label.u1_span,
            label.value - label.u1_slope * label.u1_span,
            label.time, label.value,
            label.time + label.u0_span,
            label.value + label.u0_slope * label.u0_span)


def _cov_at(env: Tuple[float, ...], tau: float) -> float:
    """Frontier value exactly at time ``tau`` (must lie within the span)."""
    t_min, c_min, t, c, t_max, c_max = env
    if tau <= t_min:
        return c_min
    if tau <= t:
        return c_min + (c - c_min) * (tau - t_min) / (t - t_min) if t > t_min else c
    if tau < t_max:
        return c + (c_max - c) * (tau - t) / (t_max - t) if t_max > t else c_max
    return c_max


def _best_within(env: Tuple[float, ...], tau: float) -> float:
    """Best frontier value achievable with time at most ``tau``.

    Handles non-monotone frontiers (possible under the per-distance key) by
    maximizing over every breakpoint and clipped piece endpoint at or below
    ``tau``."""
    t_min, c_min, t, c, t_max, c_max = env
    if tau < t_min:
        return -math.inf
    best = c_min
    for (ta, ca, tb, cb) in ((t_min, c_min, t, c), (t, c, t_max, c_max)):
        if ta > tau:
            break
        if tb <= tau:
            best = max(best, cb)
        elif tb > ta:
            best = max(best, ca + (cb - ca) * (tau - ta) / (tb - ta))
    return best


def dominates_case2(l1: LabelC2, l2: LabelC2, vbar: int = 0) -> bool:
    """True when every completion available to ``l2`` is matched or beaten by
    one available to ``l1``.

    Needs the same end node, a visited-set inclusion, equal idle-stop
    membership, a (value, time) win with at least one strict inequality, and
    pointwise domination of the token frontier: wherever ``l2`` can move by
    re-timing one of its own arcs, ``l1`` can reach at least that value no
    later.

    Idle-stop membership must match: a label that skipped the idle stop
    would have to reroute every completion of one that visited it, paying a
    detour in both value and time, so the comparison is simply declined.
    """
    if l1.node != l2.node:
        return False
    if l1.mask & ~l2.mask:
        return False
    if vbar:
        bit = 1 << (vbar - 1)
        if bool(l1.mask & bit) != bool(l2.mask & bit):
            return False
    if not (l1.value >= l2.value and l1.time <= l2.time):
        return False
    if not (l1.value > l2.value or l1.time < l2.time):
        return False
    e1 = envelope(l1)
    e2 = envelope(l2)
    taus = [e2[0], e2[2], e2[4]]
    for bp in (e1[0], e1[2], e1[4]):
        if e2[0] < bp < e2[4]:
            taus.append(bp)
    return all(_best_within(e1, tau) >= _cov_at(e2, tau) for tau in taus)


def knapsack_times(net: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray,
                   budget: float,
                   keys: Optional[np.ndarray] = None) -> Optional[Tuple[np.ndarray, float]]:
    """Optimal (or, for a non-slope key order, heuristic) arc times on a
    fixed route: everything starts fast and the leftover budget is poured
    into positive-rate arcs in decreasing key order, ties broken by position.

    Returns None when even the all-fast timing overruns the budget.  At most
    one arc ends up strictly between its bounds.
    """
    if keys is None:
        keys = net
    times = t_lo.astype(float).copy()
    slack = budget - float(times.sum())
    if slack < 0.0:
        return None
    for idx in sorted(range(len(net)), key=lambda k: (-keys[k], k)):
        if net[idx] <= 0.0 or slack <= 0.0:
            break
        add = min(slack, float(t_hi[idx] - t_lo[idx]))
        times[idx] += add
        slack -= add
    return times, float(net @ times)


def _ratio_keys(net: np.ndarray, dist: np.ndarray, ratio_mode: str) -> np.ndarray:
    """Tradeoff-arc keys: ``net`` itself, or per unit of ``dist``."""
    if ratio_mode not in (RATIO_SLOPE, RATIO_PER_DISTANCE):
        raise ValueError(f"unknown ratio mode {ratio_mode!r}")
    return net if ratio_mode == RATIO_SLOPE else net / dist


def _time_route(vbar: int, nodes: Sequence[int], arcs, net: np.ndarray,
                t_lo: np.ndarray, t_hi: np.ndarray, keys: np.ndarray,
                T: float) -> Optional[PathTiming]:
    """Knapsack timing of route ``nodes``, whose arcs ``arcs`` picks in
    route order from the other arrays; None when it cannot meet ``T``."""
    timed = knapsack_times(net[arcs], t_lo[arcs], t_hi[arcs], T, keys[arcs])
    if timed is None:
        return None
    times, value = timed
    return PathTiming(vbar, tuple(nodes), tuple(map(float, times)), value)


class Case2Solver:
    """One route search for a fixed idle candidate under deadline ``T``."""

    def __init__(self, coeffs: RelaxCoeffs, vbar: int, T: float,
                 table: ArcIndexTable, ratio_mode: str = RATIO_SLOPE,
                 use_dominance: bool = True):
        n = table.n
        if not (vbar == 0 or 1 <= vbar <= n):
            raise ValueError(f"idle candidate {vbar} is not a waypoint id")
        self.table = table
        self.vbar = vbar
        self.vb_bit = 0 if vbar == 0 else 1 << (vbar - 1)
        self.T = T
        self.n = n
        self.exit_id = table.exit_id
        self.ratio_mode = ratio_mode
        self.use_dominance = use_dominance
        net = coeffs.net_rates(vbar)
        self.net_m = table.matrix(net, fill=_NEG)
        self.key_m = table.matrix(_ratio_keys(net, table.arc_dist, ratio_mode),
                                  fill=_NEG)
        self.tlo_m = table.matrix(coeffs.t_lo, fill=math.inf)
        self.thi_m = table.matrix(coeffs.t_hi, fill=math.inf)
        self.dist = table.node_dist
        self.speed_max = table.instance.vehicle.speed_max
        self.stores = [Store() for _ in range(n + 1)]
        self.envelope_violations = 0

    # -- extension interface ------------------------------------------------

    def close_time(self, mask: int, j: int) -> float:
        """Fastest possible time for the legs that must still follow node
        ``j``: straight to the exit if the idle stop is settled, otherwise
        via the idle stop."""
        if self.vbar == 0 or (mask & self.vb_bit):
            return self.dist[j, self.exit_id] / self.speed_max
        return (self.dist[j, self.vbar]
                + self.dist[self.vbar, self.exit_id]) / self.speed_max

    def feasible_extension(self, label: LabelC2, j: int, u: int) -> bool:
        """Can ``label`` take arc ``(node, j)`` at the proposed bound and
        still finish by the deadline at full speed?"""
        arc_t = self.thi_m[label.node, j] if u else self.tlo_m[label.node, j]
        return label.time + arc_t + self.close_time(label.mask, j) <= self.T

    def extend(self, label: LabelC2, j: int) -> List[LabelC2]:
        """Extension rules for arc ``(node, j)``: non-positive rates travel
        fast and stay out of the tradeoff set; a positive rate joins it slow,
        fast, or both ways depending on its key against the label's frontier
        keys."""
        i = label.node
        f = self.net_m[i, j]
        t_lo = self.tlo_m[i, j]
        t_hi = self.thi_m[i, j]
        children: List[LabelC2] = []
        if f <= 0.0 or t_hi <= t_lo:
            if self.feasible_extension(label, j, 0):
                children.append(self._child(label, j, f, t_lo, 0.0, None, 0.0))
            return children
        key = self.key_m[i, j]
        if key >= label.u1_key:
            wants: Tuple[int, ...] = (1,)
        elif key <= label.u0_key:
            wants = (0,)
        else:
            wants = (1, 0)
        span = t_hi - t_lo
        for u in wants:
            if self.feasible_extension(label, j, u):
                children.append(self._child(label, j, f, t_hi if u else t_lo,
                                            key, u, span))
        return children

    # -- internals --------------------------------------------------------

    def _child(self, label: LabelC2, j: int, f: float, arc_t: float,
               key: float, u: Optional[int], span: float) -> LabelC2:
        u1 = (label.u1_key, label.u1_slope, label.u1_span)
        u0 = (label.u0_key, label.u0_slope, label.u0_span)
        if u == 1 and key < label.u1_key:
            u1 = (key, f, span)
        elif u == 0 and key > label.u0_key:
            u0 = (key, f, span)
        child = LabelC2(j, label.mask | (1 << (j - 1)),
                        label.value + f * arc_t, label.time + arc_t,
                        u1[0], u1[1], u1[2], u0[0], u0[1], u0[2],
                        label, u)
        if child.u1_span > 0.0 and child.u0_span > 0.0 \
                and child.u1_slope < child.u0_slope - 1e-12:
            # threshold consistency of the frontier slopes; can only break
            # under the per-distance key order
            self.envelope_violations += 1
            if self.ratio_mode == RATIO_SLOPE:
                raise AssertionError("frontier slopes out of order under the "
                                     "slope key; this is a bug")
        return child

    def _insert(self, label: LabelC2) -> None:
        st = self.stores[label.node]
        if self.use_dominance and st.size:
            k = st.size
            m = st.masks[:k]
            v = st.values[:k]
            t = st.times[:k]
            a = st.alive[:k]
            cand = a & ((m & ~label.mask) == 0) & (v >= label.value) & (t <= label.time)
            if cand.any():
                for idx in np.flatnonzero(cand):
                    if dominates_case2(st.labels[idx], label, self.vbar):
                        return
            cand = a & ((label.mask & ~m) == 0) & (label.value >= v) & (label.time <= t)
            if cand.any():
                for idx in np.flatnonzero(cand):
                    if dominates_case2(label, st.labels[idx], self.vbar):
                        st.alive[idx] = False
        st.append(label)

    def _step(self, label: LabelC2, j: int) -> None:
        for child in self.extend(label, j):
            self._insert(child)

    def _search(self) -> None:
        """Expand the root (the entry depot, layer 0), then every alive label
        of layer 1, 2, ..., n-1 in node order and, within a node, insertion
        order.  Layer d holds the labels that visited d interior waypoints.

        Expanding layer d only appends layer-d+1 rows, so each store's layer
        d is the row range between its sizes at the starts of layers d-1 and
        d.  Dominance may kill a stored row only when its visited set
        contains the new label's; every stored row is from the new label's
        layer or an earlier one, so a killed row has the same visited set and
        is in layer d+1 too.  Layer d's alive flags are therefore final when
        the layer starts.
        """
        n = self.n
        stores = self.stores
        step = self._step
        root = make_root()
        for j in range(1, n + 1):
            step(root, j)
        starts = [0] * len(stores)
        for _ in range(1, n):
            ends = [st.size for st in stores]
            for k in range(1, len(stores)):
                st = stores[k]
                lo = starts[k]
                for idx in np.flatnonzero(st.alive[lo:ends[k]]).tolist():
                    label = st.labels[lo + idx]
                    mask = label.mask
                    for j in range(1, n + 1):
                        if not mask & (1 << (j - 1)):
                            step(label, j)
            starts = ends

    def _complete(self, label: LabelC2) -> Optional[PathTiming]:
        """Exact timing of the label's route closed by the exit arc, or None
        when it cannot meet ``T``."""
        if label.time + self.tlo_m[label.node, self.exit_id] > self.T:
            return None
        nodes = reconstruct(label) + [self.exit_id]
        path = np.array(nodes)
        return _time_route(self.vbar, nodes, (path[:-1], path[1:]),
                           self.net_m, self.tlo_m, self.thi_m, self.key_m,
                           self.T)

    def solve(self) -> Optional[PathTiming]:
        """Search, then return the first strict maximum over the alive
        labels' completions in node order, then insertion order; labels that
        skipped the idle stop are not completed.  None when no route through
        the idle stop fits ``T``."""
        self._search()
        best = None
        for st in self.stores[1:]:
            for idx in np.flatnonzero(st.alive[:st.size]).tolist():
                label = st.labels[idx]
                if self.vb_bit and not label.mask & self.vb_bit:
                    continue
                done = self._complete(label)
                if done is not None and (best is None or done.value > best.value):
                    best = done
        return best


def solve_case2(coeffs: RelaxCoeffs, vbars: Sequence[int], T: float,
                table: ArcIndexTable, ratio_mode: str = RATIO_SLOPE,
                use_dominance: bool = True) -> BestRoutes:
    """Best deadline-feasible route for each idle candidate in ``vbars``
    (None where none fits ``T``), searching only where the module's screen
    does not settle it; the label counts cover the searches.

    A value is the route's exact optimal timing value (at most one arc
    strictly between its speed bounds); multiplier constants and the
    idle-gain term are the caller's to add.
    """
    vbars = tuple(vbars)
    nets = coeffs.net_rates(vbars)
    keys = _ratio_keys(nets, table.arc_dist, ratio_mode)
    free = solve_case1(coeffs, vbars, table).results
    results = {}
    stored = alive = 0
    for vbar, net, key in zip(vbars, nets, keys):
        route = free[vbar]
        if float(np.sum(route.times)) <= T:
            results[vbar] = _time_route(vbar, route.nodes,
                                        table.arc_ids(route.nodes), net,
                                        coeffs.t_lo, coeffs.t_hi, key, T)
            continue
        solver = Case2Solver(coeffs, vbar, T, table, ratio_mode, use_dominance)
        results[vbar] = solver.solve()
        stored += sum(st.size for st in solver.stores)
        alive += sum(int(st.alive[:st.size].sum()) for st in solver.stores)
    return BestRoutes(results, stored, alive)
