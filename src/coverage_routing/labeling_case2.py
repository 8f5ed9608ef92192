"""Route search under a binding deadline (case II).

Per-arc travel times are no longer bound-valued up front: on any fixed route
the optimal timing is a continuous knapsack over the time budget
(:func:`knapsack_times`).  Every arc starts fast and the leftover budget is
poured into the positive-rate ("tradeoff") arcs in key order, so at most one
arc ends up strictly between its speed bounds.

A label is one partial path.  It keeps the path's all-fast time and value
and its tradeoff arcs in pouring order, which together give the path's
time-value curve (:func:`curve`): the value the path reaches within a
budget.  The curve is piecewise linear, and the pour over a path plus a
completion is the merge of the two pouring orders, so under the slope key a
label whose curve is at least another's from the other's all-fast time to
the deadline does at least as well under every completion.  Dominance
compares the curves at their breakpoints (Ioachim et al., *Networks* 1998).
Under the per-distance key the pour is a heuristic, and so is this
dominance.

The search is an elementary-path labeling algorithm (Feillet et al.,
*Networks* 2004): labels are stored at their end node and expanded
breadth-first by the number of interior waypoints they have visited.  Only
the best completed label is timed.

The screen: :func:`solve_case2` first fills the deadline-free
``labeling_case1`` table for all idle candidates.  A candidate whose best
route there fits the deadline at its bound times (its recorded travel
time, :attr:`PathTiming.total`, is at most the deadline) keeps the fill's
route record, times and value: no route beats its deadline-free value, and
under either key order the pour would only repeat those times.  Only the
others are searched.

Where the deadline cannot bind, the screen is skipped.  The table's
slowest-route certificate (:attr:`ArcIndexTable.slowest_route`, scored by
the table's first case-II fill) is the largest path-order sum of
``max_time`` over the routes the fill scores.  Every bound time is at most
its arc's ``max_time``, rounding is monotone, and the fill keeps every
state's largest path sum, so no route's bound times add up, in path
order, to more than the certificate.  Python 3.12 and later ``sum`` floats
with compensation, which can exceed the path-order sum by a few ulps of it,
so the check allows ``4 (n+2)`` units of ``2**-52`` on the certificate.
When the certificate with that allowance is at most the deadline, every
candidate's route fits, and :func:`solve_case2` returns the fill's own
answer, routes untraced, as case I does: the evaluation has its value
before any route is chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .labeling_case1 import _NEG, solve_case1
from .relaxation import BestRoutes, PathTiming, RelaxCoeffs

RATIO_SLOPE = "slope"          # order tradeoff arcs by value per unit time
RATIO_PER_DISTANCE = "per-distance"  # order by value per unit distance


@dataclass(slots=True)
class LabelC2:
    """One partial path: its end node and visited set, its all-fast time
    and value, and its tradeoff arcs ``(key, rate, span)`` in pouring order
    (decreasing key, ties by position on the path).  ``span`` is the arc's
    time range ``t_hi - t_lo``."""

    node: int
    mask: int
    time: float
    value: float
    arcs: Tuple[Tuple[float, float, float], ...]
    parent: Optional["LabelC2"]


class Store:
    """Labels ending at one node plus numpy mirrors of their visited-set
    masks, all-fast times, curve values at the deadline and alive flags, so
    dominance can pre-filter a whole store at once.

    ``alive`` is the only record of which rows dominance killed.  Rows are
    appended layer by layer, so each layer of a store is one contiguous row
    range.
    """

    __slots__ = ("labels", "masks", "times", "tops", "alive", "size")

    def __init__(self):
        self.labels: List[LabelC2] = []
        cap = 64
        self.masks = np.zeros(cap, dtype=np.int64)
        self.times = np.zeros(cap)
        self.tops = np.zeros(cap)
        self.alive = np.zeros(cap, dtype=bool)
        self.size = 0

    def append(self, label: LabelC2, top: float) -> None:
        if self.size == len(self.masks):
            self.masks = np.resize(self.masks, 2 * self.size)
            self.times = np.resize(self.times, 2 * self.size)
            self.tops = np.resize(self.tops, 2 * self.size)
            self.alive = np.resize(self.alive, 2 * self.size)
        k = self.size
        self.masks[k] = label.mask
        self.times[k] = label.time
        self.tops[k] = top
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


def curve(label: LabelC2, budget: float) -> float:
    """Value the label's path reaches within time ``budget`` (-inf below its
    all-fast time): the leftover budget poured into its tradeoff arcs."""
    slack = budget - label.time
    if slack < 0.0:
        return -math.inf
    value = label.value
    for _, rate, span in label.arcs:
        if slack <= 0.0:
            break
        add = min(slack, span)
        value += rate * add
        slack -= add
    return value


def dominates_case2(l1: LabelC2, l2: LabelC2, T: float, vbar: int = 0) -> bool:
    """True when ``l1`` does at least as well as ``l2`` under every
    completion that meets deadline ``T`` (weakly: identical labels dominate
    each other).

    Needs the same end node, a visited-set inclusion, equal idle-stop
    membership, an all-fast time no later, and ``l1``'s curve at least
    ``l2``'s on ``[l2.time, T]``.  Both curves are piecewise linear, so
    comparing them at the ends and at every breakpoint in between is exact.

    Idle-stop membership must match: a label that skipped the idle stop
    would have to reroute every completion of one that visited it, paying a
    detour in both value and time, so the comparison is simply declined.
    """
    if l1.node != l2.node or l1.mask & ~l2.mask or l1.time > l2.time:
        return False
    if vbar:
        bit = 1 << (vbar - 1)
        if bool(l1.mask & bit) != bool(l2.mask & bit):
            return False
    budgets = [l2.time, T]
    for label in (l1, l2):
        b = label.time
        for _, _, span in label.arcs:
            b += span
            if l2.time < b < T:
                budgets.append(b)
    return all(curve(l1, b) >= curve(l2, b) for b in budgets)


def knapsack_times(net: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray,
                   budget: float,
                   keys: Optional[np.ndarray] = None) -> Optional[Tuple[np.ndarray, float]]:
    """Optimal (or, for a non-slope key order, heuristic) arc times on a
    fixed route: everything starts fast and the leftover budget is poured
    into positive-rate arcs in decreasing key order, ties broken by position.

    Returns None when even the all-fast timing overruns the budget by the
    built-in ``sum`` of its times, the :attr:`PathTiming.total` it records.
    A fully poured arc takes exactly its upper bound, and at most one arc
    ends up strictly between its bounds.  Poured times can add up, in
    floats, to a few ulps above the budget; then the last arc that received
    time is lowered by that overrun and stepped down by ulps until both the
    built-in ``sum`` and ``math.fsum`` of the times are at most the budget.
    So every timing returned has its ``total`` at most the budget.
    """
    if keys is None:
        keys = net
    times = t_lo.astype(float).copy()
    slack = budget - sum(times.tolist())
    if slack < 0.0:
        return None
    last = None
    for idx in sorted(range(len(net)), key=lambda k: (-keys[k], k)):
        if net[idx] <= 0.0 or slack <= 0.0:
            break
        span = float(t_hi[idx] - t_lo[idx])
        add = min(slack, span)
        if add > 0.0:
            # a full arc takes exactly t_hi: t_lo + (t_hi - t_lo) can round
            # an ulp above it
            times[idx] = t_hi[idx] if add == span else times[idx] + add
            slack -= add
            last = idx
    if last is not None:
        seq = times.tolist()
        over = max(sum(seq), math.fsum(seq)) - budget
        if over > 0.0:
            # one ulp of the budget is many of a short arc's time, so the
            # steps start from the time less the overrun
            seq[last] -= over
            while sum(seq) > budget or math.fsum(seq) > budget:
                seq[last] = math.nextafter(seq[last], -math.inf)
            times[last] = seq[last]
    return times, float(net @ times)


def _check_ratio_mode(ratio_mode: str) -> None:
    if ratio_mode not in (RATIO_SLOPE, RATIO_PER_DISTANCE):
        raise ValueError(f"unknown ratio mode {ratio_mode!r}")


class Case2Solver:
    """One route search for a fixed idle candidate under deadline ``T``."""

    def __init__(self, coeffs: RelaxCoeffs, vbar: int,
                 ratio_mode: str = RATIO_SLOPE, use_dominance: bool = True):
        table = coeffs.table
        n = table.n
        if vbar not in coeffs.idle_set:
            raise ValueError(f"idle candidate {vbar} is not in the idle set "
                             f"{coeffs.idle_set}")
        self.coeffs = coeffs
        self.vbar = vbar
        self.vb_bit = 0 if vbar == 0 else 1 << (vbar - 1)
        self.T = coeffs.deadline
        self.n = n
        self.exit_id = table.exit_id
        self.use_dominance = use_dominance
        _check_ratio_mode(ratio_mode)
        self.net = coeffs.net_rates(vbar)
        self.keys = (self.net if ratio_mode == RATIO_SLOPE
                     else self.net / table.arc_dist)
        self.net_m = table.matrix(self.net, fill=_NEG)
        self.key_m = (self.net_m if ratio_mode == RATIO_SLOPE
                      else table.matrix(self.keys, fill=_NEG))
        self.tlo_m = table.matrix(table.min_time, fill=math.inf)
        self.thi_m = table.matrix(table.max_time, fill=math.inf)
        self.dist = table.node_dist
        self.speed_max = table.instance.vehicle.speed_max
        self.stores = [Store() for _ in range(n + 1)]

    def _append(self, label: LabelC2, j: int) -> LabelC2:
        """``label`` extended by arc ``(node, j)`` at its fastest time; a
        tradeoff arc goes after the label's arcs of equal or larger key."""
        i = label.node
        f = self.net_m[i, j]
        t_lo = self.tlo_m[i, j]
        span = self.thi_m[i, j] - t_lo
        arcs = label.arcs
        if f > 0.0 and span > 0.0:
            key = self.key_m[i, j]
            k = len(arcs)
            while k and arcs[k - 1][0] < key:
                k -= 1
            arcs = arcs[:k] + ((key, f, span),) + arcs[k:]
        return LabelC2(j, label.mask | (1 << (j - 1)), label.time + t_lo,
                       label.value + f * t_lo, arcs, label)

    def extend(self, label: LabelC2, j: int) -> List[LabelC2]:
        """The child over arc ``(node, j)`` if it can still finish by the
        deadline at full speed (straight to the exit once the idle stop is
        settled, otherwise via the idle stop); else nothing."""
        child = self._append(label, j)
        if self.vbar == 0 or child.mask & self.vb_bit:
            close = self.dist[j, self.exit_id]
        else:
            close = self.dist[j, self.vbar] + self.dist[self.vbar, self.exit_id]
        return [child] if child.time + close / self.speed_max <= self.T else []

    def _insert(self, label: LabelC2) -> None:
        """Store ``label`` unless a stored label dominates it, killing the
        stored labels it dominates."""
        st = self.stores[label.node]
        top = curve(label, self.T)
        if self.use_dominance and st.size:
            k = st.size
            m = st.masks[:k]
            t = st.times[:k]
            c = st.tops[:k]
            a = st.alive[:k]
            cand = a & ((m & ~label.mask) == 0) & (t <= label.time) & (c >= top)
            for idx in np.flatnonzero(cand):
                if dominates_case2(st.labels[idx], label, self.T, self.vbar):
                    return
            cand = a & ((label.mask & ~m) == 0) & (label.time <= t) & (top >= c)
            for idx in np.flatnonzero(cand):
                if dominates_case2(label, st.labels[idx], self.T, self.vbar):
                    st.alive[idx] = False
        st.append(label, top)

    def _search(self) -> None:
        """Expand the root (the entry depot, layer 0), then every alive label
        of layer 1, 2, ..., n-1 in node order and, within a node, insertion
        order.  Layer d holds the labels that visited d interior waypoints.

        Expanding layer d only appends layer-d+1 rows, so each store's layer
        d+1 is the row range between its sizes before and after that
        expansion.  Dominance may kill a stored row only when its visited
        set contains the new label's; every stored row is from the new
        label's layer or an earlier one, so a killed row has the same
        visited set and is in layer d+1 too.  Layer d's alive flags are
        therefore final when the layer starts.
        """
        n = self.n
        stores = self.stores
        layer = [LabelC2(0, 0, 0.0, 0.0, (), None)]
        starts = [0] * len(stores)
        for _ in range(n):
            for label in layer:
                for j in range(1, n + 1):
                    if not label.mask & (1 << (j - 1)):
                        for child in self.extend(label, j):
                            self._insert(child)
            ends = [st.size for st in stores]
            layer = [st.labels[lo + idx]
                     for st, lo, hi in zip(stores, starts, ends)
                     for idx in np.flatnonzero(st.alive[lo:hi]).tolist()]
            starts = ends

    def solve(self) -> Optional[PathTiming]:
        """Search, then time the alive label whose completion through the
        exit arc has the highest curve value at ``T``: the first strict
        maximum in node order, then insertion order.  Labels that skipped
        the idle stop are not completed.  None when no route through the
        idle stop fits ``T``."""
        self._search()
        best, top = None, -math.inf
        for st in self.stores[1:]:
            for idx in np.flatnonzero(st.alive[:st.size]).tolist():
                label = st.labels[idx]
                if self.vb_bit and not label.mask & self.vb_bit:
                    continue
                value = curve(self._append(label, self.exit_id), self.T)
                if value > top:
                    best, top = label, value
        if best is None:
            return None
        nodes = reconstruct(best) + [self.exit_id]
        table, ids = self.coeffs.table, self.coeffs.table.arc_ids(nodes)
        timed = knapsack_times(self.net[ids], table.min_time[ids],
                               table.max_time[ids], self.T, self.keys[ids])
        if timed is None:
            return None
        times = timed[0].tolist()
        return PathTiming(self.vbar, tuple(nodes), tuple(times), timed[1],
                          tuple(ids), sum(times))


def _deadline_free(coeffs: RelaxCoeffs) -> bool:
    """True when the table's slowest-route certificate, with its allowance
    for compensated summation, is at most the deadline, so that no route
    of the screen's fill overruns it (see the module docstring)."""
    table = coeffs.table
    return (table.slowest_route * (1.0 + 4 * (table.n + 2) * 2.0 ** -52)
            <= coeffs.deadline)


def solve_case2(coeffs: RelaxCoeffs, ratio_mode: str = RATIO_SLOPE,
                use_dominance: bool = True) -> BestRoutes:
    """Best deadline-feasible route for each idle candidate of ``coeffs``
    (None where none fits the deadline), searching only where the module's
    screen does not settle it; the label counts cover the searches.

    A value is the route's exact optimal timing value (at most one arc
    strictly between its speed bounds); multiplier constants and the
    idle-gain term are the caller's to add.  A settled candidate keeps the
    fill's own answer.  Every route comes with its arc ids and its travel
    time recorded (:class:`PathTiming`), and that travel time is at most
    the deadline: the screen and :func:`knapsack_times` test that sum.
    Where the table's slowest-route certificate shows that no route can
    overrun the deadline, the fill's own answer is returned whole, with
    label counts 0 and no route chosen, traced or timed: as in case I, the
    routes are built when first asked for.  ``use_dominance=False``
    searches without dominance, the reference for the pruning.
    """
    _check_ratio_mode(ratio_mode)
    free = solve_case1(coeffs)
    if _deadline_free(coeffs):
        # the screen would settle every candidate, and no search runs
        free.labels_stored = free.labels_alive = 0
        return free
    results = {}
    stored = alive = 0
    for vbar, route in free.results.items():
        if route.total <= coeffs.deadline:
            results[vbar] = route
            continue
        solver = Case2Solver(coeffs, vbar, ratio_mode, use_dominance)
        results[vbar] = solver.solve()
        stored += sum(st.size for st in solver.stores)
        alive += sum(int(st.alive[:st.size].sum()) for st in solver.stores)
    return BestRoutes.from_results(results, stored, alive)
