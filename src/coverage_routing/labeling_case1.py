"""Maximum-value simple-path search when the deadline never binds (case I).

Every arc's travel time is pre-optimized (bound-valued), so a route is scored
by summing fixed arc values and the search is a label-correcting dynamic
program over (end node, visited set) states, breadth-first by visited-set
size.  Labels are pruned by a dominance rule that also compares labels whose
visited sets differ: a label that skipped the idle stop can still dominate
one that visited it, after charging the worst-case value of inserting the
idle stop just before the exit depot.

Dominance here only rejects new labels and never kills a stored one.  A
stored label at the new label's node is from its layer or an earlier one, so
its visited set is never a strict superset of the new label's, and a stored
label with the same visited set absorbs the new one (exact-state merge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .instance import ArcIndexTable
from .labeling import Store, best_completion, counts, reconstruct, search
from .relaxation import RelaxCoeffs

_NEG = -1e300

#: per-node store size up to which the cross-set subset-dominance scan runs;
#: above it only exact-state merging prunes.  The cap trades pruning effort
#: for insert cost on big instances and never changes the returned value.
SCAN_CAP = 4096


@dataclass(slots=True)
class LabelC1:
    """Partial path from the entry depot to ``node``.

    ``mask`` has bit ``k-1`` set when interior waypoint ``k`` was visited.
    The entry depot is the root label (node 0, empty mask) that every path
    starts from.
    """

    node: int
    mask: int
    value: float
    parent: Optional["LabelC1"]


def path_value(label: LabelC1, values: np.ndarray) -> float:
    """Re-sum a label's value from its reconstructed path (cross-check)."""
    nodes = reconstruct(label)
    return float(sum(values[i, j] for i, j in zip(nodes[:-1], nodes[1:])))


def dominates_case1(l1: LabelC1, l2: LabelC1, vbar: int,
                    c_extra: Optional[float]) -> bool:
    """True when ``l1`` makes ``l2`` redundant.

    Requires the same end node and ``visited(l1) subseteq visited(l2)``.
    When both or neither visited the idle stop, plain value comparison
    decides.  When only ``l2`` visited it, ``l1`` must still win after paying
    ``c_extra``: the worst-case value of rerouting any completion of ``l2``
    through the idle stop just before the exit.  The minimum must range over
    every node that can immediately precede the exit in a completion of
    ``l2``, which is its current end node plus all nodes it has not visited;
    dropping the end node from that set over-prunes (it loses completions
    that exit directly).  ``c_extra=None`` declines the comparison.
    """
    if l1.node != l2.node:
        return False
    if l1.mask & ~l2.mask:
        return False
    vb_bit = 0 if vbar == 0 else 1 << (vbar - 1)
    in1 = bool(l1.mask & vb_bit)
    in2 = bool(l2.mask & vb_bit)
    if in1 == in2:
        return l1.value >= l2.value
    # subset relation rules out in1 and not in2
    if c_extra is None:
        return False
    return l1.value + c_extra >= l2.value


@dataclass
class Case1Result:
    value: float
    nodes: Tuple[int, ...]
    label: LabelC1
    labels_stored: int
    labels_alive: int


def solve_case1(coeffs: RelaxCoeffs, vbar: int, table: ArcIndexTable,
                use_dominance: bool = True) -> Case1Result:
    """Best simple route for one idle candidate.

    Returns the maximum sum of arc values over routes from the entry to the
    exit depot; for ``vbar != 0`` only routes visiting ``vbar`` qualify.  The
    returned value excludes the multiplier constant and the idle-gain term,
    which the caller adds.
    """
    n = table.n
    if not (vbar == 0 or 1 <= vbar <= n):
        raise ValueError(f"idle candidate {vbar} is not a waypoint id")
    exit_id = table.exit_id
    values = table.matrix(coeffs.arc_values(vbar), fill=_NEG)
    vb_bit = 0 if vbar == 0 else 1 << (vbar - 1)

    # worst-case value of inserting vbar between i and the exit
    ext_cost = np.full(n + 1, np.inf)
    if vbar != 0:
        for i in range(1, n + 1):
            if i != vbar:
                ext_cost[i] = (values[i, vbar] + values[vbar, exit_id]
                               - values[i, exit_id])
    c_extra_cache: Dict[Tuple[int, int], Optional[float]] = {}

    def c_extra(mask: int, end: int) -> Optional[float]:
        """Worst-case value of inserting vbar before the exit, over every
        node that can precede the exit: the end node itself (direct exit) or
        any yet-unvisited node."""
        key = (mask, end)
        got = c_extra_cache.get(key)
        if got is not None or key in c_extra_cache:
            return got
        best = float(ext_cost[end]) if end != vbar else None
        for i in range(1, n + 1):
            if not (mask >> (i - 1)) & 1 and i != vbar:
                e = float(ext_cost[i])
                if best is None or e < best:
                    best = e
        c_extra_cache[key] = best
        return best

    stores = [Store() for _ in range(n + 1)]  # index by node 1..n
    # per node: visited set -> store row, for exact-state merges
    by_mask: List[Dict[int, int]] = [{} for _ in range(n + 1)]
    rows = values.tolist()

    def step(parent: LabelC1, node: int) -> None:
        """Extend ``parent`` to ``node`` and store the result unless a
        stored label dominates it."""
        mask = parent.mask | (1 << (node - 1))
        value = parent.value + rows[parent.node][node]
        st = stores[node]
        if use_dominance:
            # exact-state merge: same end node and same visited set means the
            # higher value wins outright (no children exist yet, since equal
            # cardinality states only collide within one extension layer)
            row = by_mask[node].get(mask)
            if row is not None:
                old = st.labels[row]
                if value > old.value:
                    old.value = value
                    old.parent = parent
                    st.values[row] = value
                return
        if use_dominance and st.size and st.size <= SCAN_CAP:
            k = st.size
            m = st.masks[:k]
            v = st.values[:k]
            new_in = bool(mask & vb_bit)
            # stored labels whose visited set is a subset of the new one's
            subset = (m & ~mask) == 0
            if subset.any():
                vals = v[subset]
                if new_in:
                    # clause 1 where the existing label also visited vbar,
                    # clause 2 (pay the detour cost) where it did not
                    e_in = (m[subset] & vb_bit) != 0
                    ce = c_extra(mask, node)
                    if ce is None:
                        win = e_in & (vals >= value)
                    else:
                        win = np.where(e_in, vals >= value, vals + ce >= value)
                else:
                    # subset relation forces equal vbar membership here
                    win = vals >= value
                if win.any():
                    return
        by_mask[node][mask] = st.append(LabelC1(node, mask, value, parent))

    search(n, LabelC1(0, 0, 0.0, None), stores, step)

    to_exit = values[:, exit_id].tolist()
    best_total, best_label = best_completion(
        stores, vb_bit, lambda label: (label.value + to_exit[label.node], label))
    stored, alive = counts(stores)
    nodes = tuple(reconstruct(best_label) + [exit_id])
    return Case1Result(best_total, nodes, best_label, stored, alive)
