"""Maximum-value simple-path search when the deadline never binds (case I).

Every arc's travel time is pre-optimized (bound-valued), so a route is scored
by summing fixed arc values and the search is a Held-Karp style dynamic
program over (end node, visited set) states, breadth-first by visited-set
size.  Two labels in the same state have the same completions, so only the
better one is kept (exact-state merge); no other label is pruned.

The merge is exact in floating point too.  Every completion adds the same
arc values, in the same order, to both merged labels, and rounded addition
is monotone (``a <= b`` implies ``fl(a + c) <= fl(b + c)``), so the kept
label's completions are never worse than the dropped one's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .instance import ArcIndexTable
from .labeling import Store, best_completion, counts, reconstruct, search
from .relaxation import RelaxCoeffs

_NEG = -1e300


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

    stores = [Store() for _ in range(n + 1)]  # index by node 1..n
    # per node: visited set -> store row, for exact-state merges
    by_mask: List[Dict[int, int]] = [{} for _ in range(n + 1)]
    rows = values.tolist()

    def step(parent: LabelC1, node: int) -> None:
        """Extend ``parent`` to ``node`` and store the result unless the
        stored label in the same state is at least as good."""
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
        by_mask[node][mask] = st.append(LabelC1(node, mask, value, parent))

    search(n, LabelC1(0, 0, 0.0, None), stores, step)

    to_exit = values[:, exit_id].tolist()
    best_total, best_label = best_completion(
        stores, vb_bit, lambda label: (label.value + to_exit[label.node], label))
    stored, alive = counts(stores)
    nodes = tuple(reconstruct(best_label) + [exit_id])
    return Case1Result(best_total, nodes, best_label, stored, alive)
