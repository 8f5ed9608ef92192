"""Depth-layered labeling skeleton shared by both deadline regimes.

Both route searches are elementary-path labeling algorithms (Feillet et al.,
*Networks* 2004): a label is a partial path from the entry depot, stored at
its end node together with its visited-node set, and labels are expanded
breadth-first by the number of interior waypoints they have visited.  The
two regimes differ only in the label payload, in how a label is extended to
a new node and merged into that node's store (dominance), and in how a label
that reaches the exit is scored.  This module holds everything else: the
per-node stores, the layered expansion loop, the final scan for the best
completion, and path reconstruction.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


class Store:
    """Labels ending at one node plus numpy mirrors of their visited-set
    masks, values, times and alive flags, so dominance can pre-filter a whole
    store at once.

    A label must carry ``node``, ``mask``, ``value`` and ``parent``.
    ``alive`` is the only record of which rows dominance killed.  Under
    :func:`search` rows are appended layer by layer, so each layer of a store
    is one contiguous row range.
    """

    __slots__ = ("labels", "masks", "values", "times", "alive", "size")

    def __init__(self):
        self.labels: List = []
        cap = 64
        self.masks = np.zeros(cap, dtype=np.int64)
        self.values = np.zeros(cap)
        self.times = np.zeros(cap)
        self.alive = np.zeros(cap, dtype=bool)
        self.size = 0

    def append(self, label, time: float = 0.0) -> int:
        """Store ``label`` (realized at ``time``) and return its row."""
        if self.size == len(self.masks):
            self.masks = np.resize(self.masks, 2 * self.size)
            self.values = np.resize(self.values, 2 * self.size)
            self.times = np.resize(self.times, 2 * self.size)
            self.alive = np.resize(self.alive, 2 * self.size)
        k = self.size
        self.masks[k] = label.mask
        self.values[k] = label.value
        self.times[k] = time
        self.alive[k] = True
        self.labels.append(label)
        self.size = k + 1
        return k

    def kill(self, idx: int) -> None:
        self.alive[idx] = False


def reconstruct(label) -> List[int]:
    """Node sequence of a label, oldest first."""
    nodes: List[int] = []
    cur = label
    while cur is not None:
        nodes.append(cur.node)
        cur = cur.parent
    nodes.reverse()
    return nodes


def search(n: int, root, stores: Sequence[Store],
           step: Callable[[object, int], None]) -> None:
    """Expand ``root`` (the entry depot, layer 0), then every alive label of
    layer 1, 2, ..., n-1 in node order and, within a node, insertion order.
    Layer d holds the labels that visited d interior waypoints.

    ``step(label, j)`` is called once for every interior waypoint ``j`` the
    label has not visited; it builds the extensions and stores the ones that
    survive dominance.  Expanding layer d only appends layer-d+1 rows, so
    each store's layer d is the row range between its sizes at the starts of
    layers d-1 and d.  Dominance may kill a stored row only when its visited
    set contains the new label's; every stored row is from the new label's
    layer or an earlier one, so a killed row has the same visited set and is
    in layer d+1 too.  Layer d's alive flags are therefore final when the
    layer starts.
    """
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


def best_completion(stores: Sequence[Store], vb_bit: int,
                    complete: Callable[[object], Optional[Tuple]]) -> Optional[Tuple]:
    """Best finished route over the alive labels.

    Labels that have not visited the idle stop (``vb_bit``; 0 means no idle
    stop is required) are skipped.  ``complete(label)`` scores the label's
    closing leg to the exit and returns a tuple whose first entry is the
    route value, or None when the label cannot finish.  The first strict
    maximum in node order, then insertion order, wins; None means no label
    finished.
    """
    best = None
    for st in stores[1:]:
        for idx in np.flatnonzero(st.alive[:st.size]).tolist():
            label = st.labels[idx]
            if vb_bit and not label.mask & vb_bit:
                continue
            done = complete(label)
            if done is not None and (best is None or done[0] > best[0]):
                best = done
    return best


def counts(stores: Sequence[Store]) -> Tuple[int, int]:
    """Labels stored and labels still alive over all stores."""
    stored = sum(st.size for st in stores)
    alive = sum(int(st.alive[:st.size].sum()) for st in stores)
    return stored, alive
