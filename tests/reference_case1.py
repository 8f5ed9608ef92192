"""Per-candidate reference for the case-I completion scan: the loop that
finds, back-traces and times each idle candidate's best route in turn, which
``coverage_routing.labeling_case1`` replaced with one array pass and routes
timed on demand.  It runs on the package's own table fill, chunked by the
same byte budget.  Tests compare the package against it for exact
equality."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from coverage_routing import labeling_case1
from coverage_routing.relaxation import PathTiming, RelaxCoeffs


def arc_values(coeffs: RelaxCoeffs, vbar) -> np.ndarray:
    """Each arc's value at its bound time, for one idle candidate or a
    sequence of them."""
    net = coeffs.net_rates(vbar)
    return net * coeffs.bound_times(net)


def best_routes(n: int, exit_id: int, dp: np.ndarray, par: np.ndarray,
                vexit: np.ndarray, vbars: Sequence[int]
                ) -> List[Tuple[float, Tuple[int, ...]]]:
    """Best completion (value, route) through the exit arc per candidate;
    ``vexit[k, j-1]`` is candidate ``k``'s value of arc ``j -> exit``.
    The completed values overwrite ``dp``; only ``par`` is read after."""
    dp[:, :, 1:] += vexit
    out = []
    for k, vbar in enumerate(vbars):
        if vbar:  # masks without the idle stop do not qualify
            dp.reshape(-1, 2, 1 << (vbar - 1), *dp.shape[1:])[
                :, 0, :, k, 1:] = -np.inf
        total = dp[:, k, 1:]
        tops = total.max(axis=0)
        best = tops.max()
        node = int(np.argmax(tops == best)) + 1
        mask = min(np.flatnonzero(total[:, node - 1] == best).tolist(),
                   key=lambda m: (bin(m).count("1"),
                                  [b for b in range(n) if m >> b & 1]))
        route = [exit_id]
        while node:
            route.append(node)
            mask, node = mask ^ (1 << (node - 1)), int(par[mask, k, node])
        route.append(0)
        out.append((float(best), tuple(reversed(route))))
    return out


def solve_case1(coeffs: RelaxCoeffs) -> Dict[int, PathTiming]:
    """Every idle candidate's best route, each traced and timed eagerly."""
    table = coeffs.table
    n = table.n
    vbars = coeffs.idle_set
    values = table.matrix(arc_values(coeffs, vbars), fill=labeling_case1._NEG)
    vin = values[:, :n + 1].transpose(2, 0, 1)
    vexit = values[:, 1:n + 1, table.exit_id]
    step = max(1, labeling_case1.TABLE_CHUNK_BYTES
               // ((1 << n) * (n + 1) * 9))
    routes: List[Tuple[float, Tuple[int, ...]]] = []
    for k in range(0, len(vbars), step):
        routes += best_routes(
            n, table.exit_id,
            *labeling_case1._fill(n, np.ascontiguousarray(vin[:, k:k + step])),
            vexit[k:k + step], vbars[k:k + step])
    times = coeffs.bound_times(coeffs.net_rates(vbars))
    return {
        vbar: PathTiming(vbar, nodes,
                         tuple(map(float, t[table.arc_ids(nodes)])), value)
        for vbar, t, (value, nodes) in zip(vbars, times, routes)}
