"""Per-layer tracing from outside the package.

While a :class:`Tracer` is active, the package's functions are replaced by
wrappers at the names their callers look them up by: ``bundle`` imports the
labeling solvers, the relaxation helpers and the simplex by name,
``labeling_case2`` calls its dominance test and knapsack timing as module
globals, and ``instance`` calls the geometry indices through the module.
Each timed wrapper records a span; a span's self time is its duration minus
the time its child spans cover.  Label counts, pivots and master flags are
read from the public result objects.  Leaving the ``with`` block restores
every original.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from coverage_routing import (bundle, geometry, instance, labeling_case2)


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0
    errors: int = 0


class Tracer:
    def __init__(self):
        self.spans: Dict[str, Span] = {}
        self.counts: Counter = Counter()
        self.master_active: List[int] = []
        self._stack: List[float] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn: Callable,
               after: Optional[Callable] = None) -> Callable:
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                span.calls += 1
                span.total += dt
                span.self_s += dt - child
                span.max_s = max(span.max_s, dt)
            if after is not None:
                after(res)
            return res
        return wrapper

    def _counted(self, fn: Callable, after: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            after(res)
            return res
        return wrapper

    # -- result readers -------------------------------------------------------

    def _case1(self, res) -> None:
        self.counts["labeling_case1.labels_stored"] += res.labels_stored
        self.counts["labeling_case1.labels_alive"] += res.labels_alive

    def _case2(self, res) -> None:
        if res is None:
            self.counts["labeling_case2.empty_searches"] += 1
            return
        self.counts["labeling_case2.labels_stored"] += res.labels_stored
        self.counts["labeling_case2.labels_alive"] += res.labels_alive

    def _extend(self, children) -> None:
        self.counts["labeling_case2.labels_generated"] += len(children)

    def _dominates(self, hit: bool) -> None:
        self.counts["labeling_case2.dominance_checks"] += 1
        self.counts["labeling_case2.dominance_hits"] += bool(hit)

    def _master(self, res) -> None:
        self.master_active.append(len(res.active))
        self.counts["bundle.master_inexact"] += not res.exact

    def _lp(self, res) -> None:
        self.counts["simplex.pivots"] += res.pivots

    def _run(self, res) -> None:
        self.counts["bundle.iterations"] += res.iterations
        self.counts["bundle.empty_level_sets"] += sum(
            row.master_status == bundle.MASTER_INFEASIBLE for row in res.trace)

    # -- install / restore ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        patches = [
            (geometry, "arc_coverage_index", self._timed("geometry.index", geometry.arc_coverage_index)),
            (geometry, "arc_risk_index", self._timed("geometry.index", geometry.arc_risk_index)),
            (instance, "load_instance", self._timed("instance.load", instance.load_instance)),
            (instance, "build_index_table", self._timed("instance.table", instance.build_index_table)),
            (instance.ArcIndexTable, "matrix", self._timed("instance.matrix", instance.ArcIndexTable.matrix)),
            (bundle, "build_coeffs", self._timed("relaxation.coeffs", bundle.build_coeffs)),
            (bundle, "make_cut", self._timed("relaxation.cut", bundle.make_cut)),
            (bundle, "solve_case1", self._timed("labeling_case1.search", bundle.solve_case1, self._case1)),
            (bundle, "solve_case2", self._timed("labeling_case2.search", bundle.solve_case2, self._case2)),
            (labeling_case2.Case2Solver, "extend", self._counted(labeling_case2.Case2Solver.extend, self._extend)),
            (labeling_case2, "dominates_case2", self._counted(labeling_case2.dominates_case2, self._dominates)),
            (labeling_case2, "knapsack_times", self._timed("labeling_case2.knapsack", labeling_case2.knapsack_times)),
            (bundle, "evaluate_dual_function", self._timed("bundle.eval", bundle.evaluate_dual_function)),
            (bundle, "solve_master", self._timed("bundle.master", bundle.solve_master, self._master)),
            (bundle, "dense_lp_solve", self._timed("simplex.lp", bundle.dense_lp_solve, self._lp)),
            (bundle, "_greedy_primal_repair", self._timed("bundle.repair", bundle._greedy_primal_repair)),
            (bundle, "run_dual", self._timed("bundle.run_dual", bundle.run_dual, self._run)),
        ]
        for owner, attr, wrapper in patches:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- report ---------------------------------------------------------------

    def metrics(self, solve_s: float, untraced_solve_s: float) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics of everything traced, as name -> (value, unit).

        Every ``_s`` time is self time in wall seconds, except
        ``search_s.max``, which is the longest single search.  A labeling
        ``share`` is the module's self time (searches plus, for case II,
        knapsack timing) over the traced ``run_dual`` wall time.
        ``solve_s`` and ``untraced_solve_s`` are the batch's calibrated
        solve times with tracing on and off."""
        sp = lambda name: self.spans.get(name, Span())  # noqa: E731
        c = self.counts
        wall = sp("bundle.run_dual").total
        out: Dict[str, Tuple[float, str]] = {}

        def put(name: str, value: float, unit: str) -> None:
            out[name] = (value, unit)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        put("geometry.index_calls", sp("geometry.index").calls, "count")
        put("geometry.index_s", sp("geometry.index").self_s, "s")
        put("instance.load_s", sp("instance.load").self_s, "s")
        put("instance.table_s", sp("instance.table").self_s, "s")
        put("instance.matrix_calls", sp("instance.matrix").calls, "count")
        put("instance.matrix_s", sp("instance.matrix").self_s, "s")
        put("relaxation.coeffs_s", sp("relaxation.coeffs").self_s, "s")
        put("relaxation.cut_s", sp("relaxation.cut").self_s, "s")
        for case in ("labeling_case1", "labeling_case2"):
            search = sp(f"{case}.search")
            stored = c[f"{case}.labels_stored"]
            alive = c[f"{case}.labels_alive"]
            put(f"{case}.searches", search.calls, "count")
            put(f"{case}.search_s", search.self_s, "s")
            put(f"{case}.search_s.max", search.max_s, "s")
            put(f"{case}.labels_stored", stored, "count")
            put(f"{case}.labels_alive", alive, "count")
            put(f"{case}.alive_ratio", ratio(alive, stored), "ratio")
            own = search.self_s + sp(f"{case}.knapsack").self_s
            put(f"{case}.share", ratio(own, wall), "ratio")
        for key in ("labels_generated", "empty_searches", "dominance_checks",
                    "dominance_hits"):
            put(f"labeling_case2.{key}", c[f"labeling_case2.{key}"], "count")
        put("labeling_case2.knapsack_calls", sp("labeling_case2.knapsack").calls, "count")
        put("labeling_case2.knapsack_s", sp("labeling_case2.knapsack").self_s, "s")
        master = sp("bundle.master")
        put("bundle.iterations", c["bundle.iterations"], "count")
        put("bundle.dual_evals", sp("bundle.eval").calls, "count")
        put("bundle.empty_level_sets", c["bundle.empty_level_sets"], "count")
        put("bundle.eval_s", sp("bundle.eval").self_s, "s")
        put("bundle.master_calls", master.calls, "count")
        put("bundle.master_s", master.self_s, "s")
        put("bundle.master_active",
            ratio(sum(self.master_active), len(self.master_active)), "rows")
        put("bundle.master_inexact", c["bundle.master_inexact"], "count")
        put("bundle.repair_s", sp("bundle.repair").self_s, "s")
        put("bundle.master_lp_share",
            ratio(master.self_s + sp("simplex.lp").total, wall), "ratio")
        put("simplex.lp_calls", sp("simplex.lp").calls, "count")
        put("simplex.lp_s", sp("simplex.lp").self_s, "s")
        put("simplex.pivots", c["simplex.pivots"], "count")
        put("simplex.lp_errors", sp("simplex.lp").errors, "count")
        put("trace.solve_s", solve_s, "s")
        put("trace.overhead_s", solve_s - untraced_solve_s, "s")
        return out
