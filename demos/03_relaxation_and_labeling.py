"""One evaluation of the relaxed problem, both deadline regimes.

Dualizing the per-target coverage requirements at multipliers <= 0 leaves a
best-route problem per idle candidate.  With a slack deadline every arc's
travel time is bound-valued up front (case I) and one table fill solves all
candidates.  Under a deadline (case II) one call solves them too: the same
fill, without the deadline, settles every candidate whose best route fits
it, and only where the deadline binds is the timing a continuous knapsack
threaded through a search for that candidate.  Both cases are checked
against exhaustive enumeration.
"""

import numpy as np

from coverage_routing import (Case2Solver, build_coeffs, build_index_table,
                              evaluate_dual_function, generate_instance,
                              oracle_relaxation, solve_case1, solve_case2)

inst_free = generate_instance(seed=12, n_waypoints=5, n_targets=7, case="I",
                              coverage_radius=25.0)
table = build_index_table(inst_free)
m = len(table.target_ids)
lam = np.array([-0.5 * (k + 1) for k in range(m)])

# --- case I: deadline never binds ---------------------------------------------
coeffs = build_coeffs(table, lam, "I")
print(f"multipliers: {np.round(lam, 2)}")
print(f"idle candidates (positive weighted idle coverage): {coeffs.idle_set}")
# one table fill serves every idle candidate along a candidate axis
fill = solve_case1(coeffs)
print(f"one fill: {fill.labels_stored} (visited set, end node) states over "
      f"{len(coeffs.idle_set)} candidates")
best = None
for vbar, res in fill.results.items():
    gain = inst_free.deadline * coeffs.idle_gain[vbar] if vbar else 0.0
    total = coeffs.constant + gain + res.value
    tag = f"idle at {vbar}" if vbar else "no idling"
    print(f"  {tag:<12} route {res.nodes}  value {total:.3f}")
    if best is None or total > best[0]:
        best = (total, vbar, res.nodes)
print(f"case-I relaxation value: {best[0]:.6f} via idle candidate {best[1]}")

orc = oracle_relaxation(table, inst_free, lam, "I")
print(f"exhaustive enumeration:  {orc.value:.6f} "
      f"(agree: {abs(orc.value - best[0]) < 1e-8})")

# --- case II: the deadline binds for some candidates -------------------------
inst_tight = generate_instance(seed=12, n_waypoints=5, n_targets=7, case="II",
                               deadline_scale=0.1, coverage_radius=25.0)
table2 = build_index_table(inst_tight)
coeffs2 = build_coeffs(table2, lam, "II")
T = inst_tight.deadline
print(f"\ndeadline T = {T:.1f}")
# one call answers every candidate; it searches only where the deadline-free
# best route (the case-I fill, without the deadline) overruns the deadline
routes = solve_case2(coeffs2)
free = solve_case1(coeffs2).results
print(f"searches stored {routes.labels_stored} labels, "
      f"{routes.labels_alive} left alive")
best2 = None
for vbar, res in routes.results.items():
    free_time = free[vbar].total
    # the search runs here for every candidate, to show that it agrees with
    # the screen
    search = Case2Solver(coeffs2, vbar).solve()
    if res is None:
        print(f"  idle candidate {vbar}: no route fits the deadline "
              f"(search agrees: {search is None})")
        continue
    gain = T * coeffs2.idle_gain[vbar] if vbar else 0.0
    total = coeffs2.constant + gain + res.value
    ids = list(res.arcs)
    lo, hi = table2.min_time[ids], table2.max_time[ids]
    t = np.asarray(res.times)
    interior = int(np.sum((t > lo + 1e-9) & (t < hi - 1e-9)))
    how = (f"deadline-free route fits ({free_time:.1f}), settled"
           if free_time <= T else f"deadline binds ({free_time:.1f}), searched")
    agrees = search is not None and abs(search.value - res.value) < 1e-8
    print(f"  idle candidate {vbar}: route {res.nodes} value {total:.3f} "
          f"({interior} arc between its speed bounds; {how}; "
          f"search agrees: {agrees})")
    if best2 is None or total > best2[0]:
        best2 = (total, vbar)
value2 = evaluate_dual_function(table2, lam, "II")
orc2 = oracle_relaxation(table2, inst_tight, lam, "II")
print(f"case-II relaxation value: {best2[0]:.6f} "
      f"(evaluate_dual_function {value2.value:.6f})")
agree2 = max(abs(orc2.value - best2[0]), abs(orc2.value - value2.value)) < 1e-8
print(f"exhaustive enumeration:   {orc2.value:.6f} (agree: {agree2})")
