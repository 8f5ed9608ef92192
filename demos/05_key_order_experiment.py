"""Which key should order the tradeoff arcs: value per unit time, or value
per unit distance?

The time budget prices a unit of extra travel time identically on every arc,
so the greedy fill that matches the LP optimum ranks arcs by their value
RATE (per unit time).  Ranking by value per unit distance is kept behind a
flag for comparison; this script measures how often the two disagree and
shows the detection machinery that reports any shortfall against the
exhaustive oracle.
"""

import random

import numpy as np

from coverage_routing import (build_index_table, dense_lp_solve,
                              generate_instance, knapsack_times,
                              oracle_relaxation)
from coverage_routing.bundle import evaluate_dual_function

rng = random.Random(99)

# --- raw timing problems -----------------------------------------------------
diverge = slope_exact = 0
trials = 300
for _ in range(trials):
    k = rng.randint(2, 7)
    net = np.array([rng.uniform(-2, 4) for _ in range(k)])
    d = np.array([rng.uniform(1, 50) for _ in range(k)])
    t_lo, t_hi = d / 10.0, d / 1.0
    T = float(t_lo.sum()) + rng.uniform(0, float((t_hi - t_lo).sum()))
    by_slope = knapsack_times(net, t_lo, t_hi, T)
    by_dist = knapsack_times(net, t_lo, t_hi, T, keys=net / d)
    lp = dense_lp_solve(net, [np.ones(k)], [T], bounds=list(zip(t_lo, t_hi)))
    if abs(by_slope[1] - lp.objective) <= 1e-8:
        slope_exact += 1
    if by_slope[1] - by_dist[1] > 1e-9:
        diverge += 1
print(f"raw timing problems: slope key matches the LP optimum "
      f"{slope_exact}/{trials}; per-distance key falls short on "
      f"{diverge}/{trials}")

# --- whole relaxation solves ---------------------------------------------------
mismatch = checked = 0
worst = 0.0
for seed in range(25):
    inst = generate_instance(seed, n_waypoints=4, n_targets=6, case="II",
                             deadline_scale=0.2, coverage_radius=25.0)
    if not inst.targets:
        continue
    table = build_index_table(inst)
    lam = np.zeros(len(table.target_ids))
    value, _ = evaluate_dual_function(table, lam, "II",
                                      ratio_mode="per-distance")
    orc = oracle_relaxation(table, inst, lam, "II")
    checked += 1
    gap = orc.value - value.value
    if gap > 1e-8 * max(1.0, abs(orc.value)):
        mismatch += 1
        worst = max(worst, gap)
        print(f"  seed {seed}: per-distance {value.value:.6f} vs "
              f"oracle {orc.value:.6f}  SHORTFALL {gap:.3e}")
print(f"\nfull relaxation solves under the per-distance key: "
      f"{mismatch}/{checked} fall short of the oracle (worst {worst:.3e})")
print("isolated timing problems show the orderings genuinely differ; on "
      "whole instances the best route usually has slack enough that the "
      "difference washes out, and any shortfall is caught by the oracle "
      "comparison rather than silently accepted")
