"""Tightening the coverage bound with the level bundle loop.

Each relaxation solve yields an affine cut; the next multiplier iterate is
the projection of the current one onto the level set of the cut model.  The
level column is the phi point between LB and UB, or, after a row whose value
came within half the stopping gap of its level, the lower jumped level LB
plus that half gap.  The upper bound is a certified bound on the best achievable weighted coverage,
which the exhaustive primal solver confirms at desk scale.
"""

import numpy as np

from coverage_routing import (build_index_table, generate_instance,
                              oracle_primal, run_dual, validate_solution)
from coverage_routing.errors import InfeasibleInstanceError

# a desk-sized field whose coverage requirements bind but stay attainable
inst = generate_instance(seed=11, n_waypoints=5, n_targets=6, case="II",
                         deadline_scale=0.25, coverage_radius=30.0,
                         min_coverage=1.0)
table = build_index_table(inst)
print(f"{inst.n} waypoints, {len(inst.targets)} targets, "
      f"deadline {inst.deadline:.1f}\n")

res = run_dual(inst, "II", phi=0.5, tol=1e-4, table=table)

print(" it   f(multipliers)          LB            UB        level   master")
for row in res.trace:
    f_txt = f"{row.f_value:12.4f}" if row.f_value is not None else "      --    "
    lev = f"{row.f_lev:10.3f}" if row.f_lev is not None else "     --   "
    print(f"{row.iteration:3d}  {f_txt}  {row.lb:12.4f}  {row.ub:12.4f}  "
          f"{lev}  {row.master_status}")

print(f"\nstatus {res.status} after {res.iterations} iterations")
print(f"initial bound f(0):     {res.initial_bound:.4f}")
print(f"final dual bound:       {res.dual_bound:.4f}  "
      f"({100 * (res.initial_bound - res.dual_bound) / res.initial_bound:.1f}%"
      f" tighter)")

try:
    prim = oracle_primal(inst, table)
    print(f"exhaustive primal:      {prim.value:.4f}")
    print(f"bound gap:              {res.dual_bound - prim.value:.4f} "
          f"(weak duality holds: {res.dual_bound >= prim.value - 1e-6})")
except InfeasibleInstanceError:
    print("exhaustive primal: coverage requirements unreachable on this draw")

wit = res.solution
print(f"\nwitness route {wit.nodes}, idle {wit.idle_time:.2f} at "
      f"{wit.idle_node}, objective {wit.objective:.4f}")
print("validator verdict:", validate_solution(inst, wit, table=table).ok)
