"""Maximal-coverage surveillance routing under an operational deadline.

A vehicle flies a simple route between two depots, accrues surveillance on
nearby targets (inverse-square rate inside a coverage disk, integrated in
closed form along each arc), may idle at one waypoint, and must finish by a
deadline.  Dualizing the per-target coverage requirements gives a bound
problem solved exactly by labeling dynamic programs inside a level bundle
loop; exhaustive oracles certify every layer at desk scale.
"""

from .bundle import (CutPool, DualResult, MasterResult, TraceRow,
                     evaluate_dual_function, run_dual, solve_master)
from .errors import (BudgetExceededError, CoverageRoutingError, CyclingError,
                     DegenerateSegmentError, InfeasibleInstanceError,
                     SchemaError, TargetTooCloseError)
from .geometry import Point2, dist, distances, point_rates, segment_disk_batch
from .instance import (ArcIndexTable, Instance, PathSolution, Physics, Target,
                       ValidateOptions, ValidationReport, Vehicle, Waypoint,
                       arc_energy, build_index_table, generate_instance,
                       instance_to_json, load_instance, load_solution,
                       save_instance, save_solution, validate_solution)
from .labeling_case1 import solve_case1
from .labeling_case2 import (Case2Solver, LabelC2, curve, dominates_case2,
                             knapsack_times, solve_case2)
from .oracle import (OraclePrimalResult, OracleRelaxResult, iter_paths,
                     oracle_primal, oracle_relaxation)
from .relaxation import (BestRoutes, PathTiming, RelaxCoeffs, RelaxValue,
                         assemble_f_value, build_coeffs, make_cut)
from .simplex import LpResult, dense_lp_solve

__version__ = "0.1.0"
