"""Command-line front end: instance generation, dual-bound solving, and
solution verification.

Result records are deterministic for fixed seeds and flags; anything
wall-clock dependent (timestamps, solve times, per-iteration timings) is
segregated into a sidecar metadata file and stderr so result files can be
byte-compared across runs.

Exit codes: 0 converged/passed, 1 verification failed, 2 limit hit with a
valid bound, 3 infeasible instance, 4 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import bundle, oracle
from .errors import (BudgetExceededError, CoverageRoutingError,
                     InfeasibleInstanceError, SchemaError)
from .instance import (ValidateOptions, build_index_table, generate_instance,
                       instance_to_json, load_instance, load_solution,
                       save_solution, validate_solution)
from .labeling_case2 import RATIO_PER_DISTANCE, RATIO_SLOPE

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_LIMIT = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code clashes with ours
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _checked(cast, ok, must: str):
    """An argparse ``type=`` that casts the text with ``cast`` and refuses a
    value failing ``ok`` with "must <must>, got <text>".  It carries the
    cast's name, so an uncastable text reads "invalid float value"."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {must}, got {text}")
        return value
    parse.__name__ = cast.__name__
    return parse


#: --phi strictly inside (0, 1); --tol and --time-limit positive (an
#: infinite time limit passes, NaN does not); --iter-limit at least 1
_phi = _checked(float, lambda v: 0.0 < v < 1.0, "lie strictly inside (0, 1)")
_positive = _checked(float, lambda v: v > 0.0, "be positive")
_iter_limit = _checked(int, lambda v: v >= 1, "be at least 1")


def _build_parser() -> _Parser:
    p = _Parser(prog="covroute",
                description="Maximal-coverage surveillance routing under an "
                            "operational deadline")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance",
                       description="Generate a random instance file.")
    g.add_argument("--preset", choices=["small", "medium", "large"])
    g.add_argument("--waypoints", type=int)
    g.add_argument("--targets", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--case", choices=["I", "II"], default="I")
    g.add_argument("--deadline-scale", type=float, default=None)
    g.add_argument("--coverage-radius", type=float, default=None)
    g.add_argument("--min-coverage", type=float, default=1.0)
    g.add_argument("--out", type=Path, default=None,
                   help="instance file (default: stdout)")

    s = sub.add_parser("solve", help="compute dual bounds for an instance",
                       description="Run the level bundle dual loop on an "
                                   "instance file.")
    s.add_argument("instance", type=Path)
    s.add_argument("--case", choices=["I", "II"], default=None,
                   help="default: the instance's generated case, else I")
    s.add_argument("--phi", type=_phi, default=0.5)
    s.add_argument("--tol", type=_positive, default=1e-4)
    s.add_argument("--time-limit", type=_positive, default=None)
    s.add_argument("--iter-limit", type=_iter_limit, default=1000)
    s.add_argument("--ratio-mode", choices=[RATIO_SLOPE, RATIO_PER_DISTANCE],
                   default=RATIO_SLOPE)
    s.add_argument("--oracle", action="store_true",
                   help="append exhaustive-oracle values (desk instances)")
    s.add_argument("--out", type=Path, default=None,
                   help="result record file (default: stdout only)")
    s.add_argument("--trace", type=Path, default=None,
                   help="per-iteration trace file (JSON lines)")
    s.add_argument("--solution", type=Path, default=None,
                   help="witness route file (default: <out>.sol.json)")

    v = sub.add_parser("verify", help="validate a route against an instance",
                       description="Check a solution file against the model "
                                   "constraints.")
    v.add_argument("instance", type=Path)
    v.add_argument("solution", type=Path)
    v.add_argument("--enforce-coverage", action="store_true")
    v.add_argument("--check-time-windows", action="store_true")
    v.add_argument("--check-energy", action="store_true")
    v.add_argument("--out", type=Path, default=None)
    return p


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_gen(args) -> int:
    inst = generate_instance(
        args.seed, args.waypoints, args.targets, preset=args.preset,
        case=args.case, deadline_scale=args.deadline_scale,
        coverage_radius=args.coverage_radius, min_coverage=args.min_coverage)
    for tid, reason in inst.removed_targets:
        print(f"removed target {tid}: {reason}", file=sys.stderr)
    text = instance_to_json(inst)
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
        print(f"wrote {args.out} ({len(inst.targets)} targets, "
              f"{inst.n} waypoints)", file=sys.stderr)
    return EXIT_OK


def _oracle_block(inst, table, case, res) -> dict:
    block: dict = {}
    try:
        relax0 = oracle.oracle_relaxation(table, inst,
                                          np.zeros(len(table.target_ids)), case)
        match = abs(relax0.value - res.initial_bound) <= 1e-8 * max(
            1.0, abs(relax0.value))
        block["relaxation_at_zero"] = {
            "oracle": relax0.value,
            "solver": res.initial_bound,
            "match": bool(match),
        }
    except BudgetExceededError as exc:
        block["relaxation_at_zero"] = {"error": str(exc)}
    try:
        prim = oracle.oracle_primal(inst, table)
        block["primal"] = prim.value
        block["bound_gap"] = res.dual_bound - prim.value
        block["weak_duality_ok"] = bool(res.dual_bound >= prim.value - 1e-6)
    except BudgetExceededError as exc:
        block["primal_error"] = str(exc)
    except InfeasibleInstanceError:
        block["primal_error"] = "coverage requirements unreachable"
    return block


def _cmd_solve(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()
    inst = load_instance(args.instance)
    case = args.case or str(inst.meta_dict().get("case") or "I")
    if case not in ("I", "II"):
        raise SchemaError(f"meta.case must be 'I' or 'II', got {case!r}")
    table = build_index_table(inst)
    try:
        res = bundle.run_dual(
            inst, case, phi=args.phi, tol=args.tol,
            iter_limit=args.iter_limit, time_limit=args.time_limit,
            ratio_mode=args.ratio_mode,
            table=table)
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    wall = time.monotonic() - t0

    record = {
        "command": "solve",
        "instance": str(args.instance),
        "case": case,
        "phi": args.phi,
        "tol": args.tol,
        "ratio_mode": args.ratio_mode,
        "status": res.status,
        "initial_bound": res.initial_bound,
        "dual_bound": res.dual_bound,
        "lower_bound": res.lower_bound,
        "iterations": res.iterations,
        "witness": res.solution.to_dict(),
    }
    if args.oracle:
        record["oracle"] = _oracle_block(inst, table, case, res)

    sys.stdout.write(_dump(record))
    print(f"solved in {wall:.3f}s ({res.iterations} iterations)",
          file=sys.stderr)
    if args.out is not None:
        args.out.write_text(_dump(record))
        meta = {
            "started": started,
            "wall_time_s": wall,
            "per_iteration_wall": [row.wall_time for row in res.trace],
        }
        args.out.with_suffix(args.out.suffix + ".meta.json").write_text(
            _dump(meta))
    sol_path = args.solution
    if sol_path is None and args.out is not None:
        sol_path = args.out.with_suffix(args.out.suffix + ".sol.json")
    if sol_path is not None:
        save_solution(res.solution, sol_path)
    if args.trace is not None:
        # wall-clock column makes the trace run-dependent by nature; the
        # byte-stable artifact is the result record, not this file
        rows = [json.dumps(row.to_dict(), sort_keys=True)
                for row in res.trace]
        args.trace.write_text("\n".join(rows) + "\n")
    return EXIT_OK if res.status == bundle.CONVERGED else EXIT_LIMIT


def _cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    sol = load_solution(args.solution)
    opts = ValidateOptions(
        enforce_coverage=args.enforce_coverage,
        check_time_windows=args.check_time_windows,
        check_energy=args.check_energy)
    report = validate_solution(inst, sol, opts)
    text = _dump(report.to_dict())
    sys.stdout.write(text)
    if args.out is not None:
        args.out.write_text(text)
    return EXIT_OK if report.ok else EXIT_FAILED


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (SchemaError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CoverageRoutingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
