"""Record the reference bounds the correctness gate compares against.

Solves every workload instance as generated (no rotation) and writes
``reference.json``.  Run it only when a change is meant to move the bounds:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import subprocess

import harness


def main() -> None:
    out = {}
    for wl in harness.WORKLOADS.values():
        rows = []
        for k in range(wl.count):
            text = harness.instance.instance_to_json(wl.make(k))
            (inst,), (table,) = harness.load_all([text])
            res = harness.bundle.run_dual(inst, wl.case, phi=harness.PHI,
                                          tol=harness.TOL, table=table)
            rows.append({
                "instance": k,
                "targets": len(inst.targets),
                "initial_bound": res.initial_bound,
                "lower_bound": res.lower_bound,
                "dual_bound": res.dual_bound,
                "iterations": res.iterations,
            })
            print(wl.name, rows[-1], flush=True)
        out[wl.name] = rows
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True,
                            cwd=harness.ROOT).stdout.strip()
    doc = {"commit": commit, "phi": harness.PHI, "tol": harness.TOL,
           "workloads": out}
    harness.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
