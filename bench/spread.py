"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload small-I --seeds 0-9
    python3 bench/spread.py --workload small-I --seeds 0-9 --record "seed 1b1f25a"

Runs ``run.py`` once per seed, one after another.  For every metric prints
the median, the quartiles (``statistics.quantiles(n=4)``) and the spread,
which is the distance between the quartiles over the median.  ``--record``
stores the figures in ``trajectory.json`` under the given label.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "trajectory.json"


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--record", metavar="LABEL")
    args = ap.parse_args()

    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct {doc['correct']}",
              flush=True)
        runs.append(doc)

    figures = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else 0.0
        figures[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": first["unit"], "n": len(values)}
        print(f"{name:32s} median {med:12.6f} {first['unit']:6s} "
              f"q1 {q1:12.6f} q3 {q3:12.6f} spread {spread:.4f}")
    ok = all(r["correct"] for r in runs)

    if args.record:
        entries = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        entry = next((e for e in entries if e["label"] == args.record), None)
        if entry is None:
            entry = {"label": args.record, "machine": {
                "python": platform.python_version(),
                "processor": platform.processor() or platform.machine()},
                "workloads": {}}
            entries.append(entry)
        entry["workloads"][args.workload] = {"seconds": float(args.seconds),
                                             "metrics": figures}
        TRAJECTORY.write_text(json.dumps(entries, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
