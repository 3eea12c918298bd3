"""Record a baseline: ten seeded runs per workload, plus two traced runs.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each run is a fresh ``run.py`` process, one at a time.  For every end-to-end
metric this prints and records the median, the quartiles and the spread
(interquartile distance over median), and flags a spread that is not below a
third of the metric's bound in BENCHMARK.json.  The two traced runs use the
same seed; every count metric must repeat exactly between them.  The record
carries a machine stamp (CPU count, Python version, platform) and the commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, run_child

RUNS = 10  # seeds 1..RUNS per workload


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    output, result = run_child(workload, seed, seconds, trace)
    if result is None or not result["correct"]:
        sys.stdout.write(output)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: no correct result")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the record here")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    record = {
        "commit": commit(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "runs": RUNS,
        "workloads": {},
    }
    steady = True
    for workload in names:
        started = time.perf_counter()
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        entry = {"end_to_end": {}, "run_wall_s": (time.perf_counter() - started) / RUNS}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarize([r[name] for r in runs], metric["bound"])
            entry["end_to_end"][name] = stats
            steady &= stats["steady"]
            print(f"{workload:11} {name:12} median {stats['median']:.6g} {metric['unit']}"
                  f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}"
                  f"  spread {stats['spread']:.2%} (bound {metric['bound']:.0%})"
                  f"{'' if stats['steady'] else '  NOT BELOW A THIRD OF THE BOUND'}",
                  flush=True)
        traced = [run_once(workload, 1, seconds, 1) for _ in range(2)]
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bits")]
        changed = [name for name in counts if traced[0][name] != traced[1][name]]
        entry["counts_repeat"] = not changed
        entry["per_layer"] = traced[0]
        print(f"{workload:11} traced twice on seed 1: "
              f"{'every count repeats' if not changed else f'COUNTS CHANGED: {changed}'}",
              flush=True)
        steady &= not changed
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
