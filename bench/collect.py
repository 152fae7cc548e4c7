"""Run the benchmark repeatedly and record a trajectory point.

Usage (from the root of a checkout):

    python3 bench/collect.py --label NAME [--out FILE]

For each workload: ten untraced runs with seeds 1..10, then one traced
run with seed 1, all for the ``run_seconds`` of BENCHMARK.json.
For every end-to-end metric it records the values, their median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, and it records the per-layer metrics of the traced
runs.  The result file also holds the machine of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
TRACED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.splitlines()
    machine = json.loads(lines[0].removeprefix("machine: "))
    result = json.loads(lines[-1])
    return {"seed": seed, "trace": trace, "wall_s": wall, "machine": machine, **result}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"values": values, "median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else None}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--label", required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    point = {"label": args.label, "seconds": seconds, "workloads": {}}
    for workload in run.WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        traced = [run_once(workload, seed, seconds, 1) for seed in range(1, TRACED + 1)]
        names = list(runs[0]["metrics"])
        summary = {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names}
        point["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": [r["metrics"] for r in traced],
            "runs": runs + traced,
        }
        for n, s in summary.items():
            print(f"{workload:15s} {n:12s} median {s['median']:12.5g}  spread {s['spread']:.3f}",
                  flush=True)
        print(f"{workload:15s} wall per run {statistics.mean(r['wall_s'] for r in runs):.1f} s, "
              f"failed {sum(r['failed'] for r in runs + traced)}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(point, indent=1) + "\n")


if __name__ == "__main__":
    main()
