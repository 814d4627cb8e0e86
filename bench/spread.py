#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's quartile spread.

    python3 bench/spread.py --workload NAME --seeds 1 2 3 ... [--trace 0|1]

Runs are sequential.  For every metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median, next to the metric's bound from ``BENCHMARK.json``.
Use it to check that the benchmark is steady, and to compare two commits by
running it on each.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    walls = []
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        walls.append(time.perf_counter() - t0)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result, {result['failed']} gates failed", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: wall {walls[-1]:.1f} s", file=sys.stderr)

    print(f"{args.workload}: {len(args.seeds)} runs, wall median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"  {name:36s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f}" + (f"  bound {bound}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
