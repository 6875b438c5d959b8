#!/usr/bin/env python3
"""Run every workload, each in its own process, and print one table.

    python3 perfbench/report.py [--seed 7] [--seconds 20] [--trace 0|1]

With --trace 0 it prints, per workload, setup_s, run_s, events_per_s or
map_steps_per_s (the run's work_per_s, named by its unit of work),
peak_rss_mb and fail_ratio (failed / attempted calls).  With --trace 1 it
prints every per-layer metric, exact counts marked with '='.  The exit code
is 1 if any workload failed a check or did not produce a result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
EXACT = {m.name for m in LAYER_METRICS if m.exact}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=240,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="all perfbench workloads in one table")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in WORKLOADS}
    ok = all(r is not None and r["correct"] for r in results.values())
    if args.trace:
        names = [m.name for m in LAYER_METRICS] + ["trace.overhead_ratio"]
        print(f"{'metric':36}" + "".join(f"{w:>17}" for w in results))
        for metric in names:
            cells = []
            for r in results.values():
                cells.append("-" if r is None else f"{r['metrics'][metric]['value']:.6g}")
            mark = "=" if metric in EXACT else " "
            print(f"{mark}{metric:35}" + "".join(f"{c:>17}" for c in cells))
        return 0 if ok else 1

    print(f"{'workload':16} {'setup_s':>9} {'run_s':>9} {'throughput':>26} "
          f"{'peak_rss_mb':>11} {'fail_ratio':>10}")
    for name, r in results.items():
        if r is None:
            print(f"{name:16} no result")
            continue
        m = {k: v["value"] for k, v in r["metrics"].items()}
        unit = "events_per_s" if WORKLOADS[name].work_unit == "events" else "map_steps_per_s"
        throughput = f"{unit} {m['work_per_s']:.6g}"
        print(f"{name:16} {m['setup_s']:9.4f} {m['run_s']:9.4f} {throughput:>26} "
              f"{m['peak_rss_mb']:11.2f} {r['failed'] / r['attempted']:10.3g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
