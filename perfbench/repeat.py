#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --seeds 1-10 --out .perfbench_work/repeat.json

It runs every workload of BENCHMARK.json untraced, at its run_seconds,
once per seed. Runs are sequential, one process at a time. For each
workload and metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    machine = next((json.loads(line[9:]) for line in lines if line.startswith("machine: ")), {})
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, wall_s=wall, machine=machine)
    return result


def summarise(runs: list[dict], bounds: dict) -> dict:
    table = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        rows = {}
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0, "bound": bounds.get(name)}
        table[workload] = {
            "runs": len(mine),
            "failed": sum(r["failed"] for r in mine),
            "all_correct": all(r["correct"] for r in mine),
            "max_wall_s": max(r["wall_s"] for r in mine),
            "metrics": rows,
        }
    return table


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", help="write raw runs and the summary here (JSON)")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            r = runs[-1]
            print(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']} "
                  f"wall {r['wall_s']:.1f} s", flush=True)
    table = summarise(runs, bounds)
    for workload, summary in table.items():
        print(f"\n{workload}: {summary['runs']} runs, failed {summary['failed']}, "
              f"max wall {summary['max_wall_s']:.1f} s")
        for name, row in summary["metrics"].items():
            bound = "" if row["bound"] is None else f"  bound {row['bound']:.2f}"
            print(f"  {name:40s} median {row['median']:>12.6g}  q1 {row['q1']:>12.6g}  "
                  f"q3 {row['q3']:>12.6g}  spread {row['spread']:.3f}{bound}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"summary": table, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
