"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10] [--trace-seed 1]
                                 [--save perfbench/out/summary.json]

Runs the command of BENCHMARK.json once per (workload, seed) with
``--trace 0``, then once per workload with ``--trace 1`` at the trace seed,
all from the repository root.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}_seed{seed}_trace{trace}.json").read_text())
    result.update(wall_s=wall, env=record["env"], payload_sha256=record["payload_sha256"])
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--save", type=Path, default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary: dict = {}
    for workload in args.workloads.split(","):
        runs = [run(bench, workload, s, 0) for s in seeds(args.seeds)]
        entry = {"seeds": args.seeds,
                 "correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "max_wall_s": max(r["wall_s"] for r in runs),
                 "env": runs[0]["env"],
                 "payload_sha256": {str(s): r["payload_sha256"]
                                    for s, r in zip(seeds(args.seeds), runs)},
                 "end_to_end": {}}
        print(f"{workload}: {len(runs)} runs, correct={entry['correct']}, "
              f"failed {entry['failed']} of {entry['attempted']}, "
              f"longest run {entry['max_wall_s']:.1f} s")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": med,
                "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  (a third of the bound: {bound / 3:.3f})")
        if args.trace_seed is not None:
            traced = run(bench, workload, args.trace_seed, 1)
            entry["trace_seed"] = args.trace_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["trace_correct"] = traced["correct"]
            print(f"  traced run at seed {args.trace_seed}: correct={traced['correct']}")
        summary[workload] = entry
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
