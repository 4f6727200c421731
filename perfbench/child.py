"""One fresh interpreter's share of a benchmark run.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE --seconds S

MODE is ``setup`` (import, first result, exit), ``measure`` (first result,
then untraced warm passes for about S seconds) or ``trace`` (first result
and warm passes under the span tracer, interleaved with untraced passes
to measure the tracer's overhead).  The child prints one JSON object as
its last stdout line; ``t_first`` is the CLOCK_MONOTONIC reading at the
first result, which the parent subtracts from its spawn time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import WORKLOADS, Outcome

MIN_PASSES = 4
MAX_PASSES = 60


class Tally:
    """Checked operations over every pass of the child."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, out: Outcome) -> None:
        self.attempted += out.attempted
        self.failed += out.failed
        self.failures.extend(out.failures[:3])

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def timed(fn, *args, ops: int) -> tuple[Outcome, float]:
    """Run one pass; a pass that raises counts all its ``ops`` as failed."""
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception:
        out = Outcome("", attempted=ops, failed=ops,
                      failures=[traceback.format_exc(limit=-3)])
    return out, perf_counter() - t0


def measure(wl, seed: int, seconds: float, tally: Tally) -> dict:
    workers = wl.workers()
    # On a shared host each vCPU's speed drifts on its own, for seconds at a
    # time.  A single-process run pins its passes to the vCPUs in turn, so
    # run_s averages them instead of sampling whichever one it landed on.
    # A pool keeps every vCPU: its workers inherit the parent's affinity.
    cpus = sorted(os.sched_getaffinity(0)) if workers == 1 else []
    start = perf_counter()
    times, hashes = [], []
    while len(times) < MAX_PASSES:
        if cpus:
            os.sched_setaffinity(0, {cpus[len(times) % len(cpus)]})
        out, dt = timed(wl.run_pass, seed, workers, ops=wl.ops)
        tally.add(out)
        times.append(dt)
        hashes.append(out.sha256)
        if len(times) == 1:
            payload_bytes = len(out.payload.encode())
        tally.check(out.sha256 == hashes[0], f"pass {len(times)} payload differs from pass 1")
        if (len(times) >= MIN_PASSES and len(times) % max(1, len(cpus)) == 0
                and perf_counter() - start + statistics.median(times) > seconds):
            break
    if cpus:
        os.sched_setaffinity(0, cpus)
    if wl.pooled:
        ref, _ = timed(wl.reference, seed, ops=wl.ops)
        tally.add(ref)
        for i, h in enumerate(hashes, 1):
            tally.check(h == ref.sha256, f"pooled pass {i} payload differs from workers=1")
    return {"pass_s": times, "workers": workers, "payload_sha256": hashes[0],
            "payload_bytes": payload_bytes}


def trace(wl, seed: int, seconds: float, tally: Tally, tracer, out_dir: Path,
          name: str) -> dict:
    """Pass 0 (the first result) and pass 1 (the first warm pass) give the
    per-layer numbers; ``paths.signs.pass_share`` is pass 1's alone.  Later
    traced passes alternate with untraced ones for the overhead."""
    from spans import layer_metrics

    tracer.pass_id = 1
    out1, pass1_s = timed(wl.run_pass, seed, 1, ops=wl.ops)
    tally.add(out1)
    tracer.uninstall()
    traced, untraced = [], []
    start = perf_counter()
    while len(untraced) < MAX_PASSES:
        out, dt = timed(wl.run_pass, seed, 1, ops=wl.ops)
        tally.add(out)
        tally.check(out.sha256 == out1.sha256, "untraced payload differs from traced")
        untraced.append(dt)
        tracer.pass_id += 1
        tracer.install()
        out, dt = timed(wl.run_pass, seed, 1, ops=wl.ops)
        tracer.uninstall()
        tally.add(out)
        tally.check(out.sha256 == out1.sha256, "traced payload differs from pass 1")
        traced.append(dt)
        if perf_counter() - start + statistics.median(untraced) + statistics.median(traced) > seconds:
            break
    layers, arrays = layer_metrics(tracer.spans, {0, 1})
    warm, _ = layer_metrics(tracer.spans, {1})
    layers["paths.signs.pass_share"] = (warm["paths.signs.self_s"][0] / pass1_s, "frac")
    layers["experiments.payload_bytes"] = (len(out1.payload.encode()), "B")
    layers["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "frac")
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"{name}_seed{seed}.spans.jsonl", {0, 1})
    return {"layers": layers, "arrays": arrays, "payload_sha256": out1.sha256,
            "traced_pass_s": traced, "untraced_pass_s": untraced,
            "spans": len(tracer.spans), "missing": tracer.missing}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    tally = Tally()

    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    first, first_s = timed(wl.first_result, args.seed, ops=1)
    t_first = time.monotonic()
    tally.add(first)

    result = {"t_first": t_first, "first_result_s": first_s}
    if args.mode == "measure":
        result.update(measure(wl, args.seed, args.seconds, tally))
    elif args.mode == "trace":
        result.update(trace(wl, args.seed, args.seconds, tally, tracer,
                            args.out, args.workload))
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures[:10],
        maxrss_self_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        maxrss_children_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        python=platform.python_version(),
        numpy=np.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
