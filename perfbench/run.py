"""dirichletlab benchmark: one workload per invocation, each part of it in a
fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/dirichletlab`` must exist; the
library is imported from there, nothing is installed).

--trace 0 measures the end-to-end metrics:
  setup_s      median over SETUP_STARTS+1 cold interpreters of the time from
               spawn, through ``import dirichletlab``, to the first result
  run_s        third quartile of the wall times of warm passes of the
               workload's fixed work (passes repeat for about S seconds,
               at least four; at workers=1 they are pinned to each vCPU in
               turn)
  peak_rss_mb  peak resident memory of the measuring process tree
--trace 1 runs the workload at workers=1 under the span tracer and reports
the per-layer metrics (see spans.py).

Every pass's outputs are checked (workloads.py); failed_frac is printed
with the metrics and carried as ``failed``/``attempted`` in the last stdout
line, a JSON object.  The payload sha256 of each workload is printed so a
change that alters results is visible.  Results and span dumps are kept
under perfbench/out/.  Exits non-zero, without a result line, when the
library is missing or any child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("no_zero", "sign_change", "clt_primes", "no_zero_pool")
SETUP_STARTS = 4
# every child must end by then, so a run exits well within 180 s
DEADLINE_S = 170.0
START = time.monotonic()


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS/OpenMP thread per process, so no more threads than nproc start
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, mode: str, seconds: float) -> tuple[dict, float]:
    """Run one child to completion; return its result and spawn time.

    The child gets its own process group, so a pool's workers are killed
    with it when the run is interrupted or overruns its deadline."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--out", str(OUT)]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, START + DEADLINE_S - t_spawn))
    except BaseException as exc:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"{mode} child killed at the {DEADLINE_S:.0f} s deadline")
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{mode} child printed no result")
    return json.loads(lines[-1]), t_spawn


def llc_bytes() -> int | None:
    best = None
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        mult = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * mult
        best = value if best is None else max(best, value)
    return best


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still kills and reaps its children (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "dirichletlab" / "__init__.py").is_file():
        print(f"error: no dirichletlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = {"nproc": nproc, "llc_bytes": llc_bytes(), "machine": platform.machine(),
           "git_commit": git_commit(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    report: dict = {"env": env}
    try:
        if args.trace:
            res, _ = run_child(args.workload, args.seed, "trace", args.seconds)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
            report["arrays"] = res["arrays"]
            report["traced_pass_s"] = res["traced_pass_s"]
            report["untraced_pass_s"] = res["untraced_pass_s"]
            report["spans"] = res["spans"]
            report["missing"] = res["missing"]
            children = [res]
        else:
            setups, children = [], []
            for _ in range(SETUP_STARTS):
                res, t_spawn = run_child(args.workload, args.seed, "setup", args.seconds)
                setups.append(res["t_first"] - t_spawn)
                children.append(res)
            res, t_spawn = run_child(args.workload, args.seed, "measure", args.seconds)
            setups.append(res["t_first"] - t_spawn)
            children.append(res)
            passes = res["pass_s"]
            # On a shared host the passes of one run mix a common, steady
            # speed with bursts of a varying faster one; the third quartile
            # follows the steady speed, so it spreads less from run to run
            # than the median.
            quartiles = statistics.quantiles(passes, n=4, method="inclusive")
            # a pool's workers are joined children of the measuring process;
            # each is counted at the largest worker's peak
            rss_kb = res["maxrss_self_kb"] + res["workers"] * res["maxrss_children_kb"] \
                if res["workers"] > 1 else res["maxrss_self_kb"]
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "run_s": {"value": quartiles[2], "unit": "s"},
                "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            }
            report["setup_s"] = setups
            report["pass_s"] = passes
            report["pass_quartiles"] = quartiles
            report["workers"] = res["workers"]
            report["payload_bytes"] = res["payload_bytes"]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    failures = [f for c in children for f in c["failures"]][:10]
    env["python"], env["numpy"] = res["python"], res["numpy"]
    report.update(payload_sha256=res["payload_sha256"], attempted=attempted,
                  failed=failed, failures=failures, metrics=metrics)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={nproc} python={env['python']} numpy={env['numpy']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} checked operations)")
    if not args.trace:
        print(f"  run_s over {len(report['pass_s'])} passes: quartiles "
              + " ".join(f"{x:.4f}" for x in report["pass_quartiles"])
              + f"; setup_s over {len(report['setup_s'])} cold starts: "
              + " ".join(f"{x:.4f}" for x in sorted(report["setup_s"])))
    print(f"  payload_sha256 {res['payload_sha256']}")
    for f in failures:
        print(f"  FAILED: {f}")

    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, sort_keys=True))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
