"""nefsim benchmark: end-to-end and per-layer figures of four workloads.

    python3 perfbench/run.py                         # all four workloads
    python3 perfbench/run.py --workload rover_loop --seed 3 --seconds 15
    python3 perfbench/run.py --workload arm_adapt --trace 1   # per-layer run

Each workload runs in a fresh process (workloads.py) with the BLAS thread
count fixed in its environment before numpy loads.  With one workload the
output is that process's output, whose last line is the result as one JSON
object; with all four, a summary follows and the last line holds every
result.  The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import BENCHMARK, THREAD_VARS

WORKER = Path(__file__).resolve().parent / "workloads.py"
WORKLOAD_NAMES = tuple(w["name"] for w in BENCHMARK["workloads"])
# One BLAS thread.  On a 2-CPU machine shared with other tenants, two threads
# build the full-scale rover in 27-30 s but stall when the second CPU is busy
# elsewhere: 512-neuron builds then jump from 0.13 s to 1.6 s and set-up from
# 0.6 s to 1.7 s.  One thread is slower on the full-scale build but never
# stalls, and keeps the process to one thread, so that its CPU time is the
# time it ran.
BLAS_THREADS = 1
TIMEOUT_S = 175.0


def blas_threads():
    return max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))


def run_workload(name, seed, seconds, trace):
    """Run one workload in a fresh process; returns (exit code, stdout)."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(blas_threads())
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print(f"error: {name} did not finish within {TIMEOUT_S:g} s", file=sys.stderr)
        return 124, out
    return proc.returncode, out


def last_json(out):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    if args.workload:
        code, out = run_workload(args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        return code

    results, ok = {}, True
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        code, out = run_workload(name, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        result = last_json(out)
        ok = ok and code == 0 and result is not None and result["correct"]
        results[name] = result
    print("== summary")
    for name, result in results.items():
        if result is None:
            print(f"{name}: no result")
            continue
        figures = ", ".join(f"{k} {v['value']:.4g} {v['unit']}"
                            for k, v in result["metrics"].items())
        print(f"{name}: correct {result['correct']}, {result['attempted']} attempted, "
              f"{result['failed']} failed; {figures}")
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
