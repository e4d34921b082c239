#!/usr/bin/env python3
"""End-to-end advisor benchmark: builds the driver from source, then runs it.

Run from the root of a checkout:

  python3 advbench/run.py --workload warm_solve --seed 1 --seconds 25 --trace 0

builds advbench/ (which compiles ../src) into $CARGO_TARGET_DIR/advbench
(default .bench_build/advbench), runs the helper self-test, then the driver.
The driver's last stdout line is the JSON result.

Steadiness mode runs workloads back to back with seeds seed, seed+1, ...
and prints each end-to-end metric's median, quartiles and spread
((q3 - q1) / median), flagging spreads above the bound in BENCHMARK.json:

  python3 advbench/run.py --steady 5 [--workload NAME ...] [--seconds S]

Without --workload, steadiness mode runs the workloads BENCHMARK.json lists.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return Path(target) / "advbench"


def build():
    """Configures (once) and builds; build output goes to stderr."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    if subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                      stdout=sys.stderr).returncode != 0:
        return False
    return subprocess.run([str(out / "advbench_selftest")],
                          stdout=sys.stderr).returncode == 0


def run_driver(workload, seed, seconds, trace, capture=False):
    cmd = [str(build_dir() / "advbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if not capture:
        return subprocess.run(cmd).returncode, None
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:  # a failed run prints no result line
        return proc.returncode, None
    return 0, json.loads(proc.stdout.strip().splitlines()[-1])


def steady(args):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.steady):
            code, result = run_driver(workload, args.seed + i, seconds,
                                      args.trace, capture=True)
            if code != 0:
                print(f"{workload} seed {args.seed + i}: run failed "
                      f"(exit {code})", flush=True)
                status = 1
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {args.seed + i}: " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        print(f"\n{workload}: {args.steady} runs")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER BOUND"
            elif bound is not None and spread > bound / 3:
                flag = "  over bound/3"
            print(f"  {m['name']:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3%} {bound if bound is not None else '':>6}"
                  f"{flag}")
        sys.stdout.flush()
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--steady", type=int, default=0,
                        help="run each workload N times and report spreads")
    args = parser.parse_args()
    if not build():
        print("advbench: build failed", file=sys.stderr)
        return 1
    if args.steady:
        return steady(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("--workload NAME is required")
    code, _ = run_driver(args.workload[0], args.seed, args.seconds or 10,
                         args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
