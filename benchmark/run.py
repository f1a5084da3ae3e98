#!/usr/bin/env python3
"""Builds and runs the StagedCMP benchmark.

    python3 benchmark/run.py [--workload NAME] [--seed S] [--seconds T]
                             [--trace 0|1 | --traced] [--trace-out F]
                             [--out F]

Builds benchmark/ (a CMake project of its own that compiles the
repository from source) into build-bench/, then runs each workload in
its own process: staged_bench with one sim worker and a one-thread build
pool. Every metric is printed as

    workload metric median [min,max] n unit

followed by the workload's exact counts and its fail_ratio (failed over
attempted output checks, each cell run counting as one), and the last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 1 (or --traced) runs the traced
split instead of the timed run. Without --workload all four workloads
run and metric names in the JSON line are prefixed "workload/". --out
writes every workload's full result (samples, exact counts) for
compare.py. Exit status is non-zero when the build fails or any output
check fails.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

WORKLOADS = ["cmp-replay", "manycore-replay", "smp-coherence", "cold-build"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "staged_bench")
# A workload process must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170


def build():
    """Configures (once) and builds staged_bench; build logs go to stderr."""
    def ok(cmd):
        return subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode == 0

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not ok(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]):
            # A failed configure leaves a cache behind; start clean next time.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return ok(["cmake", "--build", BUILD, "--target", "staged_bench",
               "-j", jobs])


def run_workload(name, args):
    """Runs one workload in its own process; returns its JSON, or None."""
    bundles = os.path.join(BUILD, "bundles")
    os.makedirs(bundles, exist_ok=True)
    cmd = [BINARY, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bundle-dir", bundles]
    if args.trace_out:
        cmd += ["--trace-out", trace_path(args.trace_out, name, args)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"{name}: exited {proc.returncode} without a result",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def trace_path(path, name, args):
    """One trace file per workload when several run."""
    if args.workload:
        return path
    stem, ext = os.path.splitext(path)
    return f"{stem}.{name}{ext or '.json'}"


def host():
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--traced", action="store_const", const=1, dest="trace")
    p.add_argument("--trace-out")
    p.add_argument("--out")
    args = p.parse_args()

    if not build():
        print("build failed", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else WORKLOADS
    results = {}
    for name in names:
        results[name] = run_workload(name, args)
        if results[name] is None:
            return 1

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, r in results.items():
        summary["correct"] &= r["correct"]
        summary["attempted"] += r["attempted"]
        summary["failed"] += r["failed"]
        for metric, m in r["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} "
                  f"[{m['min']:.6g},{m['max']:.6g}] {m['n']} {m['unit']}")
            key = metric if args.workload else f"{name}/{metric}"
            summary["metrics"][key] = {"value": m["value"], "unit": m["unit"]}
        for count, value in r["exact"].items():
            print(f"{name} {count} {value} exact")
        print(f"{name} fail_ratio {r['failed'] / r['attempted']:.6g} "
              f"({r['failed']}/{r['attempted']}) failed/attempted")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"host": host(), "build_type": r["build_type"],
                       "seed": args.seed, "trace": args.trace,
                       "seconds": args.seconds, "workloads": results},
                      f, indent=1)
            f.write("\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
