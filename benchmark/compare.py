#!/usr/bin/env python3
"""Compares benchmark results of a base and a new build.

    python3 benchmark/compare.py BASE.json [BASE.json ...] --new NEW.json [...]

Each file is a results file written by `run.py --out`. For every
workload and metric it prints each side's median and quartiles. For the
end-to-end metrics of BENCHMARK.json it adds the bound and a verdict:

  worse       the new median is worse than the base median by more than
              the bound;
  better      it is better by more than the bound;
  same        neither;
  unresolved  the spread (quartile distance over median, the wider of
              the two sides) exceeds the bound, unless every new value
              is better than every base value ("better").

A verdict is not a gain claim: that takes paired runs of both builds.

A side's values are the per-file medians when it has several files,
otherwise the one file's in-run samples. Per-layer metrics (traced runs)
get medians and their ratio only. It then diffs the exact counts of
files with the same seed: trace skeleton totals must be identical; the
simulated counts can follow heap placement across processes, so their
relative difference is shown. Exit status 1 when a metric is worse or a
skeleton differs.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    return [json.load(open(p)) for p in paths]


def values(files, workload, metric):
    present = [f["workloads"][workload]["metrics"][metric] for f in files
               if metric in f["workloads"].get(workload, {}).get("metrics", {})]
    if len(present) == 1:
        return present[0]["samples"]
    return [m["value"] for m in present]


def summary(vals):
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(base, new, spec):
    bmed, _, _, bspread = summary(base)
    nmed, _, _, nspread = summary(new)
    sign = 1 if spec["better"] == "lower" else -1
    worse_by = sign * (nmed - bmed) / bmed if bmed else 0.0
    if spec["better"] == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    spread = max(bspread, nspread)
    if spread > spec["bound"]:
        return "better" if all_better else "unresolved"
    if worse_by > spec["bound"]:
        return "worse"
    if -worse_by > spec["bound"]:
        return "better"
    return "same"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", nargs="+")
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = load(args.base), load(args.new)
    failing = False

    workloads = [w for w in base[0]["workloads"] if w in new[0]["workloads"]]
    print(f"{'workload':16} {'metric':30} {'base median [q1,q3]':>30} "
          f"{'new median [q1,q3]':>30} {'delta':>8} {'bound':>6}  verdict")
    for w in workloads:
        for metric in base[0]["workloads"][w]["metrics"]:
            b, n = values(base, w, metric), values(new, w, metric)
            if not b or not n:
                continue
            bmed, bq1, bq3, _ = summary(b)
            nmed, nq1, nq3, _ = summary(n)
            delta = (nmed - bmed) / bmed if bmed else 0.0
            spec = end_to_end.get(metric)
            tail = (f"{spec['bound']:6.2f}  {verdict(b, n, spec)}" if spec
                    else f"{'':6}  per-layer")
            failing |= tail.endswith("worse")
            print(f"{w:16} {metric:30} {bmed:12.5g} [{bq1:.4g},{bq3:.4g}] "
                  f"{nmed:12.5g} [{nq1:.4g},{nq3:.4g}] {delta:+8.2%} {tail}")

    print("\nexact counts (files with the same seed):")
    for bf in base:
        for nf in new:
            if bf["seed"] != nf["seed"]:
                continue
            for w in workloads:
                bx = bf["workloads"][w].get("exact", {})
                nx = nf["workloads"][w].get("exact", {})
                for key in bx:
                    if key not in nx:
                        continue
                    if bx[key] == nx[key]:
                        state = "identical"
                    elif key.startswith("trace."):
                        state = "DIFFERENT"
                        failing = True
                    elif bx[key]:
                        state = f"{(nx[key] - bx[key]) / bx[key]:+.3%}"
                    else:
                        state = "differs"
                    print(f"  seed {bf['seed']} {w:16} {key:22} "
                          f"{bx[key]:>14} {nx[key]:>14}  {state}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
