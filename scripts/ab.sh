#!/usr/bin/env bash
# Paired A/B benchmark of a git revision against the working tree.
#
#   scripts/ab.sh REV [-n PAIRS] [-s SEED] [-w WORKLOAD]... [-o DIR]
#
# Exports REV (`git archive`) and the working tree (tracked plus
# untracked, non-ignored files, uncommitted edits included) into two
# separate checkouts under a temp dir, then runs PAIRS (default 10)
# alternating pairs of
#
#   python3 benchmark/run.py --workload W --seed SEED --out F
#
# per workload (default: all four), flipping which side runs first on
# every pair. Each checkout builds its own build-bench/ on its first run.
# For each workload it prints benchmark/compare.py's medians and
# quartiles over the per-run medians, then, for every end-to-end metric
# of BENCHMARK.json, the paired medians, quartiles, the parent's
# interquartile range and how many pairs the working tree won (ties
# count for neither side). -o DIR keeps every run's JSON and log in
# DIR; otherwise they go with the temp dir, and a failed run's log tail
# is printed to stderr. Exit status is non-zero when a run fails (at
# once), or, after every workload's tables are printed, when compare.py
# failed for any workload: a 'worse' verdict or a trace skeleton that
# differs between the two sides.
set -euo pipefail

usage() {
  sed -n '2,/^set -euo/p' "$0" | sed -e '$d' -e 's/^# \{0,1\}//' >&2
  exit 2
}

[[ $# -ge 1 && "$1" != -* ]] || usage
rev="$1"
shift
pairs=10
seed=1
out=""
workloads=()
while getopts "n:s:w:o:" opt; do
  case "$opt" in
    n) pairs="$OPTARG" ;;
    s) seed="$OPTARG" ;;
    w) workloads+=("$OPTARG") ;;
    o) out="$OPTARG" ;;
    *) usage ;;
  esac
done
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(cmp-replay manycore-replay smp-coherence cold-build)
fi

root="$(git rev-parse --show-toplevel)"
base_sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/stagedcmp-ab.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
results="${out:-$tmp/results}"
mkdir -p "$results"

echo "==> exporting $rev ($base_sha) and the working tree under $tmp" >&2
mkdir -p "$tmp/base" "$tmp/new"
git -C "$root" archive "$base_sha" | tar -x -C "$tmp/base"
# Tracked files deleted in the working tree are skipped.
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
   while IFS= read -r -d '' f; do
     if [[ -e "$f" ]]; then printf '%s\0' "$f"; fi
   done |
   tar --null -T - -c) | tar -x -C "$tmp/new"

run_side() {  # run_side SIDE WORKLOAD PAIR
  local side="$1" w="$2" i="$3"
  local f="$results/$side-$w-s$seed-$i.json"
  local log="$results/$side-$w-s$seed-$i.log"
  (cd "$tmp/$side" &&
     python3 benchmark/run.py --workload "$w" --seed "$seed" --out "$f" \
       > "$log" 2>&1) || {
    echo "FAIL: $side run $i of $w; last lines of $log:" >&2
    tail -n 30 "$log" >&2
    return 1
  }
}

for w in "${workloads[@]}"; do
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=(base new); else order=(new base); fi
    echo "==> $w pair $i/$pairs (${order[0]} first)" >&2
    for side in "${order[@]}"; do run_side "$side" "$w" "$i"; done
  done
done

failed=()
for w in "${workloads[@]}"; do
  echo
  echo "=== $w, seed $seed: $rev vs working tree, $pairs pairs"
  base_files=() new_files=()
  for ((i = 1; i <= pairs; i++)); do
    base_files+=("$results/base-$w-s$seed-$i.json")
    new_files+=("$results/new-$w-s$seed-$i.json")
  done
  # compare.py diffs the exact counts of every base/new file pair; show
  # how many it diffed and any trace skeleton that differs (a failure).
  python3 "$root/benchmark/compare.py" "${base_files[@]}" \
    --new "${new_files[@]}" > "$tmp/compare.txt" || failed+=("$w")
  sed '/^exact counts/,$d' "$tmp/compare.txt"
  echo "exact counts: $(grep -c '^  seed' "$tmp/compare.txt" || true)" \
    "file-pair comparisons, trace skeleton differences:" \
    "$(grep -c 'DIFFERENT' "$tmp/compare.txt" || true)"
  grep 'DIFFERENT' "$tmp/compare.txt" || true
  python3 - "$root/BENCHMARK.json" "$w" "$pairs" "$results" "$seed" <<'EOF'
import json
import statistics
import sys

spec_path, w, pairs, results, seed = sys.argv[1:]
pairs = int(pairs)
end_to_end = json.load(open(spec_path))["end_to_end"]


def value(side, i, metric):
    f = json.load(open(f"{results}/{side}-{w}-s{seed}-{i}.json"))
    return f["workloads"][w]["metrics"][metric]["value"]


def quartiles(v):
    q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
    return statistics.median(v), q1, q3


print(f"\npaired end-to-end metrics ({pairs} pairs; wins = pairs the "
      "working tree won)")
print(f"{'metric':14} {'parent median [q1,q3]':>30} "
      f"{'change median [q1,q3]':>30} {'delta':>8} {'parent IQR':>11} "
      f"{'wins':>6}")
for m in end_to_end:
    name = m["name"]
    base = [value("base", i, name) for i in range(1, pairs + 1)]
    new = [value("new", i, name) for i in range(1, pairs + 1)]
    lower = m["better"] == "lower"
    wins = sum((n < b) if lower else (n > b) for b, n in zip(base, new))
    bmed, bq1, bq3 = quartiles(base)
    nmed, nq1, nq3 = quartiles(new)
    delta = (nmed - bmed) / bmed if bmed else 0.0
    print(f"{name:14} {bmed:12.5g} [{bq1:.4g},{bq3:.4g}]"
          f"{'':>4} {nmed:12.5g} [{nq1:.4g},{nq3:.4g}]{'':>4} "
          f"{delta:+8.2%} {bq3 - bq1:11.4g} {wins:>3}/{pairs}")
EOF
done

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "FAIL: compare.py reported a worse metric or a trace skeleton" \
    "difference for: ${failed[*]}" >&2
  exit 1
fi
