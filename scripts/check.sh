#!/usr/bin/env bash
# Full verification: a static docs pass (link, spec and flag drift),
# then the tier-1 pass: a Release build with warnings as errors and
# ctest, whose test_goldens_* entries hold every committed golden in
# tests/golden/ (cold at several thread counts, warm from a mapped
# bundle, sharded and merged, with the counter cross-checks). Around
# that contract the tier-1 pass drives sweep_main once per surface: one
# golden diff (the regeneration path), one run per sink, one
# --shard/--merge round trip, and the warm and cold perf-gate runs. The
# sanitizer pass runs ctest under ASan+UBSan (every entry but the slow
# test_goldens_shootout ones); the optional ThreadSanitizer pass runs the
# concurrency-bearing suites, the smoke goldens included.
#
#   scripts/check.sh              # docs + tier-1 + ASan/UBSan passes
#   scripts/check.sh --tier1      # docs + tier-1 only
#   scripts/check.sh --sanitize   # docs + sanitizer pass only
#   scripts/check.sh --tsan       # docs + ThreadSanitizer pass only
set -euo pipefail

cd "$(dirname "$0")/.."

run_tier1=1
run_sanitize=1
run_tsan=0
case "${1:-}" in
  --tier1) run_sanitize=0 ;;
  --sanitize) run_tier1=0 ;;
  --tsan) run_tier1=0; run_sanitize=0; run_tsan=1 ;;
  "") ;;
  *) echo "usage: $0 [--tier1|--sanitize|--tsan]" >&2; exit 2 ;;
esac

jobs=$(nproc 2>/dev/null || echo 4)

echo "==> docs: internal links, sweep-spec drift, bench binaries"
docs_fail=0
# Every relative markdown link in README.md and docs/*.md must resolve
# (targets are relative to the linking file's directory).
while IFS=: read -r file match; do
  link="${match#](}"
  link="${link%)}"
  case "$link" in
    http://*|https://*|mailto:*|"#"*) continue ;;
  esac
  target="${link%%#*}"
  [[ -z "$target" ]] && continue
  # Only path-shaped targets: code blocks legitimately contain `](`
  # (C++ lambdas in capture lists), which are not links.
  [[ "$target" =~ ^[A-Za-z0-9._/-]+$ ]] || continue
  if [[ ! -e "$(dirname "$file")/$target" ]]; then
    echo "FAIL: $file links to missing '$link'" >&2
    docs_fail=1
  fi
done < <(grep -HoE '\]\([^)]+\)' README.md docs/*.md)
# Sweep-spec drift, both directions: every `--spec NAME` in README must
# be a builtin, and every builtin name must be documented in README.
builtin_names=$(sed -n '/^std::vector<std::string> BuiltinSpecNames/,/^}/p' \
                  src/sweep/builtin_specs.cc | grep -oE '"[a-z0-9]+"' \
                | tr -d '"')
if [[ -z "$builtin_names" ]]; then
  echo "FAIL: could not extract BuiltinSpecNames from builtin_specs.cc" >&2
  docs_fail=1
fi
for s in $(grep -oE '\-\-spec [a-z0-9]+' README.md | awk '{print $2}' \
           | sort -u); do
  if ! grep -qw "$s" <<<"$builtin_names"; then
    echo "FAIL: README uses --spec $s, which is not a builtin spec" >&2
    docs_fail=1
  fi
done
for s in $builtin_names; do
  if ! grep -q "\`$s\`" README.md; then
    echo "FAIL: builtin spec '$s' is not documented in README" >&2
    docs_fail=1
  fi
done
# sweep_main CLI drift: every flag in the driver's usage text must be
# documented in README (catches new flags landing without docs).
sweep_flags=$(grep -oE '"  --[a-z-]+' bench/sweep_main.cc \
              | grep -oE '\-\-[a-z-]+' | sort -u)
if [[ -z "$sweep_flags" ]]; then
  echo "FAIL: could not extract sweep_main flags from bench/sweep_main.cc" >&2
  docs_fail=1
fi
for f in $sweep_flags; do
  if ! grep -q -- "$f" README.md; then
    echo "FAIL: sweep_main flag '$f' is not documented in README" >&2
    docs_fail=1
  fi
done
# ...and the reverse: every flag README documents must appear in the
# usage text (catches docs that outlive a deleted flag). Lines invoking
# another tool (cmake, ctest, check.sh) carry that tool's flags, and a
# flag starts a word (so `#section--anchor` links are not flags).
usage_flags=$(sed -n '/^int Usage(/,/^}/p' bench/sweep_main.cc \
              | grep -oE -- '--[a-z][a-z-]+' | sort -u)
if [[ -z "$usage_flags" ]]; then
  echo "FAIL: could not extract the usage text from bench/sweep_main.cc" >&2
  docs_fail=1
fi
for f in $(grep -vE 'cmake |ctest |check\.sh' README.md \
           | grep -oE -- '(^|[^[:alnum:]-])--[a-z][a-z-]+' \
           | sed -E 's/^[^-]//' | sort -u); do
  if ! grep -qx -- "$f" <<<"$usage_flags"; then
    echo "FAIL: README documents '$f', which sweep_main's usage text" \
         "does not list" >&2
    docs_fail=1
  fi
done
# Stale binary references: every build/bench/<binary> that the docs or
# the verify skill notes name must be a target bench/CMakeLists.txt
# builds (catches docs still pointing at deleted per-figure binaries).
bench_targets=$(sed -n '/^set(STAGEDCMP_BENCHES/,/^)/p' bench/CMakeLists.txt \
                  | grep -oE '^ +[a-z0-9_]+' | tr -d ' ';
                grep -oE 'list\(APPEND STAGEDCMP_BENCHES [a-z0-9_]+' \
                  bench/CMakeLists.txt | awk '{print $3}')
if [[ -z "$bench_targets" ]]; then
  echo "FAIL: could not extract bench targets from bench/CMakeLists.txt" >&2
  docs_fail=1
fi
bench_docs=(README.md docs/*.md)
[[ -f .claude/skills/verify/SKILL.md ]] \
  && bench_docs+=(.claude/skills/verify/SKILL.md)
while IFS=: read -r file ref; do
  if ! grep -qx "${ref#build/bench/}" <<<"$bench_targets"; then
    echo "FAIL: $file names $ref, which bench/CMakeLists.txt does not" \
         "build" >&2
    docs_fail=1
  fi
done < <(grep -HoE 'build/bench/[A-Za-z0-9_]+' "${bench_docs[@]}" \
         | sort -u)
[[ $docs_fail -eq 0 ]] || exit 1
echo "    docs OK"

if [[ $run_tier1 -eq 1 ]]; then
  echo "==> tier-1: Release build + ctest (warnings are errors)"
  cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"

  echo "==> sweep_main CLI: golden diff, sinks, shard/merge round trip"
  # The cold run is the golden regeneration path (point --out at
  # tests/golden/sweep_smoke.json after an intended change); it also
  # writes the trace bundle the runs below replay and the cold perf
  # summary the gate checks.
  rm -f build/smoke.traces
  ./build/bench/sweep_main --spec smoke --threads 8 --golden \
    --trace-bundle build/smoke.traces \
    --perf-out build/BENCH_sweep_cold_fresh.json \
    --out build/sweep_smoke_golden.json
  diff -u tests/golden/sweep_smoke.json build/sweep_smoke_golden.json

  echo "==> sweep smoke grid: BENCH trajectory (warm)"
  # Warm pass: replay-only single-thread trajectory (the committed
  # BENCH_sweep.json baseline is measured exactly this way). Known scope
  # limit: the gate below therefore watches replay throughput only —
  # trace-GENERATION slowdowns show up in the cold pass's wall clock but
  # are gated separately (BENCH_sweep_cold.json).
  ./build/bench/sweep_main --spec smoke --threads 1 --format json \
    --trace-bundle build/smoke.traces --out /dev/null \
    --perf-out build/BENCH_sweep_fresh.json
  # The warm pass must actually be served from the mapped bundle.
  grep -q '"bundle_mode": "mmap"' build/BENCH_sweep_fresh.json

  # The table and csv sinks; the two shard files, passed out of order,
  # merge into the csv run's bytes.
  ./build/bench/sweep_main --spec smoke --threads 4 \
    --trace-bundle build/smoke.traces --out build/sweep_smoke.txt
  grep -q "sweep 'smoke': 4 cells" build/sweep_smoke.txt
  ./build/bench/sweep_main --spec smoke --threads 4 --golden --format csv \
    --trace-bundle build/smoke.traces --out build/sweep_smoke_golden.csv
  for i in 0 1; do
    ./build/bench/sweep_main --spec smoke --threads 4 --shard "$i/2" \
      --trace-bundle build/smoke.traces --out "build/smoke_shard$i.shard"
  done
  ./build/bench/sweep_main --merge build/sweep_smoke_merged.csv \
    --golden --format csv build/smoke_shard1.shard build/smoke_shard0.shard
  diff -u build/sweep_smoke_golden.csv build/sweep_smoke_merged.csv

  echo "==> perf gates: warm replay + cold build, 20% regression budget"
  # Each gate compares absolute cells/sec against a baseline committed
  # from the CI container; on a substantially slower machine export
  # STAGEDCMP_SKIP_PERF_GATE=1 instead of committing that machine's
  # numbers. The warm gate watches replay throughput; the cold gate's
  # wall clock is end-to-end and so also covers trace GENERATION — a
  # build-path slowdown that the warm gate is blind to trips it.
  get_cps() {  # get_cps FILE — the summary's top-level cells_per_second
    awk -F': ' '/"cells_per_second"/ { gsub(/,/, "", $2); print $2; exit }' \
      "$1"
  }
  gate_cps() {  # gate_cps LABEL BASELINE_FILE FRESH_FILE
    local label="$1" baseline_file="$2" fresh_file="$3"
    local baseline fresh
    baseline=$(get_cps "$baseline_file")
    fresh=$(get_cps "$fresh_file")
    if [[ -z "$baseline" || -z "$fresh" ]]; then
      # An unparsable side must fail loudly: awk would treat "" as 0 and
      # silently disable the gate forever.
      echo "FAIL: could not parse $label cells_per_second" \
           "(baseline='${baseline}', fresh='${fresh}')" >&2
      exit 1
    fi
    echo "    $label: baseline ${baseline} cells/s, fresh ${fresh} cells/s"
    if [[ "${STAGEDCMP_SKIP_PERF_GATE:-0}" != "1" ]]; then
      if ! awk -v f="$fresh" -v b="$baseline" \
           'BEGIN { exit (f >= 0.8 * b) ? 0 : 1 }'; then
        echo "FAIL: $label cells_per_second regressed >20%" \
             "(${fresh} < 0.8*${baseline})" >&2
        exit 1
      fi
    fi
    # The committed baseline only changes on explicit request (run on the
    # CI container: STAGEDCMP_UPDATE_PERF_BASELINE=1 scripts/check.sh),
    # and even then never downward — otherwise a faster dev machine would
    # silently commit numbers every other machine then fails against, and
    # noisy slower runs would ratchet the gate loose.
    if [[ "${STAGEDCMP_UPDATE_PERF_BASELINE:-0}" == "1" ]] \
       && awk -v f="$fresh" -v b="$baseline" 'BEGIN { exit (f >= b) ? 0 : 1 }'
    then
      cp "$fresh_file" "$baseline_file"
      echo "    $label committed baseline updated"
    fi
  }
  gate_cps warm BENCH_sweep.json build/BENCH_sweep_fresh.json
  gate_cps cold BENCH_sweep_cold.json build/BENCH_sweep_cold_fresh.json
  # Host memory, reported only (no gate): each pass's process peak.
  get_rss() {
    awk -F': ' '/"peak_rss_mb"/ { gsub(/,/, "", $2); print $2; exit }' "$1"
  }
  echo "    peak_rss_mb: cold $(get_rss build/BENCH_sweep_cold_fresh.json)," \
       "warm $(get_rss build/BENCH_sweep_fresh.json)"
  cat build/BENCH_sweep_fresh.json
fi

if [[ $run_sanitize -eq 1 ]]; then
  echo "==> sanitizers: Debug + ASan/UBSan build + ctest"
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DSTAGEDCMP_SANITIZE=ON
  cmake --build build-asan -j "$jobs"
  # Every ctest entry but the 1024-node shootout goldens, which take
  # minutes under ASan (the tier-1 pass runs them).
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "$jobs" \
      -E test_goldens_shootout
fi

if [[ $run_tsan -eq 1 ]]; then
  echo "==> ThreadSanitizer: Debug + TSan build, concurrency suites"
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DSTAGEDCMP_TSAN=ON
  cmake --build build-tsan -j "$jobs"
  # The concurrency-bearing suites: world isolation (concurrent
  # distinct-config TraceSetCache::Get), the sweep runner's build/sim
  # pipeline and the cache's same-config race, and the smoke goldens,
  # whose cold runs regenerate every trace set concurrently on the
  # builder threads while sim workers replay — the exact interleaving the
  # isolated-world design must keep race-free.
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
      -R 'test_world_isolation|test_sweep|test_goldens_smoke$'
fi

echo "==> all checks passed"
