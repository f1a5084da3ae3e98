// staged_bench: runs one benchmark workload and prints its metrics as
// one JSON object on the last line of stdout.
//
//   staged_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//                [--bundle-dir DIR] [--trace-out FILE]
//
// --trace 0 (the timed run) reports the end-to-end metrics: a few cold,
// bundle-writing setup runs of the grid (setup_s), then repeated Runs
// for T seconds (warm replays of that bundle, or fresh cold builds for
// cold-build), each reported as a median over its samples. --trace 1
// (the traced run, layers.cc) reports the per-layer split instead. Every
// output check that fails is counted in "failed" and makes the exit code
// non-zero. benchmark/run.py builds this binary and drives it.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "sweep/trace_cache.h"

namespace stagedcmp::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Cold setup runs per timed run; setup_s is their median.
constexpr int kSetupRuns = 5;
/// Timed reps run at least this often, however short --seconds is.
constexpr size_t kMinReps = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string bundle_dir = ".";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds >= 0.0)) return false;
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->traced = v[0] == '1';
    } else if (arg == "--bundle-dir") {
      a->bundle_dir = v;
    } else if (arg == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

/// Skeleton totals (events, instructions) of each distinct trace set.
/// Unlike the simulated metrics they do not follow heap placement, so
/// they are compared across builds and across processes.
using Skeletons = std::map<sweep::TraceSetCache::Key,
                           std::pair<uint64_t, uint64_t>>;

/// Whether a set's skeleton is reproducible today. The staged engine's
/// packet buffers are malloc-placed, so the number of cache lines its
/// tuple copies span, and with it the event count, varies from build to
/// build. Such sets are built and timed but left out of the skeleton
/// checks and the exact counts.
bool Reproducible(const harness::TraceSetConfig& c) {
  return c.engine == harness::EngineMode::kVolcano;
}

Skeletons SkeletonsOf(const sweep::SweepReport& r) {
  Skeletons s;
  for (const sweep::CellResult& c : r.cells) {
    if (!Reproducible(c.cell.trace)) continue;
    s.emplace(sweep::TraceSetCache::MakeKey(c.cell.trace),
              std::make_pair(c.trace_total_events,
                             c.trace_total_instructions));
  }
  return s;
}

/// Replay throughput: events over the cells' own simulation wall time.
double ReplayRate(const sweep::SweepReport& r) {
  double seconds = 0.0;
  for (const sweep::CellResult& c : r.cells) seconds += c.sim_wall_seconds;
  return seconds > 0.0 ? static_cast<double>(r.events_replayed()) / seconds
                       : 0.0;
}

/// Exact counts of one Run, for cross-run comparison (compare.py).
Counts ExactCounts(const sweep::SweepReport& r) {
  constexpr int kL2 = static_cast<int>(memsim::AccessClass::kL2Hit);
  constexpr int kOff = static_cast<int>(memsim::AccessClass::kOffChip);
  uint64_t trace_events = 0, trace_instructions = 0;
  for (const auto& [key, totals] : SkeletonsOf(r)) {
    trace_events += totals.first;
    trace_instructions += totals.second;
  }
  SimTotals sim;
  for (const sweep::CellResult& c : r.cells) sim.Add(c.result);
  return {{"trace.events", trace_events},
          {"trace.instructions", trace_instructions},
          {"sim.events_replayed", sim.events},
          {"sim.instructions", sim.instructions},
          {"sim.elapsed_cycles", sim.cycles},
          {"sim.l2_hits", sim.data[kL2] + sim.instr[kL2]},
          {"sim.offchip", sim.data[kOff] + sim.instr[kOff]},
          {"sim.invalidations", sim.invalidations},
          {"sim.writebacks", sim.writebacks}};
}

/// The timed run. Returns the end-to-end metrics; `exact` receives the
/// last rep's exact counts.
std::vector<Metric> RunTimed(
    Workload& w, const std::string& bundle, double seconds, Checks* checks,
    Counts* exact) {
  Metric wall{"wall_s", "s", {}};
  Metric replay{"events_per_s", "events/s", {}};
  Metric setup{"setup_s", "s", {}};

  Skeletons skeleton_ref;   // reproducible sets of the first setup run
  std::string output_ref;   // timing-free sink bytes of the last setup run
  for (int k = 0; k < kSetupRuns; ++k) {
    std::remove(bundle.c_str());
    const sweep::SweepReport r = RunGrid(w, bundle, checks);
    checks->Expect(r.bundle == "cold", w.name + " setup run built cold");
    setup.samples.push_back(r.wall_seconds);
    if (k == 0) skeleton_ref = SkeletonsOf(r);
    checks->Expect(SkeletonsOf(r) == skeleton_ref,
                   w.name + " setup trace skeletons equal across builds");
    output_ref = SinkJson(r);
  }

  const auto t0 = Clock::now();
  sweep::SweepReport last;
  size_t reps = 0;
  do {
    if (!w.warm) std::remove(bundle.c_str());
    sweep::SweepReport r = RunGrid(w, bundle, checks);
    if (w.warm) {
      checks->Expect(r.bundle == "warm" && r.bundle_mode == "mmap",
                     w.name + " rep served from the mapped bundle");
      checks->Expect(SinkJson(r) == output_ref,
                     w.name + " rep output equals the setup run's");
    } else {
      checks->Expect(r.bundle == "cold", w.name + " rep built cold");
      checks->Expect(SkeletonsOf(r) == skeleton_ref,
                     w.name + " rep trace skeletons equal the setup runs'");
    }
    if (r.wall_seconds > 0.0) {
      wall.samples.push_back(r.wall_seconds);
      replay.samples.push_back(ReplayRate(r));
    }
    last = std::move(r);
    ++reps;
  } while (std::chrono::duration<double>(Clock::now() - t0).count() <
               seconds ||
           reps < kMinReps);
  *exact = ExactCounts(last);
  return {wall, replay, setup};
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

void PrintJson(const Args& a, const Checks& checks,
               const std::vector<Metric>& metrics,
               const Counts& exact) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"build_type\": \"%s\", \"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"metrics\": {",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.traced ? 1 : 0, STAGED_BENCH_BUILD_TYPE,
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const auto [lo, hi] =
        std::minmax_element(m.samples.begin(), m.samples.end());
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"min\": %.17g, \"max\": %.17g, \"n\": %zu, \"samples\": [",
                i ? ", " : "", m.name.c_str(), Median(m.samples),
                m.unit.c_str(), m.samples.empty() ? 0.0 : *lo,
                m.samples.empty() ? 0.0 : *hi, m.samples.size());
    for (size_t k = 0; k < m.samples.size(); ++k) {
      std::printf("%s%.17g", k ? ", " : "", m.samples[k]);
    }
    std::printf("]}");
  }
  std::printf("}, \"exact\": {");
  for (size_t i = 0; i < exact.size(); ++i) {
    std::printf("%s\"%s\": %llu", i ? ", " : "", exact[i].first.c_str(),
                static_cast<unsigned long long>(exact[i].second));
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace stagedcmp::bench

int main(int argc, char** argv) {
  using namespace stagedcmp::bench;
  Args a;
  Workload w;
  if (!ParseArgs(argc, argv, &a) || !MakeWorkload(a.workload, a.seed, &w)) {
    std::fprintf(stderr,
                 "usage: staged_bench --workload NAME [--seed S] "
                 "[--seconds T] [--trace 0|1] [--bundle-dir DIR] "
                 "[--trace-out FILE]\nworkloads:");
    for (const std::string& n : WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::string bundle = a.bundle_dir + "/" + w.name + "-s" +
                             std::to_string(a.seed) + "-" +
                             std::to_string(getpid()) + ".bundle";
  Checks checks;
  std::vector<Metric> metrics;
  Counts exact;
  if (a.traced) {
    metrics = RunTraced(w, bundle, a.trace_out, &checks, &exact);
  } else {
    metrics = RunTimed(w, bundle, a.seconds, &checks, &exact);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics.push_back(
        {"peak_rss_mb", "MB", {static_cast<double>(ru.ru_maxrss) / 1024.0}});
  }
  std::remove(bundle.c_str());
  PrintJson(a, checks, metrics, exact);
  return checks.failed == 0 ? 0 : 1;
}
