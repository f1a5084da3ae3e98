// Shared pieces of staged_bench: the four workloads (sweep grids run
// through the public SweepRunner API), output checks, and the metric
// record both the timed and the traced run report.
#ifndef STAGEDCMP_BENCHMARK_BENCH_H_
#define STAGEDCMP_BENCHMARK_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

namespace stagedcmp::bench {

struct Workload {
  std::string name;
  /// Warm workloads replay a bundle written once by a cold setup run;
  /// cold ones build every trace set from scratch on every rep.
  bool warm = true;
  sweep::SweepSpec spec;
  harness::WorkloadFactory factory;
};

const std::vector<std::string>& WorkloadNames();

/// The workload called `name`, every TraceSetConfig.seed set to `seed`.
/// False for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// The grid's distinct trace-set configs in the runner's canonical
/// first-use order (the order a bundle stores them in); `cfg_of[i]` is
/// the config index of cell i.
std::vector<harness::TraceSetConfig> DistinctConfigs(
    const std::vector<sweep::Cell>& cells, std::vector<size_t>* cfg_of);

/// Output checks. Every cell run and every comparison counts as one
/// attempt; failures are printed to stderr as they happen.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Expect(bool ok, const std::string& what);
};

/// One reported metric: its value is the median of `samples`.
struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
};

/// Named exact counts (trace skeletons, simulated counters), reported
/// next to the metrics for compare.py.
using Counts = std::vector<std::pair<std::string, uint64_t>>;

/// Simulated totals over a grid's cells.
struct SimTotals {
  static constexpr int kClasses = static_cast<int>(memsim::AccessClass::kCount);

  uint64_t events = 0;
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  double attributed_cycles = 0.0;
  uint64_t data[kClasses] = {};   ///< data accesses per AccessClass
  uint64_t instr[kClasses] = {};  ///< instruction fetches per AccessClass
  uint64_t invalidations = 0;
  uint64_t writebacks = 0;
  uint64_t l1_to_l1 = 0;
  uint64_t bus_transactions = 0;
  uint64_t bus_busy_cycles = 0;
  uint64_t queue_count = 0;
  uint64_t queue_sum = 0;

  void Add(const coresim::SimResult& r);
};

/// One SweepRunner::Run of the workload's grid with one sim worker and a
/// one-thread build pool, against `bundle`. Counts each cell as an
/// attempt, failed when the run threw or the cell replayed nothing.
sweep::SweepReport RunGrid(Workload& w, const std::string& bundle,
                           Checks* checks);

/// Timing-free JSON sink bytes of `report`: grid, configs, trace
/// skeletons and every simulated metric.
std::string SinkJson(const sweep::SweepReport& report);

/// The traced run: splits host time across the repository's modules by
/// timing calls into their public functions (layers.cc). Spans go to
/// `trace_out` as Chrome JSON when it is non-empty. `exact` receives the
/// simulated counters that are zero on some machines (coherence, bus).
std::vector<Metric> RunTraced(Workload& w, const std::string& bundle,
                              const std::string& trace_out, Checks* checks,
                              Counts* exact);

}  // namespace stagedcmp::bench

#endif  // STAGEDCMP_BENCHMARK_BENCH_H_
