// Parallel sweep execution. A SweepRunner expands a SweepSpec and runs
// its cells as a build/sim pipeline: cold trace sets build on builder
// threads — one task per client-count family (configs that differ only in
// `clients`), which builds the family's largest member inside an
// isolated WorkloadWorld (see harness/world.h) and serves the smaller
// members as zero-copy prefix slices of it (sweep::PrefixSlice) —
// while sim workers pull cells off a shared atomic counter (idle
// workers "steal" the next unclaimed cell, so load imbalance between
// cheap and expensive cells self-corrects) — a cell simulates as soon
// as its own trace set is published, regardless of how many other sets
// are still building. With a bundle to write, one builder takes the
// families in the bundle's order (family order), and each streams every
// trace into the file as its world records it and publishes views of the
// written bytes, so a cold build holds one client's trace beside its
// world, not the family's, at any thread count.
//
// Determinism: a report — grid, labels, configs, trace-set totals and
// every simulated metric — is identical byte for byte for any thread
// count, cold or warm, sharded or not, in any process (every committed
// golden is held to it by tests/test_goldens.cc). Two properties make
// that true:
//   1. Each trace set is a pure function of its config (isolated world:
//      fresh databases, canonical code-region layout, data addresses
//      recorded relative to the world's address space; a slice equals the
//      standalone build of its config word for word), so neither build
//      order nor build overlap changes a set's events.
//   2. Each worker writes its cell's result into a slot preallocated at
//      the cell's canonical index, so output order never depends on
//      completion order.
#ifndef STAGEDCMP_SWEEP_RUNNER_H_
#define STAGEDCMP_SWEEP_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace_span.h"
#include "coresim/cmp.h"
#include "harness/experiment.h"
#include "sweep/spec.h"

namespace stagedcmp::sweep {

struct RunnerOptions {
  /// Worker threads for the simulation phase, and the cap on the builder
  /// threads (min(threads, build tasks) of them claim the tasks off an
  /// atomic counter — one task per client-count family, or per mapped
  /// set on a warm run; a cold run that writes a bundle has one builder);
  /// 0 = hardware concurrency.
  uint32_t threads = 0;
  /// Optional trace-bundle file (see trace_bundle.h). When set, the run
  /// serves its trace sets from this file if it matches the sweep's
  /// canonical build sequence (warm: no generation at all); a cold run
  /// streams every set into a fresh bundle as it is built, trace by
  /// trace as its world records them, replays views of the file being
  /// written (sweep.sets_streamed) and renames it into place at the end.
  /// Its one builder takes the families in the sequence's order, which
  /// groups each family's configs, so a cold run's build memory is one
  /// world plus one client's trace at any thread count. A failed write
  /// gives the bundle up: that family and every later one build in
  /// memory, and the results do not change. A warm run maps the file and
  /// replays events in place (payload checksums verified lazily on the
  /// builder threads, verified pages dropped again). A map failure or a
  /// header/geometry mismatch rebuilds cold; a set failing its lazy
  /// payload check rebuilds alone and the run reports "partial". Empty =
  /// no persistence.
  std::string trace_bundle;
  /// Shard selection: when shard_count > 1, the runner expands the FULL
  /// spec (so canonical indices and the bundle's build sequence are
  /// unchanged) but simulates only cells with
  /// index % shard_count == shard_index, and builds/loads only the trace
  /// sets those cells need. Unassigned CellResult slots stay
  /// default-constructed; sharded runs never write the bundle. 0 or 1 =
  /// unsharded.
  uint32_t shard_index = 0;
  uint32_t shard_count = 0;
  /// Optional observability sinks (docs/OBSERVABILITY.md). `metrics`
  /// collects the pipeline's `sweep.*` counters/histograms and the
  /// replay engine's `replay.*` family; it is cumulative — a registry
  /// shared across Run() calls keeps counting.
  /// `trace` records the pipeline's span timeline (sweep/build/cell/io
  /// categories). Both null by default: instrumentation is off and the
  /// runner behaves exactly as before.
  MetricsRegistry* metrics = nullptr;
  TraceCollector* trace = nullptr;
};

/// One executed cell: the cell itself plus everything measured.
struct CellResult {
  Cell cell;
  coresim::SimResult result;
  /// Totals of the cell's (shared) trace set.
  uint64_t trace_total_instructions = 0;
  uint64_t trace_total_events = 0;
  double sim_wall_seconds = 0.0;  ///< this cell's simulation wall-clock
};

/// A completed sweep, in canonical cell order.
struct SweepReport {
  std::string spec_name;
  std::vector<std::string> axis_names;
  Baseline baseline;               ///< the spec's baseline, for the table
  uint32_t threads = 1;            ///< sim workers actually used
  double load_wall_seconds = 0.0;  ///< trace-bundle probe/load (serial)
  double build_wall_seconds = 0.0; ///< builds + streamed bundle appends
  double sim_wall_seconds = 0.0;   ///< builder+worker pipeline wall-clock
  double wall_seconds = 0.0;       ///< end-to-end Run() wall-clock
  /// Distinct TraceSetConfigs produced cold: built, or sliced from their
  /// family's build (this run's `sweep.sets_built + sweep.sets_sliced`).
  uint64_t trace_sets_built = 0;
  /// Trace-bundle disposition: "off" (no bundle configured), "cold"
  /// (built fresh, bundle written), "warm" (all sets served from disk),
  /// "partial" (mapped sets served but at least one failed its lazy
  /// payload verification and was rebuilt cold; the bundle is rewritten).
  std::string bundle = "off";
  /// Transport that served the bundle: "off", "cold" (nothing served),
  /// "mmap" (zero-copy views into the mapping, lazily verified).
  std::string bundle_mode = "off";
  /// Echo of RunnerOptions shard selection (0/0 when unsharded).
  uint32_t shard_index = 0;
  uint32_t shard_count = 0;
  std::vector<CellResult> cells;
  /// Registry state at the end of Run(), when RunnerOptions::metrics was
  /// set (cumulative if the registry is shared across runs). Sinks use
  /// it for the set-lifetime footer; empty when off.
  MetricsSnapshot metrics;
  bool has_metrics = false;

  double cells_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(cells.size()) / wall_seconds
               : 0.0;
  }
  /// Total events the replay cores consumed across all cells.
  uint64_t events_replayed() const {
    uint64_t n = 0;
    for (const CellResult& c : cells) n += c.result.events_replayed;
    return n;
  }
  /// Replay throughput: events over the sim-pipeline phase (not the
  /// end-to-end wall, which also contains bundle load and — on cold
  /// runs — dominates with trace generation).
  double events_per_second() const {
    return sim_wall_seconds > 0.0
               ? static_cast<double>(events_replayed()) / sim_wall_seconds
               : 0.0;
  }
};

/// Human-readable trace-set identity for span names (`build:<label>`):
/// the workload, then a tagged value per present row of the
/// TraceSetConfig field table, so configs that differ in any knob get
/// distinct labels. Canonical (built from the config only), so
/// deterministic traces stay byte-stable; a default config reads like
/// "OLTP/c2/r4/s5/e0".
std::string ConfigLabel(const harness::TraceSetConfig& c);

class SweepRunner {
 public:
  /// Each Run() owns the trace sets it builds, slices or maps; none
  /// outlives it.
  explicit SweepRunner(harness::WorkloadFactory* factory,
                       RunnerOptions options = {})
      : factory_(factory), options_(options) {}

  /// Expands and executes the spec. Exceptions thrown by a worker are
  /// rethrown on the calling thread after all workers join.
  SweepReport Run(const SweepSpec& spec);

 private:
  harness::WorkloadFactory* factory_;
  RunnerOptions options_;
};

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_RUNNER_H_
