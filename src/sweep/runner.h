// Parallel sweep execution. A SweepRunner expands a SweepSpec and runs
// its cells as a build/sim pipeline: cold trace sets build on builder
// threads — one task per client-count family (configs that differ only in
// `clients`), which builds the family's largest member inside an
// isolated WorkloadWorld (see harness/world.h) and serves the smaller
// members as zero-copy prefix slices of it (sweep/trace_cache.h) —
// while sim workers pull cells off a shared atomic counter (idle
// workers "steal" the next unclaimed cell, so load imbalance between
// cheap and expensive cells self-corrects) — a cell simulates as soon
// as its own trace set is published, regardless of how many other sets
// are still building.
//
// Determinism: golden output — grid, labels, configs, trace skeleton
// totals — is identical byte for byte for any thread count (every
// committed golden is held to it, cold, warm and sharded, by
// tests/test_goldens.cc). Three properties make that true:
//   1. Each trace set is a pure function of its config (isolated world:
//      fresh databases, private code-region map; a slice equals the
//      standalone build of its config in everything but data addresses),
//      so neither build order nor build overlap changes a set's
//      skeleton.
//   2. Each worker writes its cell's result into a slot preallocated at
//      the cell's canonical index, so output order never depends on
//      completion order.
//   3. Cells of the same config share one TraceSet instance, so their
//      simulated metrics replay the same bytes.
// Full simulated metrics additionally track heap placement (traces embed
// real data addresses), so they are byte-stable only when the same trace
// bytes are replayed — across thread counts that holds within one
// process (warm cache or bundle), not across separate cold processes;
// see sinks.h.
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

class TraceSetCache;

struct RunnerOptions {
  /// Worker threads for the simulation phase, and the cap on the builder
  /// threads (min(threads, build tasks) of them claim the tasks off an
  /// atomic counter — one task per client-count family, or per mapped
  /// set on a warm run); 0 = hardware concurrency.
  uint32_t threads = 0;
  /// Optional trace-bundle file (see trace_bundle.h). When set, the run
  /// serves its trace sets from this file if it matches the sweep's
  /// canonical build sequence (warm: no generation at all); a cold run
  /// streams each set into a fresh bundle as it is built and renames it
  /// into place at the end. A warm run maps the file and replays events
  /// in place (payload checksums verified lazily on the builder threads,
  /// verified pages dropped again). A map failure or a header/geometry
  /// mismatch rebuilds cold; a set failing its lazy payload check
  /// rebuilds alone and the run reports "partial". Empty = no
  /// persistence.
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
  /// collects `sweep.*` counters/histograms plus the trace cache's
  /// `trace_cache.*` and the replay engine's `replay.*` families; it is
  /// cumulative — a registry shared across Run() calls keeps counting.
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
  /// Skeleton totals of the cell's (shared) trace set. Unlike the
  /// simulated metrics these are independent of heap placement, so they
  /// are stable across processes and belong in checked-in goldens.
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
  /// family's build (TraceSetCache::Stats builds + slices).
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
  /// it for the cache health footer; empty when off.
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

class SweepRunner {
 public:
  /// `shared_cache` (optional) lets several sweeps — or a sweep and
  /// direct RunExperiment calls — replay the *same* TraceSet instances.
  /// That is what makes results bit-comparable: traces embed heap
  /// addresses, so only same-instance replays are bit-deterministic
  /// (see tests/test_determinism.cc). The runner never frees sets in a
  /// shared cache. With no shared cache it uses a private one per Run
  /// call and frees each owned set once its last cell has replayed and
  /// the bundle writer is past it.
  explicit SweepRunner(harness::WorkloadFactory* factory,
                       RunnerOptions options = {},
                       TraceSetCache* shared_cache = nullptr)
      : factory_(factory), options_(options), shared_cache_(shared_cache) {}

  /// Expands and executes the spec. Exceptions thrown by a worker are
  /// rethrown on the calling thread after all workers join.
  SweepReport Run(const SweepSpec& spec);

 private:
  harness::WorkloadFactory* factory_;
  RunnerOptions options_;
  TraceSetCache* shared_cache_;
};

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_RUNNER_H_
