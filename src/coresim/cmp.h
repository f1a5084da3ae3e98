// Chip-multiprocessor discrete-event timing simulator.
//
// Replays per-client instruction/memory traces on a configurable CMP:
//   * Fat camp (FC): wide out-of-order cores, one context each. Misses are
//     partially hidden (pipeline/ROB overlap); independent clustered misses
//     additionally overlap with MLP; dependent (pointer-chase) misses are
//     fully exposed beyond the pipeline-hide window.
//   * Lean camp (LC): narrow in-order cores with several hardware contexts
//     issued round-robin; a context blocks on any miss and the core runs
//     the remaining runnable contexts. Core cycles with no runnable context
//     are the camp's exposed stalls.
//
// Every elapsed core cycle is attributed to exactly one breakdown bucket,
// which is how the paper's execution-time breakdown figures are built.
#ifndef STAGEDCMP_CORESIM_CMP_H_
#define STAGEDCMP_CORESIM_CMP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/status.h"
#include "coresim/breakdown.h"
#include "memsim/hierarchy.h"
#include "trace/events.h"

namespace stagedcmp::coresim {

enum class Camp : uint8_t { kFat, kLean };

const char* CampName(Camp c);

/// Core microarchitecture parameters (Table 1 of the paper).
struct CoreParams {
  Camp camp = Camp::kFat;
  uint32_t issue_width = 4;     ///< FC: wide (4+); LC: narrow (2)
  uint32_t contexts = 1;        ///< FC: 1; LC: 4+
  double compute_ipc = 1.6;     ///< ILP-limited per-context computation IPC
  uint32_t pipeline_hide = 10;  ///< cycles of miss latency hidden by OoO/
                                ///< pipelining per isolated miss
  uint32_t dep_hide = 4;        ///< hide for *dependent* misses: a load at
                                ///< the head of a pointer chase has little
                                ///< independent work behind it
  double mt_efficiency = 1.0;   ///< issue-rate factor when several contexts
                                ///< share the pipe (thread-switch bubbles,
                                ///< LC camp < 1)
  uint32_t ifetch_hide = 4;     ///< fetch-queue slack hiding I-miss latency
  uint32_t rob_window = 256;    ///< instr distance within which independent
                                ///< misses overlap (FC)
  double mlp = 4.0;             ///< overlap factor for clustered independent
                                ///< misses (FC memory-level parallelism)
  double branch_mpki = 6.0;     ///< mispredictions per kilo-instruction
  uint32_t branch_penalty = 14; ///< pipeline refill cycles (deep FC pipe)
  uint32_t instr_bytes = 4;     ///< fixed-width ISA (UltraSPARC-like)

  /// Canonical fat-camp core (4-wide OoO, deep pipe, 1 context).
  static CoreParams Fat();
  /// Canonical lean-camp core (2-wide in-order, shallow pipe, 4 contexts).
  static CoreParams Lean();
};

struct SimConfig {
  CoreParams core;
  uint32_t num_cores = 4;
  /// Stop after this many aggregate committed instructions (0 = run until
  /// all non-looping traces complete).
  uint64_t max_instructions = 0;
  /// Loop client traces to reach steady state (saturated runs).
  bool loop_traces = false;
  /// Instructions executed before counters reset (cache warmup).
  uint64_t warmup_instructions = 0;
  /// Observability hook: when set, the replay engine records its run
  /// counters (events replayed, per-hierarchy access classes) into this
  /// registry under `replay.*` once at the END of Run() — never per
  /// event, so the hot loop is untouched and the hook is zero-cost when
  /// off. Never changes SimResult.
  MetricsRegistry* metrics = nullptr;
  /// Multi-tenant attribution boundary: when > 0, clients
  /// [0, tenant_a_clients) belong to tenant 0 and the rest to tenant 1,
  /// and SimResult::tenants is populated. Attribution is pure counting —
  /// it never changes timing, so shared aggregate results stay
  /// bit-identical to a run without the boundary.
  uint32_t tenant_a_clients = 0;
};

/// Per-tenant share of a multi-tenant run (SimConfig::tenant_a_clients).
struct TenantStats {
  uint64_t instructions = 0;
  uint64_t requests = 0;
  uint64_t data_count[static_cast<int>(memsim::AccessClass::kCount)] = {};
  uint64_t instr_count[static_cast<int>(memsim::AccessClass::kCount)] = {};

  uint64_t data_accesses() const {
    uint64_t sum = 0;
    for (uint64_t c : data_count) sum += c;
    return sum;
  }
  /// Fraction of this tenant's data accesses resolved past the L2
  /// (off-chip or via coherence) — the interference-facing miss rate:
  /// co-running a neighbor can only push it up.
  double data_offchip_rate() const {
    const uint64_t total = data_accesses();
    const uint64_t past =
        data_count[static_cast<int>(memsim::AccessClass::kOffChip)] +
        data_count[static_cast<int>(memsim::AccessClass::kCoherence)];
    return total ? static_cast<double>(past) / static_cast<double>(total)
                 : 0.0;
  }
};

struct SimResult {
  uint64_t instructions = 0;
  uint64_t elapsed_cycles = 0;   ///< wall-clock of the chip (max core time)
  CycleBreakdown breakdown;      ///< summed over cores
  uint64_t requests_completed = 0;
  double avg_response_cycles = 0.0;
  /// Trace events consumed over the whole run, warmup included — the
  /// simulator's unit of work for native-throughput (events/sec) reporting.
  uint64_t events_replayed = 0;
  double l1d_hit_rate = 0.0;
  double l1i_hit_rate = 0.0;
  double l2_hit_rate = 0.0;
  memsim::HierarchyStats mem;    ///< access-class counters snapshot
  /// Multi-tenant attribution (see SimConfig::tenant_a_clients):
  /// num_tenants is 0 for single-tenant runs, else 2 and tenants[0..1]
  /// hold each tenant's measured share.
  uint32_t num_tenants = 0;
  TenantStats tenants[2];

  /// Aggregate user-IPC: committed instructions / elapsed cycles — the
  /// paper's throughput metric (proportional to system throughput).
  double uipc() const {
    return elapsed_cycles
               ? static_cast<double>(instructions) /
                     static_cast<double>(elapsed_cycles)
               : 0.0;
  }
  /// Per-instruction cycles based on *attributed* core cycles, the basis
  /// of the paper's CPI breakdown figures.
  double cpi() const {
    return instructions ? breakdown.total() / static_cast<double>(instructions)
                        : 0.0;
  }
  double CpiComponent(Bucket b) const {
    return instructions
               ? breakdown.Get(b) / static_cast<double>(instructions)
               : 0.0;
  }
};

/// SimConfig::metrics implementation: folds one finished run's counters
/// into `registry` (names cataloged in docs/OBSERVABILITY.md). Called by
/// the replay engine after Run(); callers replaying outside the engine
/// may invoke it directly.
inline void RecordReplayMetrics(MetricsRegistry* registry,
                                const SimResult& r) {
  using memsim::AccessClass;
  auto data = [&r](AccessClass c) {
    return r.mem.data_count[static_cast<int>(c)];
  };
  auto instr = [&r](AccessClass c) {
    return r.mem.instr_count[static_cast<int>(c)];
  };
  registry->counter("replay.runs").Add(1);
  registry->counter("replay.events_replayed").Add(r.events_replayed);
  registry->counter("replay.instructions").Add(r.instructions);
  registry->counter("replay.data_l1_hits").Add(data(AccessClass::kL1Hit));
  registry->counter("replay.data_l2_hits").Add(data(AccessClass::kL2Hit));
  registry->counter("replay.data_offchip").Add(data(AccessClass::kOffChip));
  registry->counter("replay.data_coherence")
      .Add(data(AccessClass::kCoherence));
  registry->counter("replay.instr_l1_hits").Add(instr(AccessClass::kL1Hit));
  registry->counter("replay.instr_l2_hits").Add(instr(AccessClass::kL2Hit));
  registry->counter("replay.instr_offchip")
      .Add(instr(AccessClass::kOffChip) + instr(AccessClass::kCoherence));
  registry->counter("replay.l1_to_l1_transfers")
      .Add(r.mem.l1_to_l1_transfers);
  registry->counter("replay.invalidations").Add(r.mem.invalidations);
  registry->counter("replay.writebacks").Add(r.mem.writebacks);
  // SMP shared-bus occupancy model (zero for CMP runs and for the
  // flat-latency reference arm). The gauge keeps the worst
  // single-transaction bus wait seen by any run via its peak mark.
  registry->counter("bus.transactions").Add(r.mem.bus_transactions);
  registry->counter("bus.busy_cycles").Add(r.mem.bus_busy_cycles);
  registry->gauge("bus.peak_queue_delay")
      .Set(static_cast<int64_t>(r.mem.bus_peak_queue));
  for (uint32_t t = 0; t < r.num_tenants; ++t) {
    const TenantStats& ts = r.tenants[t];
    const std::string prefix = "replay.tenant" + std::to_string(t);
    registry->counter(prefix + ".instructions").Add(ts.instructions);
    registry->counter(prefix + ".requests").Add(ts.requests);
    registry->counter(prefix + ".data_accesses").Add(ts.data_accesses());
    registry->counter(prefix + ".data_offchip")
        .Add(ts.data_count[static_cast<int>(AccessClass::kOffChip)] +
             ts.data_count[static_cast<int>(AccessClass::kCoherence)]);
  }
}

/// Runs a set of client traces on a CMP over the given hierarchy.
/// Clients are assigned to hardware contexts round-robin; a context with
/// several clients alternates between them (multiprogramming).
///
/// Thin facade over the templated replay core (coresim/replay_core.h):
/// Run() instantiates the engine for the hierarchy's concrete type — so
/// the per-event dispatch devirtualizes and inlines — and falls back to
/// the generic virtual-dispatch engine for hierarchy implementations the
/// facade does not know about.
class CmpSimulator {
 public:
  CmpSimulator(const SimConfig& config, memsim::MemoryHierarchy* hierarchy,
               std::vector<const trace::ClientTrace*> clients);

  /// Simulates and returns aggregate metrics. Call once.
  SimResult Run();

 private:
  SimConfig config_;
  memsim::MemoryHierarchy* hierarchy_;
  std::vector<const trace::ClientTrace*> clients_;
};

}  // namespace stagedcmp::coresim

#endif  // STAGEDCMP_CORESIM_CMP_H_
