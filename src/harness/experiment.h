// Experiment harness: builds workload trace sets once, then replays them on
// arbitrary CMP/SMP configurations. One RunExperiment call corresponds to
// one bar/point of a paper figure.
#ifndef STAGEDCMP_HARNESS_EXPERIMENT_H_
#define STAGEDCMP_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coresim/cmp.h"
#include "memsim/hierarchy.h"
#include "trace/events.h"
#include "workload/database.h"
#include "workload/tpcc.h"
#include "workload/tpch.h"
#include "workload/traffic.h"
#include "workload/ycsb.h"

namespace stagedcmp::harness {

enum class WorkloadKind : uint8_t { kOltp, kDss, kYcsb };
enum class LatencyMode : uint8_t { kRealistic, kFixed4 };
enum class Topology : uint8_t { kCmpShared, kSmpPrivate };

/// Engine execution model used when generating DSS traces.
enum class EngineMode : uint8_t { kVolcano, kStagedCohort, kStagedTuple };

/// Spec-facing names of the config enums (CampName lives in coresim).
const char* WorkloadName(WorkloadKind w);
const char* EngineModeName(EngineMode e);
const char* LatencyModeName(LatencyMode m);
const char* TopologyName(Topology t);

struct TraceSetConfig {
  WorkloadKind workload = WorkloadKind::kOltp;
  uint32_t clients = 16;
  uint32_t requests_per_client = 4;  ///< txns (OLTP) or ops batches/queries
  uint64_t seed = 1;
  EngineMode engine = EngineMode::kVolcano;
  /// Traffic shaping (key popularity + arrival shape), applied to every
  /// client of every tenant. Defaults are byte-neutral: an unshaped
  /// config records exactly the historical trace bytes.
  workload::TrafficConfig traffic;
  /// Multi-tenant cells: when tenant2_clients > 0, an additional
  /// tenant2_clients clients of `tenant2_workload` (same
  /// requests_per_client/engine/traffic knobs) are appended to the set,
  /// recorded against a *separate* database instance, and the built
  /// TraceSet carries the attribution boundary for the replay engine.
  WorkloadKind tenant2_workload = WorkloadKind::kOltp;
  uint32_t tenant2_clients = 0;
};

/// Clients of either tenant in a set built from `c` — one trace each, so
/// a set's trace count (and a bundle's header geometry) follows from
/// its config alone.
inline uint32_t TotalClients(const TraceSetConfig& c) {
  return c.clients + c.tenant2_clients;
}

/// TraceSet::tenant_a_clients of a set built from `c`: 0 for
/// single-tenant sets, else the tenant-A client count.
inline uint32_t TenantAClients(const TraceSetConfig& c) {
  return c.tenant2_clients > 0 ? c.clients : 0;
}

/// A set of per-client traces plus the database they were recorded against.
struct TraceSet {
  TraceSetConfig config;
  std::vector<trace::ClientTrace> traces;
  uint64_t total_instructions = 0;
  uint64_t total_events = 0;
  /// Multi-tenant boundary: 0 for single-tenant sets; else traces
  /// [0, tenant_a_clients) belong to tenant A and the rest to tenant B.
  uint32_t tenant_a_clients = 0;
  /// Keep-alive for externally owned event storage. A trace set served
  /// from a mapped bundle stores view-based ClientTraces whose bytes live
  /// in the mapping; `backing` pins that mapping (type-erased so the
  /// harness layer stays independent of the sweep's bundle machinery).
  /// Only sweep::OpenTraceBundle (warm) and sweep::BundleWriter::
  /// ViewStreamed (a cold set streamed into the bundle being written) set
  /// it, always to a MappedBundle, which sweep::VerifyBundleSet relies
  /// on. Destroying the last TraceSet sharing a mapping unmaps it. Empty
  /// for sets that own their events.
  std::shared_ptr<void> backing;
  /// Keep-alive for a prefix slice (sweep::PrefixSlice): its
  /// ClientTraces are views into the first TotalClients(config) traces
  /// of `leader`, a larger set of the same client-count family, which
  /// this pins. Empty for every set that owns or maps its events.
  std::shared_ptr<const TraceSet> leader;

  /// Per-client trace pointers in client order.
  std::vector<const trace::ClientTrace*> Pointers() const {
    std::vector<const trace::ClientTrace*> out;
    out.reserve(traces.size());
    for (const auto& t : traces) out.push_back(&t);
    return out;
  }
};

/// Receives each client's trace of a build as soon as it is recorded, in
/// client order (tenant B's clients after tenant A's). The sink copies
/// the payload out (the sweep streams it into a bundle file); once it
/// returns, the build drops its own share of the bytes, so the tracer
/// records the next client into the same storage. The set a build with a
/// sink returns therefore holds hollow traces: sizes, totals and
/// requests, but a null payload() until the caller points each one at
/// the copy (ClientTrace::SetView) — replaying a hollow trace is an error.
using TraceSink = std::function<void(const trace::ClientTrace&)>;

/// Generates trace sets on demand. Each Build() call runs inside a fresh,
/// isolated WorkloadWorld (see harness/world.h): its own freshly loaded
/// databases and the canonical code-region layout, so a built trace set
/// is a pure function of (config, scale knobs) — never of prior Build
/// calls.
///
/// Prefix property: in a single-tenant set, client c's trace depends on
/// c alone — its seed derives from c, and the clients before it mutated
/// the database in the same order whatever the set's client count. So
/// the first N traces of Build(config with M >= N clients) equal
/// Build(config with N clients) word for word: the blocks client c
/// touches sit at the same offsets of the world's address space. The
/// sweep builds each client-count family once on that basis
/// (sweep::PrefixSlice); tests pin it
/// (tests/test_world_isolation.cc). Two-tenant sets lack it: tenant B's
/// seeds shift with `clients`.
///
/// Thread-safety contract:
///   * Build() is safe to call concurrently from any number of threads;
///     concurrent builds run in disjoint worlds and share nothing but
///     this factory's (const during building) scale knobs. The sweep
///     runner exploits this to build distinct configs in parallel.
///   * A fully-built TraceSet is immutable and safe to share across any
///     number of concurrently-running simulations.
class WorkloadFactory {
 public:
  WorkloadFactory() = default;

  /// Overridable scale knobs (defaults match DESIGN.md geometry). Set
  /// them before the first Build; they must not change while builds run.
  workload::TpccConfig tpcc_config;
  workload::TpchConfig tpch_config;
  workload::YcsbConfig ycsb_config;

  /// Observability hook: when set, every Build folds its shaper/YCSB
  /// counters into this registry (traffic.*, ycsb.*), and the accesses
  /// it recorded outside its world's address space into
  /// trace.unmapped_addresses (0 for every builtin workload). Counting
  /// only — recorded trace bytes are identical either way. A sweep
  /// records each client-count family once, so these count that one
  /// recording.
  MetricsRegistry* metrics = nullptr;

  /// With a `sink`, every trace goes to it as it is recorded and the set
  /// comes back hollow (see TraceSink); without one, the set owns its
  /// traces.
  TraceSet Build(const TraceSetConfig& config,
                 const TraceSink& sink = nullptr) const;
};

struct ExperimentConfig {
  coresim::Camp camp = coresim::Camp::kFat;
  uint32_t cores = 4;
  uint64_t l2_bytes = 26ull << 20;
  LatencyMode latency = LatencyMode::kRealistic;
  Topology topology = Topology::kCmpShared;
  bool saturated = true;          ///< loop traces to steady state
  uint64_t measure_instructions = 12'000'000;
  uint64_t warmup_instructions = 3'000'000;
  bool stream_buffers = true;
  uint32_t l2_ports = 0;          ///< 0 = auto (scale with banks)
  uint32_t memory_latency = 400;
  /// SMP topology only: charge every coherence transaction (remote
  /// fetch, upgrade invalidation round, writeback) against the shared
  /// bus's occupancy clock, making queue_delay the real wait behind
  /// earlier transactions — the coherence-limited scaling knee. False
  /// keeps the historical flat-latency timing, byte-for-byte: the pinned
  /// reference arm.
  bool smp_bus_model = false;
};

/// Resolved hardware view (for reporting).
struct ResolvedHardware {
  uint32_t l2_hit_cycles = 0;
  uint32_t cores = 0;
  uint32_t contexts_per_core = 0;
};

/// The hardware `config` resolves to (cacti L2 latency, core contexts) —
/// a pure function of the config, so reports can re-derive it.
ResolvedHardware ResolveHardware(const ExperimentConfig& config);

/// Runs one configuration over a trace set: the hierarchy from
/// MakeHierarchyConfig, replayed under MakeSimConfig. When `metrics` is
/// non-null the replay engine folds the run's counters into it under
/// `replay.*` (see SimConfig::metrics); results are identical either way.
coresim::SimResult RunExperiment(const ExperimentConfig& config,
                                 const TraceSet& traces,
                                 MetricsRegistry* metrics = nullptr);

/// The configs RunExperiment builds, for callers that replay a cell over
/// a hierarchy of their own (tests, the coherence reference arm).
memsim::HierarchyConfig MakeHierarchyConfig(const ExperimentConfig& config);
coresim::CoreParams MakeCoreParams(coresim::Camp camp);
coresim::SimConfig MakeSimConfig(const ExperimentConfig& config,
                                 const TraceSet& traces);

}  // namespace stagedcmp::harness

#endif  // STAGEDCMP_HARNESS_EXPERIMENT_H_
