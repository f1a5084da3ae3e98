// An isolated workload "world": one set of freshly loaded databases and
// the trace-generation loop that records against them. Worlds share
// nothing, so any number of trace sets can build concurrently — the
// property the sweep's parallel cold build rests on — and every build is
// a pure function of (config, scale knobs): no once-guarded shared
// databases whose state earlier builds advance, and one fixed code-region
// layout (trace::RegionSet) whatever the build order.
//
// Clients record one after another, in index order, against the world's
// databases, and client c's seed derives from c alone. So a world that
// records M clients has recorded, as its first N traces, exactly what a
// world recording N clients would, word for word. The sweep
// therefore runs one world per client-count family rather than one per
// distinct config, and serves the family's smaller members as prefix
// slices of the largest (sweep::PrefixSlice).
//
// Address space. Every arena a world's build allocates from (its
// databases', its drivers' per-query scratch) carves its blocks from the
// world's one AddressSpace (common/pages.h), in allocation order, and the
// tracer records each data address as its offset in that space. Clients
// record in index order, so the blocks a client's trace touches sit at
// the same offsets whatever the world's client count, process, allocator
// or sanitizer. A build folds the accesses recorded outside the space
// into `trace.unmapped_addresses` (0 for every builtin workload). The
// space is sized for the largest world a builtin spec builds; a world
// that outgrows it throws std::bad_alloc. A dead world unmaps it whole.
// Every world's offsets start at the same recorded base, so traces of two
// worlds must never be replayed on one machine: their data would alias.
// Put both workloads in one world instead, as a two-tenant config.
//
// Multi-tenant builds load a second, fully separate database instance for
// tenant B (even when both tenants run the same workload kind), so the
// only sharing between tenants is the simulated hierarchy they later
// contend on.
#ifndef STAGEDCMP_HARNESS_WORLD_H_
#define STAGEDCMP_HARNESS_WORLD_H_

#include <memory>

#include "common/pages.h"
#include "harness/experiment.h"
#include "trace/cost_model.h"
#include "trace/tracer.h"

namespace stagedcmp::harness {

class WorkloadWorld {
 public:
  WorkloadWorld(const workload::TpccConfig& tpcc,
                const workload::TpchConfig& tpch,
                const workload::YcsbConfig& ycsb = {},
                MetricsRegistry* metrics = nullptr)
      : tpcc_config_(tpcc),
        tpch_config_(tpch),
        ycsb_config_(ycsb),
        metrics_(metrics) {}

  WorkloadWorld(const WorkloadWorld&) = delete;
  WorkloadWorld& operator=(const WorkloadWorld&) = delete;

  /// Generates one trace set against this world's databases, recording
  /// through this world's code regions. With a `sink`, each client's
  /// trace goes to it as soon as it is recorded and the set comes back
  /// hollow (see TraceSink): the world then holds one client's trace at
  /// a time instead of the whole set. Not internally synchronized — one
  /// world serves one build at a time; run concurrent builds in separate
  /// worlds.
  TraceSet Build(const TraceSetConfig& config,
                 const TraceSink& sink = nullptr);

  /// This world's code-region geometry: the canonical RegionSet, so PCs
  /// in recorded traces do not depend on which world recorded them.
  const trace::RegionSet& regions() const { return regions_; }

  /// Lazily loaded, world-private databases (exposed for tests and
  /// inspection; Build() loads only the sides it needs). Tenant-A view;
  /// tenant B's instances are private to Build.
  workload::Database* oltp_db() { return DbFor(WorkloadKind::kOltp, false); }
  workload::Database* dss_db() { return DbFor(WorkloadKind::kDss, false); }
  workload::Database* ycsb_db() { return DbFor(WorkloadKind::kYcsb, false); }

 private:
  /// The lazily loaded database for (workload kind, tenant side).
  workload::Database* DbFor(WorkloadKind kind, bool tenant_b);

  /// Records one client's requests into `tracer`.
  void BuildClient(const TraceSetConfig& config, WorkloadKind kind,
                   bool tenant_b, uint32_t client, trace::Tracer* tracer);

  AddressSpace space_;  ///< first member: outlives every arena carved from it
  trace::RegionSet regions_;
  workload::TpccConfig tpcc_config_;
  workload::TpchConfig tpch_config_;
  workload::YcsbConfig ycsb_config_;
  MetricsRegistry* metrics_;
  /// [tenant B?][workload kind] — tenant B always gets its own instance.
  std::unique_ptr<workload::Database> dbs_[2][3];
};

}  // namespace stagedcmp::harness

#endif  // STAGEDCMP_HARNESS_WORLD_H_
