// Shared trace-set cache: hands out references to immutable TraceSets
// shared across sweep cells (and threads), building each config on its
// first request.
//
// Client-count families: configs that differ only in `clients` form a
// family (FamilyKey). By the factory's prefix property (see
// harness::WorkloadFactory) a family member with N clients equals the
// first N traces of a larger member, word for word. So the sweep
// builds only each family's largest member and serves the others
// through Slice(): zero-copy views into the leader's first N traces,
// pinning the leader through TraceSet::leader. Every entry is a shared
// owner, so dropping a leader's entry never frees storage a live slice
// still views.
//
// Thread-safety contract:
//   * Every method may be called concurrently from any number of
//     threads, except EvictAll and Release (see their comments). One
//     mutex guards the map and the stats; no build runs under it.
//   * Get() looks its config up under the lock, builds outside it and
//     publishes under it, so DISTINCT configs build in parallel.
//     WorkloadFactory::Build runs in an isolated WorkloadWorld (fresh
//     databases, private code-region map — see harness/world.h), so
//     overlapping builds share nothing.
//   * Two first Get()s of the SAME config may both build; the first set
//     published wins and both callers get it (the other is freed). The
//     sweep runner hands each config to exactly one task, so it never
//     builds a set twice.
//   * A build that throws publishes nothing: the exception propagates
//     and the next Get() simply builds again.
//   * Builds are pure functions of (config, factory scale knobs): build
//     order and build concurrency never change a set's events, data
//     addresses included (see tests/test_determinism.cc).
//   * Returned references stay valid until their entry is dropped, which
//     only the caller's own EvictAll or Release does.
//
// Observability (optional): constructed with a MetricsRegistry the cache
// maintains `trace_cache.*` counters (lookups, hits, misses, inserts,
// slices, evictions) and the build_us histogram. Invariants, checked by
// test_sweep and test_goldens: lookups == hits + misses (lookups count
// Get() calls only); misses == builds by Get.
#ifndef STAGEDCMP_SWEEP_TRACE_CACHE_H_
#define STAGEDCMP_SWEEP_TRACE_CACHE_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "common/metrics.h"
#include "harness/config_fields.h"
#include "harness/experiment.h"

namespace stagedcmp::sweep {

class TraceSetCache {
 public:
  explicit TraceSetCache(const harness::WorkloadFactory* factory,
                         MetricsRegistry* metrics = nullptr);

  TraceSetCache(const TraceSetCache&) = delete;
  TraceSetCache& operator=(const TraceSetCache&) = delete;

  /// Returns the trace set for `config`, building it on first request.
  const harness::TraceSet& Get(const harness::TraceSetConfig& config);

  /// Returns the trace set for `config`, serving it on first request as
  /// a prefix slice of the cached set for `leader`: its traces view the
  /// leader's first `config.clients` traces, its totals are recomputed
  /// over them, and it pins the leader. `config` must share `leader`'s
  /// FamilyKey and have no more clients, and `leader` must be cached (a
  /// Get or Insert of it has returned and it was not dropped since);
  /// otherwise throws std::invalid_argument. Like Insert, counts as
  /// neither a lookup nor a build; a set it creates counts as a slice.
  const harness::TraceSet& Slice(const harness::TraceSetConfig& config,
                                 const harness::TraceSetConfig& leader);

  /// Pre-populates the cache with an already-built set (e.g. loaded from
  /// a disk bundle); counts as neither a hit nor a build. If the config
  /// is already cached the existing entry wins and `set` is dropped.
  const harness::TraceSet& Insert(harness::TraceSet&& set);

  /// Drops every cached entry; a set's event storage is freed with its
  /// last owner (a leader lives on while a slice someone still holds
  /// views it). The caller must guarantee no returned reference is still
  /// in use and no Get() is in flight (call between sweeps, never during
  /// one) — this is the eviction path that keeps long-lived caches from
  /// holding the peak working set of every sweep they ever served.
  void EvictAll();

  /// Drops the entry for `config` alone, freeing its events unless a
  /// slice still views them (the slice keeps its leader alive); a later
  /// Get() rebuilds it. The caller must guarantee no reference returned
  /// for `config` is still in use and no Get() or Insert() of it is in
  /// flight. Other entries stay untouched and may be in use. Returns
  /// whether an entry was dropped.
  bool Release(const harness::TraceSetConfig& config);

  struct Stats {
    uint64_t hits = 0;    ///< Get() calls served from the cache
    uint64_t builds = 0;  ///< sets built by Get() (a lost race included)
    uint64_t slices = 0;  ///< sets served by Slice() as prefix views
  };
  Stats stats() const;

  /// Canonical identity of a TraceSetConfig — THE definition of "same
  /// trace set" (the runner's dedup and the bundle sequence match both
  /// go through it): every field of the config's field table as a word
  /// (harness/config_fields.h), traffic shaping and tenancy included.
  /// The theta double enters by bit pattern, so any distinct
  /// representable skew is a distinct trace set.
  using Key =
      std::array<uint64_t, harness::FieldCount<harness::TraceSetConfig>()>;
  static Key MakeKey(const harness::TraceSetConfig& c);
  /// Identity of `c`'s client-count family: MakeKey with `clients`
  /// zeroed, so members differ only in their client count. A two-tenant
  /// config keeps its clients (tenant B's seeds shift with them) and so
  /// forms a family of its own.
  static Key FamilyKey(const harness::TraceSetConfig& c);

 private:
  const harness::WorkloadFactory* factory_;
  mutable std::mutex mu_;  ///< guards cache_ and stats_
  std::map<Key, std::shared_ptr<const harness::TraceSet>> cache_;
  Stats stats_;

  // Observability handles; all null when constructed without a registry.
  Counter* lookups_ = nullptr;
  Counter* hit_ctr_ = nullptr;
  Counter* miss_ctr_ = nullptr;
  Counter* insert_ctr_ = nullptr;
  Counter* slice_ctr_ = nullptr;
  Counter* evict_ctr_ = nullptr;
  HistogramMetric* build_us_ = nullptr;
};

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_TRACE_CACHE_H_
