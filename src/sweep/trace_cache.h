// Shared trace-set cache: builds each distinct TraceSetConfig at most once
// and hands out references to immutable TraceSets shared across sweep
// cells (and threads).
//
// Client-count families: configs that differ only in `clients` form a
// family (FamilyKey). By the factory's prefix property (see
// harness::WorkloadFactory) a family member with N clients equals the
// first N traces of a larger member, data addresses aside. So the sweep
// builds only each family's largest member and serves the others
// through Slice(): zero-copy views into the leader's first N traces,
// pinning the leader through TraceSet::leader. Every entry is a shared
// owner, so dropping a leader's entry never frees storage a live slice
// still views.
//
// Thread-safety contract:
//   * Get() and Slice() may be called concurrently from any number of
//     threads.
//   * DISTINCT configs build concurrently: each cache entry carries its
//     own std::once_flag, and WorkloadFactory::Build runs in an isolated
//     WorkloadWorld (fresh databases, private code-region map — see
//     harness/world.h), so overlapping builds share nothing. Callers of
//     the SAME config rendezvous on the entry's once_flag — one builds
//     (or slices), the rest block until it is ready.
//   * Builds are pure functions of (config, factory scale knobs): build
//     order and build concurrency never change a set's contents. Event
//     skeletons are exactly reproducible; absolute data addresses follow
//     heap placement (see tests/test_determinism.cc).
//   * Returned references stay valid until their entry is dropped, which
//     only the caller's own EvictAll or Release does.
//
// Observability (optional): constructed with a MetricsRegistry the cache
// maintains `trace_cache.*` counters (lookups, hits, misses, inserts,
// slices, evictions, rendezvous_waits) and histograms (build_us,
// rendezvous_wait_us). Invariants, checked by tests and scripts/check.sh:
// lookups == hits + misses (lookups count Get() calls only); misses ==
// builds-by-Get; a caller that blocks on another thread's in-flight
// build counts as a hit AND a rendezvous_wait.
#ifndef STAGEDCMP_SWEEP_TRACE_CACHE_H_
#define STAGEDCMP_SWEEP_TRACE_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>

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
    uint64_t builds = 0;  ///< distinct configs actually built
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
  /// One cache slot. The once_flag serializes same-config builders while
  /// the map's shared_mutex only guards slot lookup/creation — so
  /// different entries build fully in parallel. `ready` flips true
  /// (release) after `set` is published inside the once-callable, so an
  /// acquire load distinguishes an already-served entry from one a
  /// caller must build or rendezvous on. `set` is shared so a slice can
  /// pin its leader past the leader's own entry.
  struct Entry {
    std::once_flag once;
    std::atomic<bool> ready{false};
    std::shared_ptr<const harness::TraceSet> set;
  };

  /// Finds or creates the (possibly not-yet-built) entry for `key`.
  std::shared_ptr<Entry> EntryFor(const Key& key);
  /// Publishes `set` into `entry` (called inside its once_flag),
  /// warming the pointer cache first so concurrent readers only ever
  /// see the const fast path.
  static void Publish(Entry* entry, harness::TraceSet&& set);

  const harness::WorkloadFactory* factory_;
  mutable std::shared_mutex mu_;  ///< guards cache_ structure only
  std::map<Key, std::shared_ptr<Entry>> cache_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> builds_{0};
  std::atomic<uint64_t> slices_{0};

  // Observability handles; all null when constructed without a registry.
  Counter* lookups_ = nullptr;
  Counter* hit_ctr_ = nullptr;
  Counter* miss_ctr_ = nullptr;
  Counter* insert_ctr_ = nullptr;
  Counter* slice_ctr_ = nullptr;
  Counter* evict_ctr_ = nullptr;
  Counter* rendezvous_ctr_ = nullptr;
  HistogramMetric* build_us_ = nullptr;
  HistogramMetric* rendezvous_wait_us_ = nullptr;
};

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_TRACE_CACHE_H_
