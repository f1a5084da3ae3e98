// Shared trace-set cache: builds each distinct TraceSetConfig exactly once
// and hands out references to immutable TraceSets shared across sweep
// cells (and threads).
//
// Thread-safety contract:
//   * Get() may be called concurrently from any number of threads.
//   * DISTINCT configs build concurrently: each cache entry carries its
//     own std::once_flag, and WorkloadFactory::Build runs in an isolated
//     WorkloadWorld (fresh databases, private code-region map — see
//     harness/world.h), so overlapping builds share nothing. Callers of
//     the SAME config rendezvous on the entry's once_flag — one builds,
//     the rest block until it is ready.
//   * Builds are pure functions of (config, factory scale knobs): build
//     order and build concurrency never change a set's contents. Event
//     skeletons are exactly reproducible; absolute data addresses follow
//     heap placement (see tests/test_determinism.cc).
//   * Returned references stay valid until their entry is dropped, which
//     only the caller's own EvictAll or Release does.
//
// Observability (optional): constructed with a MetricsRegistry the cache
// maintains `trace_cache.*` counters (lookups, hits, misses, inserts,
// evictions, rendezvous_waits) and histograms (build_us,
// rendezvous_wait_us). Invariants, checked by tests and scripts/check.sh:
// lookups == hits + misses; misses == builds-by-Get; a caller that blocks
// on another thread's in-flight build counts as a hit AND a
// rendezvous_wait. The legacy stats() accessor is unchanged.
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

  /// Pre-populates the cache with an already-built set (e.g. loaded from
  /// a disk bundle); counts as neither a hit nor a build. If the config
  /// is already cached the existing entry wins and `set` is dropped.
  const harness::TraceSet& Insert(harness::TraceSet&& set);

  /// Drops every cached trace set, releasing event storage via
  /// ClientTrace::Release(). The caller must guarantee no returned
  /// reference is still in use and no Get() is in flight (call between
  /// sweeps, never during one) — this is the eviction path that keeps
  /// long-lived caches from holding the peak working set of every sweep
  /// they ever served.
  void EvictAll();

  /// Drops the entry for `config` alone, freeing its events; a later
  /// Get() rebuilds it. The caller must guarantee no reference returned
  /// for `config` is still in use and no Get() or Insert() of it is in
  /// flight. Other entries stay untouched and may be in use. Returns
  /// whether an entry was dropped.
  bool Release(const harness::TraceSetConfig& config);

  struct Stats {
    uint64_t hits = 0;    ///< Get() calls served from the cache
    uint64_t builds = 0;  ///< distinct configs actually built
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

 private:
  /// One cache slot. The once_flag serializes same-config builders while
  /// the map's shared_mutex only guards slot lookup/creation — so
  /// different entries build fully in parallel. `ready` flips true
  /// (release) after `set` is published inside the once-callable, so an
  /// acquire load distinguishes an already-served entry from one a
  /// caller must build or rendezvous on.
  struct Entry {
    std::once_flag once;
    std::atomic<bool> ready{false};
    std::unique_ptr<harness::TraceSet> set;
  };

  /// Finds or creates the (possibly not-yet-built) entry for `key`.
  std::shared_ptr<Entry> EntryFor(const Key& key);

  const harness::WorkloadFactory* factory_;
  mutable std::shared_mutex mu_;  ///< guards cache_ structure only
  std::map<Key, std::shared_ptr<Entry>> cache_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> builds_{0};

  // Observability handles; all null when constructed without a registry.
  Counter* lookups_ = nullptr;
  Counter* hit_ctr_ = nullptr;
  Counter* miss_ctr_ = nullptr;
  Counter* insert_ctr_ = nullptr;
  Counter* evict_ctr_ = nullptr;
  Counter* rendezvous_ctr_ = nullptr;
  HistogramMetric* build_us_ = nullptr;
  HistogramMetric* rendezvous_wait_us_ = nullptr;
};

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_TRACE_CACHE_H_
