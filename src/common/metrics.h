// Lock-cheap metrics registry: named counters, gauges, and histograms
// with per-thread sharding and an aggregated snapshot API.
//
// Design goals, in order:
//   1. Cheap on the write path. A Counter::Add is one relaxed fetch_add
//      on a cache-line-padded shard chosen by thread (threads are dealt
//      shards round-robin on first use, so up to kShards concurrent
//      writers never touch the same line). Histogram::Record takes one
//      uncontended shard mutex. No metric update ever takes the registry
//      lock — callers resolve a metric name to a stable reference once
//      and hold it.
//   2. Exact aggregation. Shard sums are plain integer adds, so N
//      concurrent increments always snapshot to exactly N (tested by
//      tests/test_metrics.cc with 8 hammering threads).
//   3. Safe snapshots during mutation. Snapshot() reads counter shards
//      with relaxed atomics and merges histogram shards under their
//      locks; it can run concurrently with any number of writers and
//      observes a value at least as large as every update that
//      happened-before the call.
//
// Metrics are OFF by default everywhere: instrumented components take a
// `MetricsRegistry*` that defaults to nullptr and skip all bookkeeping
// when unset, so un-instrumented runs pay nothing. The registry owns its
// metrics for its lifetime; references returned by counter()/gauge()/
// histogram() stay valid as long as the registry lives.
//
// The metric name catalog for this repo lives in docs/OBSERVABILITY.md.
#ifndef STAGEDCMP_COMMON_METRICS_H_
#define STAGEDCMP_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace stagedcmp {

namespace metrics_detail {
/// Shards per metric. 16 covers the sweep's worker counts; more threads
/// than shards just share (still exact, slightly more contended).
constexpr size_t kShards = 16;
/// This thread's shard slot, dealt round-robin on first use.
size_t ShardIndex();
}  // namespace metrics_detail

/// Monotonic event count, sharded per thread. Exact under concurrency.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[metrics_detail::ShardIndex()].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<Shard, metrics_detail::kShards> shards_;
};

/// Instantaneous level (queue depth, live entries). Tracks the high-water
/// mark so a snapshot can report peak pressure, not just the final value.
class Gauge {
 public:
  void Add(int64_t delta) {
    const int64_t now = v_.fetch_add(delta, std::memory_order_relaxed) + delta;
    UpdatePeak(now);
  }
  void Set(int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    UpdatePeak(v);
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  int64_t Peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  void UpdatePeak(int64_t now) {
    int64_t p = peak_.load(std::memory_order_relaxed);
    while (now > p &&
           !peak_.compare_exchange_weak(p, now, std::memory_order_relaxed)) {
    }
  }
  std::atomic<int64_t> v_{0};
  std::atomic<int64_t> peak_{0};
};

/// Sharded log-scale histogram (reuses common/histogram.h LogHistogram)
/// for latency-style samples; per-shard mutexes keep Record() cheap and
/// Snapshot() safe during mutation.
class HistogramMetric {
 public:
  void Record(uint64_t v) {
    Shard& s = shards_[metrics_detail::ShardIndex()];
    std::lock_guard<std::mutex> lock(s.mu);
    s.h.Add(v);
    if (v > s.max) s.max = v;
  }

  struct Merged {
    uint64_t count = 0;
    uint64_t sum = 0;
    double mean = 0.0;
    uint64_t p50 = 0;   ///< bucket-upper-bound approximations
    uint64_t p95 = 0;
    uint64_t p99 = 0;
    uint64_t max = 0;   ///< exact
  };
  Merged Snapshot() const {
    LogHistogram merged;
    uint64_t max = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      merged.MergeFrom(s.h);
      if (s.max > max) max = s.max;
    }
    Merged out;
    out.count = merged.count();
    out.sum = merged.sum();
    out.mean = merged.mean();
    out.p50 = merged.Quantile(0.50);
    out.p95 = merged.Quantile(0.95);
    out.p99 = merged.Quantile(0.99);
    out.max = max;
    return out;
  }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    LogHistogram h;
    uint64_t max = 0;
  };
  std::array<Shard, metrics_detail::kShards> shards_;
};

/// Point-in-time aggregate of a registry, sorted by name — the unit the
/// sinks serialize and the tests assert against.
struct MetricsSnapshot {
  static constexpr int kSchemaVersion = 1;

  struct CounterValue {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    int64_t value = 0;
    int64_t peak = 0;
  };
  struct HistogramValue {
    std::string name;
    HistogramMetric::Merged stats;
  };

  std::vector<CounterValue> counters;      ///< sorted by name
  std::vector<GaugeValue> gauges;          ///< sorted by name
  std::vector<HistogramValue> histograms;  ///< sorted by name

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Counter value by exact name; `fallback` when absent.
  uint64_t CounterOr(const std::string& name, uint64_t fallback = 0) const;
  /// Gauge by exact name; nullptr when absent.
  const GaugeValue* FindGauge(const std::string& name) const;

  /// Serializes as a deterministic-key-order JSON document:
  ///   {"schema_version":1,"counters":{...},"gauges":{...},
  ///    "histograms":{name:{count,sum,mean,p50,p95,p99,max}}}
  /// This is the "metrics" section of the sweep's --perf-out summary.
  void WriteJson(std::ostream& os, int indent = 0) const;
};

/// Registry of named metrics. Name resolution (counter()/gauge()/
/// histogram()) takes a shared lock on the hot path and a unique lock
/// only on first registration; resolve once and cache the reference.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name);

  /// Aggregates every registered metric. Safe to call while writers run.
  MetricsSnapshot Snapshot() const;

 private:
  template <typename T>
  T& Resolve(std::map<std::string, std::unique_ptr<T>>* family,
             const std::string& name);

  mutable std::shared_mutex mu_;  ///< guards the maps' structure only
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_METRICS_H_
