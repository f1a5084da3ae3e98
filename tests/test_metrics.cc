// Metrics registry contracts (common/metrics.h): exact concurrent
// aggregation, stable name resolution, gauge peaks, histogram merging,
// snapshot-during-mutation safety, and the JSON serialization shape.
#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace stagedcmp {
namespace {

TEST(Counter, ConcurrentIncrementsSumExactly) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  EXPECT_EQ(reg.Snapshot().CounterOr("c"), kThreads * kPerThread);
}

TEST(MetricsRegistry, SameNameResolvesToSameInstance) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  b.Add(4);
  EXPECT_EQ(reg.counter("x").Value(), 7u);
  // Families are separate namespaces: a gauge "x" is a different metric.
  reg.gauge("x").Set(9);
  EXPECT_EQ(reg.counter("x").Value(), 7u);
}

TEST(MetricsRegistry, ConcurrentResolutionIsSafeAndExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Resolve inside the thread: first-registration races must yield
      // one shared instance, never two.
      Counter& c = reg.counter("raced");
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.counter("raced").Value(), kThreads * kPerThread);
}

TEST(Gauge, TracksValueAndPeak) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth");
  g.Set(5);
  g.Set(8);
  g.Set(2);
  EXPECT_EQ(g.Value(), 2);
  EXPECT_EQ(g.Peak(), 8);
  g.Set(1);
  EXPECT_EQ(g.Value(), 1);
  EXPECT_EQ(g.Peak(), 8);
  const MetricsSnapshot snap = reg.Snapshot();
  const MetricsSnapshot::GaugeValue* gv = snap.FindGauge("depth");
  ASSERT_NE(gv, nullptr);
  EXPECT_EQ(gv->value, 1);
  EXPECT_EQ(gv->peak, 8);
  EXPECT_EQ(snap.FindGauge("absent"), nullptr);
}

TEST(HistogramMetric, MergesShardsWithExactCountSumMax) {
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("lat");
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 1; i <= 1000; ++i) {
        h.Record(i + static_cast<uint64_t>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramMetric::Merged m = h.Snapshot();
  EXPECT_EQ(m.count, 8000u);
  uint64_t want_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 1; i <= 1000; ++i) want_sum += i + t;
  }
  EXPECT_EQ(m.sum, want_sum);
  EXPECT_EQ(m.max, 1000u + kThreads - 1);  // exact, not a bucket bound
  EXPECT_GT(m.p50, 0u);
  EXPECT_LE(m.p50, m.p95);
  EXPECT_LE(m.p95, m.p99);
}

TEST(MetricsRegistry, SnapshotDuringMutationIsSafe) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hot");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.Add(1);
        reg.histogram("hot_lat").Record(7);
      }
    });
  }
  uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const MetricsSnapshot snap = reg.Snapshot();
    const uint64_t now = snap.CounterOr("hot");
    EXPECT_GE(now, last);  // monotone across concurrent snapshots
    last = now;
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(reg.counter("hot").Value(), reg.Snapshot().CounterOr("hot"));
}

TEST(MetricsSnapshot, SortedByNameAndJsonShape) {
  MetricsRegistry reg;
  reg.counter("zeta").Add(2);
  reg.counter("alpha").Add(1);
  reg.counter("q\"uote\\back").Add(3);  // name needs JSON escaping
  reg.gauge("mid").Set(-3);
  reg.histogram("h").Record(10);
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[2].name, "zeta");
  EXPECT_FALSE(snap.empty());
  EXPECT_EQ(snap.CounterOr("missing", 42), 42u);

  std::ostringstream os;
  snap.WriteJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"alpha\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"q\\\"uote\\\\back\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"mid\": {\"value\": -3, \"peak\": 0}"),
            std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  // alpha serializes before zeta (map order).
  EXPECT_LT(json.find("alpha"), json.find("zeta"));
}

TEST(MetricsSnapshot, EmptyRegistrySerializes) {
  MetricsRegistry reg;
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_TRUE(snap.empty());
  std::ostringstream os;
  snap.WriteJson(os);
  EXPECT_NE(os.str().find("\"counters\": {}"), std::string::npos);
}

}  // namespace
}  // namespace stagedcmp
