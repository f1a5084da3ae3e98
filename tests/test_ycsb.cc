// YCSB workload tests: the loader and driver are pure functions of
// (config, seed) — repeat and concurrent builds reproduce identical
// traces, word for word, mirroring the world-isolation contract the TPC workloads pin
// — the executed op mix tracks the configured percentages, and staged
// batch execution reorders ops without changing what was executed.
#include <gtest/gtest.h>

#include <thread>

#include "harness/world.h"
#include "scenario_util.h"
#include "workload/ycsb.h"

namespace stagedcmp::scenario {
namespace {

harness::WorkloadFactory TinyFactory() {
  harness::WorkloadFactory f;
  ApplyTinyScale(&f);
  return f;
}

harness::TraceSetConfig YcsbTraceConfig() {
  harness::TraceSetConfig tc;
  tc.workload = harness::WorkloadKind::kYcsb;
  tc.clients = 4;
  tc.requests_per_client = 6;
  tc.seed = 31;
  return tc;
}

TEST(Ycsb, LoaderAndDriverAreAPureFunctionOfConfig) {
  harness::WorkloadFactory factory = TinyFactory();
  const harness::TraceSetConfig tc = YcsbTraceConfig();
  const harness::TraceSet first = factory.Build(tc);
  const harness::TraceSet second = factory.Build(tc);
  EXPECT_GT(first.total_events, 0u);
  EXPECT_EQ(first.total_instructions, second.total_instructions);
  EXPECT_EQ(first.total_events, second.total_events);
  EXPECT_EQ(SetWords(first), SetWords(second));

  // A different factory instance (fresh load, fresh world) reproduces the
  // same words: nothing about the build depends on process history.
  harness::WorkloadFactory other = TinyFactory();
  const harness::TraceSet third = other.Build(tc);
  EXPECT_EQ(SetWords(first), SetWords(third));
}

TEST(Ycsb, ConcurrentWorldsMatchSerialBuilds) {
  const harness::WorkloadFactory f = TinyFactory();
  const harness::TraceSetConfig tc = YcsbTraceConfig();

  harness::WorkloadWorld serial(f.tpcc_config, f.tpch_config, f.ycsb_config);
  const harness::TraceSet ref = serial.Build(tc);

  harness::WorkloadWorld wa(f.tpcc_config, f.tpch_config, f.ycsb_config);
  harness::WorkloadWorld wb(f.tpcc_config, f.tpch_config, f.ycsb_config);
  harness::TraceSet got_a, got_b;
  std::thread ta([&] { got_a = wa.Build(tc); });
  std::thread tb([&] { got_b = wb.Build(tc); });
  ta.join();
  tb.join();

  EXPECT_EQ(SetWords(got_a), SetWords(ref));
  EXPECT_EQ(SetWords(got_b), SetWords(ref));
  EXPECT_EQ(got_a.total_instructions, ref.total_instructions);
  EXPECT_EQ(got_b.total_events, ref.total_events);
}

TEST(Ycsb, OpMixTracksConfiguredPercentages) {
  harness::WorkloadFactory f = TinyFactory();
  harness::WorkloadWorld world(f.tpcc_config, f.tpch_config, f.ycsb_config);
  workload::YcsbDriver driver(world.ycsb_db(), f.ycsb_config,
                              workload::TrafficConfig{}, 99);
  const uint32_t requests = 200;
  for (uint32_t r = 0; r < requests; ++r) driver.RunOne(nullptr, false);

  const uint64_t total_ops =
      static_cast<uint64_t>(requests) * f.ycsb_config.ops_per_request;
  uint64_t executed = 0;
  for (size_t op = 0; op < workload::kYcsbOpCount; ++op) {
    executed += driver.ops_executed(static_cast<workload::YcsbOp>(op));
  }
  EXPECT_EQ(driver.requests_executed(), requests);
  EXPECT_EQ(executed, total_ops);

  const auto frac = [&](workload::YcsbOp op) {
    return static_cast<double>(driver.ops_executed(op)) /
           static_cast<double>(total_ops);
  };
  EXPECT_NEAR(frac(workload::YcsbOp::kRead), f.ycsb_config.read_pct / 100.0,
              0.05);
  EXPECT_NEAR(frac(workload::YcsbOp::kUpdate),
              f.ycsb_config.update_pct / 100.0, 0.05);
  EXPECT_NEAR(frac(workload::YcsbOp::kInsert),
              f.ycsb_config.insert_pct / 100.0, 0.04);
  EXPECT_NEAR(frac(workload::YcsbOp::kScan), f.ycsb_config.scan_pct / 100.0,
              0.04);
}

TEST(Ycsb, StagedBatchingReordersWithoutChangingTheOps) {
  harness::WorkloadFactory f = TinyFactory();
  harness::WorkloadWorld wa(f.tpcc_config, f.tpch_config, f.ycsb_config);
  harness::WorkloadWorld wb(f.tpcc_config, f.tpch_config, f.ycsb_config);
  workload::YcsbDriver unstaged(wa.ycsb_db(), f.ycsb_config,
                                workload::TrafficConfig{}, 4242);
  workload::YcsbDriver staged(wb.ycsb_db(), f.ycsb_config,
                              workload::TrafficConfig{}, 4242);
  trace::Tracer tu(&wa.regions());
  trace::Tracer ts(&wb.regions());
  for (uint32_t r = 0; r < 40; ++r) {
    unstaged.RunOne(&tu, /*staged=*/false);
    staged.RunOne(&ts, /*staged=*/true);
  }
  // Same seed draws the same ops either way; staging only groups them.
  for (size_t op = 0; op < workload::kYcsbOpCount; ++op) {
    EXPECT_EQ(staged.ops_executed(static_cast<workload::YcsbOp>(op)),
              unstaged.ops_executed(static_cast<workload::YcsbOp>(op)))
        << workload::YcsbOpName(static_cast<workload::YcsbOp>(op));
  }
  EXPECT_EQ(tu.TakeTrace().requests, ts.TakeTrace().requests);
}

TEST(Ycsb, ZipfianTrafficConcentratesAccessesWithoutBreakingPurity) {
  harness::WorkloadFactory factory = TinyFactory();
  harness::TraceSetConfig tc = YcsbTraceConfig();
  tc.traffic.key_dist = workload::KeyDist::kZipfian;
  tc.traffic.zipf_theta = 0.99;
  const harness::TraceSet skewed = factory.Build(tc);
  const harness::TraceSet again = factory.Build(tc);
  EXPECT_EQ(SetWords(skewed), SetWords(again));

  // Skew changes which records are touched, not how the driver works:
  // request count matches the unshaped build of the same config.
  tc.traffic = workload::TrafficConfig{};
  const harness::TraceSet uniform = factory.Build(tc);
  ASSERT_EQ(skewed.traces.size(), uniform.traces.size());
  for (size_t i = 0; i < skewed.traces.size(); ++i) {
    EXPECT_EQ(skewed.traces[i].requests, uniform.traces[i].requests);
  }
}

}  // namespace
}  // namespace stagedcmp::scenario
