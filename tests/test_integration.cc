// Integration tests: the full pipeline (workload -> traces -> CMP replay)
// and the paper's qualitative claims as executable assertions.
#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace stagedcmp::harness {
namespace {

// Shared tiny-scale factory: databases load once per suite.
class IntegrationTest : public ::testing::Test {
 protected:
  static WorkloadFactory* factory() {
    static WorkloadFactory* f = [] {
      auto* ff = new WorkloadFactory();
      ff->tpcc_config.warehouses = 4;
      ff->tpcc_config.customers_per_district = 120;
      ff->tpcc_config.items = 1000;
      ff->tpcc_config.initial_orders_per_district = 30;
      ff->tpch_config.orders = 4000;
      ff->tpch_config.customers = 400;
      ff->tpch_config.parts = 600;
      return ff;
    }();
    return f;
  }

  static TraceSet OltpTraces(uint32_t clients, uint32_t reqs) {
    TraceSetConfig tc;
    tc.workload = WorkloadKind::kOltp;
    tc.clients = clients;
    tc.requests_per_client = reqs;
    tc.seed = 5;
    return factory()->Build(tc);
  }

  static TraceSet DssTraces(uint32_t clients) {
    TraceSetConfig tc;
    tc.workload = WorkloadKind::kDss;
    tc.clients = clients;
    tc.requests_per_client = 1;
    tc.seed = 6;
    return factory()->Build(tc);
  }

  static ExperimentConfig SmallConfig() {
    ExperimentConfig ec;
    ec.cores = 4;
    ec.l2_bytes = 4ull << 20;
    ec.measure_instructions = 2'000'000;
    ec.warmup_instructions = 500'000;
    return ec;
  }
};

TEST_F(IntegrationTest, TraceSetNonEmptyAndCounted) {
  TraceSet t = OltpTraces(4, 8);
  EXPECT_EQ(t.traces.size(), 4u);
  EXPECT_GT(t.total_events, 1000u);
  EXPECT_GT(t.total_instructions, 10000u);
  for (const auto& tr : t.traces) {
    EXPECT_EQ(tr.requests, 8u);
  }
}

TEST_F(IntegrationTest, BreakdownFractionsSumToOne) {
  TraceSet t = OltpTraces(8, 16);
  ExperimentConfig ec = SmallConfig();
  coresim::SimResult r = RunExperiment(ec, t);
  double sum = 0;
  for (int b = 0; b < static_cast<int>(coresim::Bucket::kCount); ++b) {
    sum += r.breakdown.Fraction(static_cast<coresim::Bucket>(b));
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(r.uipc(), 0.0);
  EXPECT_GT(r.instructions, ec.measure_instructions * 9 / 10);
}

TEST_F(IntegrationTest, LeanBeatsFatWhenSaturated) {
  TraceSet t = OltpTraces(16, 16);
  ExperimentConfig fc = SmallConfig();
  fc.camp = coresim::Camp::kFat;
  ExperimentConfig lc = SmallConfig();
  lc.camp = coresim::Camp::kLean;
  EXPECT_GT(RunExperiment(lc, t).uipc(), RunExperiment(fc, t).uipc());
}

TEST_F(IntegrationTest, FatBeatsLeanUnsaturatedResponse) {
  TraceSet t = DssTraces(1);
  ExperimentConfig fc = SmallConfig();
  fc.camp = coresim::Camp::kFat;
  fc.saturated = false;
  ExperimentConfig lc = fc;
  lc.camp = coresim::Camp::kLean;
  const double fc_rt = RunExperiment(fc, t).avg_response_cycles;
  const double lc_rt = RunExperiment(lc, t).avg_response_cycles;
  EXPECT_GT(fc_rt, 0.0);
  EXPECT_GT(lc_rt, fc_rt);  // LC single-thread is slower
}

TEST_F(IntegrationTest, SmpShowsCoherenceCmpDoesNot) {
  TraceSet t = OltpTraces(16, 16);
  ExperimentConfig smp = SmallConfig();
  smp.topology = Topology::kSmpPrivate;
  ExperimentConfig cmp = SmallConfig();
  cmp.topology = Topology::kCmpShared;
  coresim::SimResult rs = RunExperiment(smp, t);
  coresim::SimResult rc = RunExperiment(cmp, t);
  using memsim::AccessClass;
  EXPECT_GT(rs.mem.data_count[static_cast<int>(AccessClass::kCoherence)], 0u);
  EXPECT_EQ(rc.mem.data_count[static_cast<int>(AccessClass::kCoherence)], 0u);
}

TEST_F(IntegrationTest, FixedLatencyNeverSlowerThanRealistic) {
  TraceSet t = DssTraces(8);
  ExperimentConfig real = SmallConfig();
  real.l2_bytes = 16ull << 20;
  real.latency = LatencyMode::kRealistic;
  ExperimentConfig fixed = real;
  fixed.latency = LatencyMode::kFixed4;
  EXPECT_GE(RunExperiment(fixed, t).uipc() * 1.02,
            RunExperiment(real, t).uipc());
}

TEST_F(IntegrationTest, ResolvedHardwareReportsCactiLatency) {
  ExperimentConfig ec = SmallConfig();
  ec.l2_bytes = 16ull << 20;
  EXPECT_GE(ResolveHardware(ec).l2_hit_cycles, 10u);
  ec.latency = LatencyMode::kFixed4;
  EXPECT_EQ(ResolveHardware(ec).l2_hit_cycles, 4u);
}

TEST_F(IntegrationTest, DeterministicEndToEnd) {
  TraceSet t = OltpTraces(4, 8);
  ExperimentConfig ec = SmallConfig();
  coresim::SimResult a = RunExperiment(ec, t);
  coresim::SimResult b = RunExperiment(ec, t);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.instructions, b.instructions);
}

TEST_F(IntegrationTest, StagedEngineTracesBuild) {
  TraceSetConfig tc;
  tc.workload = WorkloadKind::kDss;
  tc.clients = 2;
  tc.requests_per_client = 1;
  tc.engine = EngineMode::kStagedCohort;
  TraceSet t = factory()->Build(tc);
  EXPECT_GT(t.total_events, 1000u);
  ExperimentConfig ec = SmallConfig();
  coresim::SimResult r = RunExperiment(ec, t);
  EXPECT_GT(r.uipc(), 0.0);
}

// Property sweep: off-chip data accesses are monotonically non-increasing
// in L2 size for the same trace set (paper Section 5.1 premise).
class L2SweepIntegration : public ::testing::TestWithParam<uint64_t> {};

TEST_P(L2SweepIntegration, OffChipCountMonotone) {
  static TraceSet t = [] {
    TraceSetConfig tc;
    tc.workload = WorkloadKind::kDss;
    tc.clients = 4;
    tc.requests_per_client = 1;
    tc.seed = 9;
    WorkloadFactory f;
    f.tpch_config.orders = 3000;
    f.tpch_config.customers = 300;
    f.tpch_config.parts = 400;
    return f.Build(tc);
  }();
  auto run = [&](uint64_t bytes) {
    ExperimentConfig ec;
    ec.cores = 4;
    ec.l2_bytes = bytes;
    ec.measure_instructions = 1'500'000;
    ec.warmup_instructions = 400'000;
    coresim::SimResult r = RunExperiment(ec, t);
    using memsim::AccessClass;
    return static_cast<double>(
               r.mem.data_count[static_cast<int>(AccessClass::kOffChip)]) /
           static_cast<double>(r.instructions);
  };
  // Allow 10% tolerance: replay alignment shifts slightly across configs.
  EXPECT_GE(run(GetParam()) * 1.10, run(GetParam() * 4));
}

INSTANTIATE_TEST_SUITE_P(Sweep, L2SweepIntegration,
                         ::testing::Values(1ull << 20, 2ull << 20,
                                           4ull << 20));

}  // namespace
}  // namespace stagedcmp::harness
