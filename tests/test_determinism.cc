// Golden determinism tests: the pipeline must be a pure function of its
// seeds. Two Experiment runs over the same trace set compare byte-identical
// at the stat-table level (hexfloat rendering, so bit-for-bit on doubles),
// and so do runs over two from-scratch builds; trace generation itself is
// deterministic word for word, data addresses included (each world records
// them relative to its own address space).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario_util.h"

namespace stagedcmp::scenario {
namespace {

harness::TraceSet BuildFromScratch(uint64_t seed, harness::WorkloadKind kind) {
  harness::WorkloadFactory factory;
  ApplyTinyScale(&factory);
  harness::TraceSetConfig tc;
  tc.workload = kind;
  tc.clients = 4;
  tc.requests_per_client = kind == harness::WorkloadKind::kOltp ? 4 : 1;
  tc.seed = seed;
  return factory.Build(tc);
}

// The golden contract: replaying one trace set twice — same seed, same
// hardware — produces byte-identical stat tables, for every workload and
// both hardware camps.
TEST(GoldenDeterminismTest, TwoExperimentRunsByteIdenticalStatTables) {
  for (Mix mix : {Mix::kOltp, Mix::kDss, Mix::kMixed}) {
    const harness::TraceSet& traces = TraceCache::Get(mix,
                                                      Executor::kUnstaged);
    for (Hardware hw : {Hardware::kSmpFewFat, Hardware::kCmpManyLean}) {
      harness::ExperimentConfig ec = HardwareConfig(hw);
      const std::string golden = StatTable(harness::RunExperiment(ec, traces));
      const std::string again = StatTable(harness::RunExperiment(ec, traces));
      EXPECT_EQ(golden, again) << MixName(mix) << "/" << HardwareName(hw);
      EXPECT_NE(golden.find("instructions"), std::string::npos);
    }
  }
}

// From-scratch trace generation — fresh factory, fresh databases — yields
// the same event words, instruction totals, and request counts for the
// same seed, and so the same simulated results.
TEST(GoldenDeterminismTest, FreshFactorySameSeedSameTraces) {
  for (auto kind :
       {harness::WorkloadKind::kOltp, harness::WorkloadKind::kDss}) {
    harness::TraceSet a = BuildFromScratch(9, kind);
    harness::TraceSet b = BuildFromScratch(9, kind);
    EXPECT_EQ(a.total_instructions, b.total_instructions)
        << harness::WorkloadName(kind);
    EXPECT_EQ(a.total_events, b.total_events) << harness::WorkloadName(kind);
    EXPECT_EQ(SetWords(a), SetWords(b))
        << harness::WorkloadName(kind);
    const harness::ExperimentConfig ec = HardwareConfig(Hardware::kCmpManyLean);
    EXPECT_EQ(StatTable(harness::RunExperiment(ec, a)),
              StatTable(harness::RunExperiment(ec, b)))
        << harness::WorkloadName(kind);
  }
}

TEST(GoldenDeterminismTest, DifferentSeedsDiverge) {
  for (auto kind :
       {harness::WorkloadKind::kOltp, harness::WorkloadKind::kDss}) {
    harness::TraceSet a = BuildFromScratch(9, kind);
    harness::TraceSet c = BuildFromScratch(10, kind);
    EXPECT_NE(SetWords(a), SetWords(c))
        << harness::WorkloadName(kind);
  }
}

TEST(GoldenDeterminismTest, TraceBuildIsIndependentOfBuildOrder) {
  // Building DSS before OLTP (or vice versa) must not perturb either:
  // per-client tracers and seeds are fully isolated.
  harness::WorkloadFactory forward;
  ApplyTinyScale(&forward);
  harness::WorkloadFactory reversed;
  ApplyTinyScale(&reversed);

  harness::TraceSetConfig oltp;
  oltp.workload = harness::WorkloadKind::kOltp;
  oltp.clients = 4;
  oltp.requests_per_client = 4;
  oltp.seed = 77;
  harness::TraceSetConfig dss;
  dss.workload = harness::WorkloadKind::kDss;
  dss.clients = 2;
  dss.requests_per_client = 1;
  dss.seed = 78;

  harness::TraceSet oltp_first = forward.Build(oltp);
  harness::TraceSet dss_second = forward.Build(dss);
  harness::TraceSet dss_first = reversed.Build(dss);
  harness::TraceSet oltp_second = reversed.Build(oltp);

  EXPECT_EQ(SetWords(oltp_first), SetWords(oltp_second));
  EXPECT_EQ(SetWords(dss_first), SetWords(dss_second));
}

}  // namespace
}  // namespace stagedcmp::scenario
