// Workload-world isolation: trace generation in concurrent, independent
// worlds must be indistinguishable from serial builds. This is the
// contract the sweep's parallel cold build rests on, pinned from four
// sides:
//
//   * every world lays out the canonical code-region set identically
//     (PCs in traces do not depend on which world recorded them);
//   * two worlds building TPC-C and TPC-H trace sets concurrently
//     reproduce the serial single-world skeletons bit-for-bit;
//   * WorkloadFactory::Build is a pure function of its config — repeat
//     builds of the same OLTP config no longer see database state that
//     earlier builds advanced (the old once-guarded shared-DB behavior);
//   * TraceSetCache lets distinct configs build concurrently and still
//     returns one shared instance per config.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "harness/world.h"
#include "scenario_util.h"
#include "sweep/trace_cache.h"

namespace stagedcmp::scenario {
namespace {

harness::WorkloadFactory TinyFactory() {
  harness::WorkloadFactory f;
  ApplyTinyScale(&f);
  return f;
}

harness::TraceSetConfig OltpConfig() {
  harness::TraceSetConfig tc;
  tc.workload = harness::WorkloadKind::kOltp;
  tc.clients = 4;
  tc.requests_per_client = 4;
  tc.seed = 21;
  return tc;
}

harness::TraceSetConfig DssConfig() {
  harness::TraceSetConfig tc;
  tc.workload = harness::WorkloadKind::kDss;
  tc.clients = 4;
  tc.requests_per_client = 1;
  tc.seed = 22;
  return tc;
}

TEST(WorldIsolation, RegionLayoutIdenticalAcrossWorldsAndFreshMaps) {
  const harness::WorkloadFactory f = TinyFactory();
  harness::WorkloadWorld a(f.tpcc_config, f.tpch_config);
  harness::WorkloadWorld b(f.tpcc_config, f.tpch_config);
  // Any fresh map resolves to the same geometry, so code tracing outside
  // a world (tests, benchmarks) lands on the PCs a world records.
  trace::CodeMap code;
  const trace::RegionSet fresh(&code);
  for (size_t i = 0; i < trace::kRegionCount; ++i) {
    const auto id = static_cast<trace::RegionId>(i);
    EXPECT_EQ(a.regions()[id].base, fresh[id].base) << "region " << i;
    EXPECT_EQ(a.regions()[id].size, fresh[id].size) << "region " << i;
    EXPECT_EQ(b.regions()[id].base, a.regions()[id].base) << "region " << i;
    EXPECT_EQ(b.regions()[id].size, a.regions()[id].size) << "region " << i;
  }
}

harness::TraceSetConfig StagedDssConfig() {
  harness::TraceSetConfig tc = DssConfig();
  tc.engine = harness::EngineMode::kStagedCohort;
  return tc;
}

TEST(WorldIsolation, ConcurrentWorldsMatchSerialSingleWorldBuilds) {
  const harness::WorkloadFactory f = TinyFactory();
  // Staged-cohort DSS copies tuples into packet buffers; those must not
  // let heap placement into the recorded skeleton either.
  const std::vector<harness::TraceSetConfig> configs = {
      OltpConfig(), DssConfig(), StagedDssConfig()};

  // Serial reference: each set built in its own fresh world, one at a
  // time (the semantics WorkloadFactory::Build promises).
  std::vector<harness::TraceSet> refs;
  for (const harness::TraceSetConfig& tc : configs) {
    harness::WorkloadWorld serial(f.tpcc_config, f.tpch_config);
    refs.push_back(serial.Build(tc));
  }

  // Concurrent arm: one world per config loads its databases and records
  // traces at the same time. Nothing is shared, so the interleaving
  // cannot leak into the recorded streams.
  std::vector<harness::TraceSet> got(configs.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < configs.size(); ++i) {
    threads.emplace_back([&, i] {
      harness::WorkloadWorld w(f.tpcc_config, f.tpch_config);
      got[i] = w.Build(configs[i]);
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(got[i].total_instructions, refs[i].total_instructions)
        << "config " << i;
    EXPECT_EQ(got[i].total_events, refs[i].total_events) << "config " << i;
    EXPECT_EQ(EventSkeleton(got[i]), EventSkeleton(refs[i]))
        << "config " << i;
    ASSERT_EQ(got[i].traces.size(), refs[i].traces.size());
    for (size_t c = 0; c < got[i].traces.size(); ++c) {
      EXPECT_EQ(got[i].traces[c].requests, refs[i].traces[c].requests)
          << "config " << i << " client " << c;
    }
  }
}

TEST(WorldIsolation, FactoryBuildIsAPureFunctionOfItsConfig) {
  // The decisive difference from the old once-guarded shared database:
  // building the same OLTP config twice through one factory starts from
  // an identical database both times, so the traces are skeleton-equal.
  // (TPC-C transactions mutate the database; under the old contract the
  // second build recorded against post-first-build state.)
  harness::WorkloadFactory factory = TinyFactory();
  const harness::TraceSetConfig oltp = OltpConfig();
  const harness::TraceSet first = factory.Build(oltp);
  const harness::TraceSet second = factory.Build(oltp);
  EXPECT_EQ(first.total_instructions, second.total_instructions);
  EXPECT_EQ(first.total_events, second.total_events);
  EXPECT_EQ(EventSkeleton(first), EventSkeleton(second));
}

TEST(WorldIsolation, CacheBuildsDistinctConfigsConcurrently) {
  harness::WorkloadFactory factory = TinyFactory();
  sweep::TraceSetCache cache(&factory);

  // Reference skeletons from plain factory builds.
  const harness::TraceSet ref_oltp = factory.Build(OltpConfig());
  const harness::TraceSet ref_dss = factory.Build(DssConfig());

  // Both configs enter the cache from separate threads at once; each
  // must build exactly once, and the cached sets must match the
  // reference skeletons (same pure build, different world instance).
  const harness::TraceSet* got_oltp = nullptr;
  const harness::TraceSet* got_dss = nullptr;
  std::thread ta([&] { got_oltp = &cache.Get(OltpConfig()); });
  std::thread tb([&] { got_dss = &cache.Get(DssConfig()); });
  ta.join();
  tb.join();

  ASSERT_NE(got_oltp, nullptr);
  ASSERT_NE(got_dss, nullptr);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(EventSkeleton(*got_oltp), EventSkeleton(ref_oltp));
  EXPECT_EQ(EventSkeleton(*got_dss), EventSkeleton(ref_dss));
  // Repeat lookups alias the built instances.
  EXPECT_EQ(&cache.Get(OltpConfig()), got_oltp);
  EXPECT_EQ(&cache.Get(DssConfig()), got_dss);
  EXPECT_EQ(cache.stats().builds, 2u);
}

}  // namespace
}  // namespace stagedcmp::scenario
