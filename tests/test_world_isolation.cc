// Workload-world isolation: trace generation in concurrent, independent
// worlds must be indistinguishable from serial builds, word for word:
// each world records data addresses relative to its own address space.
// This is the contract the sweep's parallel cold build rests on, pinned
// from several sides:
//
//   * every world lays out the canonical code-region set identically
//     (PCs in traces do not depend on which world recorded them);
//   * two worlds building TPC-C and TPC-H trace sets concurrently
//     reproduce the serial single-world traces bit-for-bit;
//   * WorkloadFactory::Build is a pure function of its config — repeat
//     builds of the same OLTP config see no database state that
//     earlier builds advanced;
//   * distinct configs build concurrently through one factory and each
//     equals its serial build;
//   * the prefix property the sweep's family builds rest on: the first N
//     traces of an M-client build equal a standalone N-client build word
//     for word — for every single-tenant engine and traffic shape, and
//     for no two-tenant set beyond its tenant-A clients;
//   * no build records an access outside its world's address space
//     (trace.unmapped_addresses stays 0).
#include <gtest/gtest.h>

#include <string>
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
  // Any fresh RegionSet has the same geometry, so code tracing outside a
  // world (tests, benchmarks) lands on the PCs a world records.
  const trace::RegionSet fresh;
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
  // Staged-cohort DSS copies tuples into packet buffers; those must sit
  // in the world's address space like everything else it traces.
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
    EXPECT_EQ(got[i].total_events, refs[i].total_events) << "config " << i;
    EXPECT_EQ(SetWords(got[i]), SetWords(refs[i])) << "config " << i;
  }
}

TEST(WorldIsolation, FactoryBuildIsAPureFunctionOfItsConfig) {
  // The decisive difference from the old once-guarded shared database:
  // building the same OLTP config twice through one factory starts from
  // an identical database both times, so the traces are equal word for
  // word. (TPC-C transactions mutate the database; a shared database
  // would make the second build record against post-first-build state.)
  harness::WorkloadFactory factory = TinyFactory();
  const harness::TraceSetConfig oltp = OltpConfig();
  const harness::TraceSet first = factory.Build(oltp);
  const harness::TraceSet second = factory.Build(oltp);
  EXPECT_EQ(SetWords(first), SetWords(second));
}

TEST(WorldIsolation, FactoryBuildsDistinctConfigsConcurrently) {
  harness::WorkloadFactory factory = TinyFactory();

  // Reference traces from serial factory builds.
  const harness::TraceSet ref_oltp = factory.Build(OltpConfig());
  const harness::TraceSet ref_dss = factory.Build(DssConfig());

  // Both configs build from separate threads at once; each must match
  // its reference (same pure build, different world instance).
  harness::TraceSet got_oltp;
  harness::TraceSet got_dss;
  std::thread ta([&] { got_oltp = factory.Build(OltpConfig()); });
  std::thread tb([&] { got_dss = factory.Build(DssConfig()); });
  ta.join();
  tb.join();

  EXPECT_EQ(SetWords(got_oltp), SetWords(ref_oltp));
  EXPECT_EQ(SetWords(got_dss), SetWords(ref_dss));
}

namespace prefix {

struct Case {
  std::string name;
  harness::TraceSetConfig config;  ///< at the larger client count
  uint32_t small_clients;
};

/// A tiny factory that counts into `metrics`.
harness::WorkloadFactory CountingFactory(MetricsRegistry* metrics) {
  harness::WorkloadFactory f = TinyFactory();
  f.metrics = metrics;
  return f;
}

std::vector<Case> Cases() {
  std::vector<Case> out;
  harness::TraceSetConfig oltp = OltpConfig();
  oltp.clients = 5;
  oltp.requests_per_client = 3;
  out.push_back({"OLTP volcano", oltp, 2});

  harness::TraceSetConfig oltp_shaped = oltp;
  oltp_shaped.traffic.key_dist = workload::KeyDist::kZipfian;
  oltp_shaped.traffic.zipf_theta = 0.9;
  oltp_shaped.traffic.arrival = workload::ArrivalShape::kOnOffBurst;
  oltp_shaped.traffic.burst_on = 2;
  oltp_shaped.traffic.burst_off = 1;
  oltp_shaped.traffic.think_instructions = 500;
  out.push_back({"OLTP zipf+burst", oltp_shaped, 3});

  harness::TraceSetConfig dss = DssConfig();
  dss.clients = 7;  // past the six-query mix rotation
  out.push_back({"DSS volcano", dss, 3});
  for (harness::EngineMode e : {harness::EngineMode::kStagedCohort,
                                harness::EngineMode::kStagedTuple}) {
    harness::TraceSetConfig staged = DssConfig();
    staged.clients = 3;
    staged.engine = e;
    out.push_back({std::string("DSS ") + harness::EngineModeName(e), staged,
                   1});
  }

  harness::TraceSetConfig ycsb;
  ycsb.workload = harness::WorkloadKind::kYcsb;
  ycsb.clients = 4;
  ycsb.requests_per_client = 24;
  ycsb.seed = 23;
  out.push_back({"YCSB uniform", ycsb, 2});
  harness::TraceSetConfig ycsb_hot = ycsb;
  ycsb_hot.traffic.key_dist = workload::KeyDist::kHotRotate;
  ycsb_hot.traffic.zipf_theta = 0.99;
  ycsb_hot.traffic.hot_rotate_period = 8;
  out.push_back({"YCSB zipf0.99 hot-rotate", ycsb_hot, 3});

  // Two tenants: only tenant A's clients form a prefix (see below).
  harness::TraceSetConfig tenants = OltpConfig();
  tenants.clients = 3;
  tenants.requests_per_client = 3;
  tenants.tenant2_workload = harness::WorkloadKind::kYcsb;
  tenants.tenant2_clients = 2;
  out.push_back({"OLTP + YCSB tenants", tenants, 2});
  return out;
}

TEST(WorldIsolation, EveryKindBuildsTheSameWordsAndKeepsItsPrefix) {
  // Each kind at two client counts in two separate factories: the same
  // config gives the same words in both, and the smaller build is the
  // larger one's leading traces (tenant A's, for two tenants), data
  // addresses included.
  MetricsRegistry reg_a, reg_b;
  const harness::WorkloadFactory fa = CountingFactory(&reg_a);
  const harness::WorkloadFactory fb = CountingFactory(&reg_b);
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    harness::TraceSetConfig small = c.config;
    small.clients = c.small_clients;
    if (c.config.tenant2_clients == 0) {
      ASSERT_EQ(sweep::TraceSetCache::FamilyKey(small),
                sweep::TraceSetCache::FamilyKey(c.config));
    }
    const harness::TraceSet big = fa.Build(c.config);
    const harness::TraceSet ref = fa.Build(small);
    EXPECT_EQ(SetWords(big), SetWords(fb.Build(c.config)));
    EXPECT_EQ(SetWords(ref), SetWords(fb.Build(small)));
    ASSERT_EQ(big.traces.size(), harness::TotalClients(c.config));
    ASSERT_EQ(ref.traces.size(), harness::TotalClients(small));
    for (uint32_t i = 0; i < c.small_clients; ++i) {
      EXPECT_EQ(TraceWords(big.traces[i]), TraceWords(ref.traces[i]))
          << "client " << i;
    }
  }
  for (const MetricsRegistry* reg : {&reg_a, &reg_b}) {
    // Present (every build folds the counter) and 0.
    EXPECT_EQ(reg->Snapshot().CounterOr("trace.unmapped_addresses", 1), 0u);
  }
}

TEST(WorldIsolation, TwoTenantSetsLackThePrefixProperty) {
  // Tenant B's clients come after tenant A's, and a client's seed derives
  // from its index, so tenant B records different requests when tenant A
  // grows: no prefix of the larger set is the smaller one. FamilyKey
  // therefore keeps `clients` for two-tenant configs — each is a family
  // of one, built on its own.
  const harness::WorkloadFactory f = TinyFactory();
  harness::TraceSetConfig big = OltpConfig();
  big.clients = 3;
  big.requests_per_client = 3;
  big.tenant2_workload = harness::WorkloadKind::kOltp;
  big.tenant2_clients = 1;
  harness::TraceSetConfig small = big;
  small.clients = 2;
  EXPECT_NE(sweep::TraceSetCache::FamilyKey(small),
            sweep::TraceSetCache::FamilyKey(big));

  const harness::TraceSet b = f.Build(big);
  const harness::TraceSet s = f.Build(small);
  ASSERT_EQ(b.traces.size(), 4u);
  ASSERT_EQ(s.traces.size(), 3u);
  // Tenant A alone would slice; tenant B, in the smaller set's last slot,
  // matches neither the larger set's trace in that slot (a tenant-A
  // client) nor its own tenant-B trace.
  for (uint32_t i = 0; i < small.clients; ++i) {
    EXPECT_EQ(TraceWords(b.traces[i]), TraceWords(s.traces[i]))
        << "tenant-A client " << i;
  }
  EXPECT_NE(TraceWords(b.traces[2]), TraceWords(s.traces[2]));
  EXPECT_NE(TraceWords(b.traces[3]), TraceWords(s.traces[2]));
}

TEST(WorldIsolation, ConcurrentShapedBuildsShareOneZetaMemo) {
  // Every shaped client's ZipfGenerator takes its zeta sum from one
  // process-wide memo. Four worlds fill and read it at once (a theta no
  // other test uses, so the first fill races too), and each set must
  // still equal its serial build.
  const harness::WorkloadFactory f = TinyFactory();
  std::vector<harness::TraceSetConfig> configs;
  for (uint64_t seed = 40; seed < 44; ++seed) {
    harness::TraceSetConfig tc;
    tc.workload = seed % 2 == 0 ? harness::WorkloadKind::kYcsb
                                : harness::WorkloadKind::kOltp;
    tc.clients = 2;
    tc.requests_per_client = 4;
    tc.seed = seed;
    tc.traffic.key_dist = workload::KeyDist::kZipfian;
    tc.traffic.zipf_theta = 0.77;
    configs.push_back(tc);
  }
  std::vector<harness::TraceSet> got(configs.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < configs.size(); ++i) {
    threads.emplace_back([&, i] { got[i] = f.Build(configs[i]); });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < configs.size(); ++i) {
    const harness::TraceSet ref = f.Build(configs[i]);
    ASSERT_EQ(got[i].traces.size(), ref.traces.size());
    for (size_t c = 0; c < ref.traces.size(); ++c) {
      EXPECT_EQ(TraceWords(got[i].traces[c]),
                TraceWords(ref.traces[c]))
          << "config " << i << " client " << c;
    }
  }
}

}  // namespace prefix
}  // namespace
}  // namespace stagedcmp::scenario
