// The committed sweep goldens (tests/golden/sweep_<spec>.json) as the
// end-to-end contract of record-once/replay-many: every spec runs
// in-process through SweepRunner at its workload scale
// (ConfigureFactoryForSpec), and its --deterministic JSON — grid,
// resolved configs, trace-set totals and every simulated metric — must
// equal the committed bytes:
//   - cold, at several thread counts (each run rebuilds every trace set
//     on parallel builder threads, so the worker count cannot leak
//     into the output);
//   - warm, replayed from the mapped bundle a cold run wrote;
//   - sharded: shards 0/2 and 1/2 through WriteShardFile and
//     MergeShardReports.
// smoke and skew also hold warm shards, passed out of order, to the
// unsharded run's bytes; smoke runs with every observability sink on;
// skew and shootout cross-check their counter families.
//
// Each case is its own ctest entry (tests/CMakeLists.txt), and
// Goldens.files keeps the cases and the golden directory in step. To
// regenerate a golden after an intended change:
//   build/bench/sweep_main --spec S --deterministic --format json
//       --out tests/golden/sweep_S.json
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace_span.h"
#include "gtest/gtest.h"
#include "sweep/builtin_specs.h"
#include "sweep/runner.h"
#include "sweep/shard.h"
#include "sweep/sinks.h"
#include "sweep/trace_cache.h"

namespace stagedcmp {
namespace {

const std::string kGoldenDir = STAGEDCMP_GOLDEN_DIR;

std::string Golden(const std::string& spec) {
  std::ifstream in(kGoldenDir + "/sweep_" + spec + ".json",
                   std::ios::binary);
  EXPECT_TRUE(in) << "no golden file for spec " << spec;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A fresh factory at the spec's workload scale, as sweep_main builds
/// one per process.
harness::WorkloadFactory SpecFactory(const std::string& spec,
                                     MetricsRegistry* metrics = nullptr) {
  harness::WorkloadFactory factory;
  sweep::ConfigureFactoryForSpec(spec, &factory);
  factory.metrics = metrics;
  return factory;
}

sweep::RunnerOptions Options(uint32_t threads, const std::string& bundle = "",
                             MetricsRegistry* metrics = nullptr) {
  sweep::RunnerOptions options;
  options.threads = threads;
  options.trace_bundle = bundle;
  options.metrics = metrics;
  return options;
}

/// One unsharded run over its own fresh factory and private cache.
sweep::SweepReport RunSpec(const std::string& spec,
                           const sweep::RunnerOptions& options) {
  harness::WorkloadFactory factory = SpecFactory(spec, options.metrics);
  return sweep::SweepRunner(&factory, options).Run(sweep::BuiltinSpec(spec));
}

/// Timing-free sink bytes, as sweep_main --deterministic.
std::string Emit(const sweep::SweepReport& report, const std::string& format) {
  std::ostringstream os;
  sweep::MakeSink(format, /*include_timing=*/false)->Emit(report, os);
  return os.str();
}

size_t DistinctConfigs(const std::string& spec) {
  std::set<sweep::TraceSetCache::Key> keys;
  for (const sweep::Cell& cell : sweep::BuiltinSpec(spec).Expand()) {
    keys.insert(sweep::TraceSetCache::MakeKey(cell.trace));
  }
  return keys.size();
}

/// A bundle path under the test temp dir, removed before and after.
struct TempBundle {
  explicit TempBundle(const std::string& name)
      : path(::testing::TempDir() + "goldens_" + name + ".traces") {
    std::remove(path.c_str());
  }
  ~TempBundle() { std::remove(path.c_str()); }
  const std::string path;
};

/// A cold run: its JSON equals the committed file and every distinct
/// trace config is produced once (built, or sliced from its family).
sweep::SweepReport ExpectColdGolden(const std::string& spec,
                                    const sweep::RunnerOptions& options) {
  const sweep::SweepReport report = RunSpec(spec, options);
  EXPECT_EQ(report.bundle, options.trace_bundle.empty() ? "off" : "cold");
  EXPECT_EQ(report.trace_sets_built, DistinctConfigs(spec));
  EXPECT_EQ(Emit(report, "json"), Golden(spec))
      << spec << " cold at --threads " << options.threads;
  return report;
}

/// A warm run: served from the mapping, nothing built, JSON unchanged.
sweep::SweepReport ExpectWarmGolden(const std::string& spec,
                                    const sweep::RunnerOptions& options) {
  const sweep::SweepReport report = RunSpec(spec, options);
  EXPECT_EQ(report.bundle, "warm");
  EXPECT_EQ(report.bundle_mode, "mmap");
  EXPECT_EQ(report.trace_sets_built, 0u);
  EXPECT_EQ(Emit(report, "json"), Golden(spec))
      << spec << " warm at --threads " << options.threads;
  return report;
}

/// The cold-determinism matrix at --threads 1/2/8: the JSON equals the
/// file and the CSV is the same bytes at every count. The
/// 8-thread run writes `bundle` and counts into `metrics`.
void ExpectColdMatrix(const std::string& spec, const std::string& bundle,
                      MetricsRegistry* metrics) {
  std::string csv_t1;
  for (uint32_t threads : {1u, 2u, 8u}) {
    const bool last = threads == 8;
    const sweep::SweepReport report = ExpectColdGolden(
        spec, Options(threads, last ? bundle : "", last ? metrics : nullptr));
    const std::string csv = Emit(report, "csv");
    if (threads == 1) {
      csv_t1 = csv;
    } else {
      EXPECT_EQ(csv, csv_t1) << spec << " CSV at --threads "
                             << threads;
    }
  }
}

/// Shard `index`/2 of `spec` over its own fresh factory, as one
/// `sweep_main --shard` process writes it.
std::string ShardText(const std::string& spec, uint32_t index,
                      sweep::RunnerOptions options) {
  options.shard_index = index;
  options.shard_count = 2;
  const harness::WorkloadFactory factory = SpecFactory(spec);
  const sweep::SweepReport report = RunSpec(spec, options);
  EXPECT_EQ(report.bundle, options.trace_bundle.empty() ? "off" : "warm");
  std::ostringstream os;
  sweep::WriteShardFile(report, factory, os);
  return os.str();
}

sweep::SweepReport Merge(const std::string& spec,
                         const std::vector<std::string>& texts) {
  sweep::SweepReport merged;
  std::string err;
  EXPECT_TRUE(sweep::MergeShardReports(sweep::BuiltinSpec(spec),
                                       SpecFactory(spec), texts, &merged,
                                       &err))
      << err;
  return merged;
}

/// Shards 0/2 and 1/2 (cold unless `options` names a bundle) merge into
/// the committed golden.
void ExpectShardsMergeToGolden(const std::string& spec,
                               const sweep::RunnerOptions& options) {
  const sweep::SweepReport merged =
      Merge(spec, {ShardText(spec, 0, options), ShardText(spec, 1, options)});
  EXPECT_EQ(Emit(merged, "json"), Golden(spec))
      << spec << " merged shards";
}

/// Warm shards replaying one bundle, passed out of order, merge into
/// the unsharded warm run's bytes; the shard counters cover the grid.
void ExpectWarmShardsMergeToUnsharded(const std::string& spec,
                                      const std::string& bundle) {
  const sweep::SweepReport whole = RunSpec(spec, Options(4, bundle));
  ASSERT_EQ(whole.bundle, "warm");
  MetricsRegistry shard_metrics;
  const std::string s0 = ShardText(spec, 0, Options(4, bundle, &shard_metrics));
  const std::string s1 = ShardText(spec, 1, Options(4, bundle));
  const sweep::SweepReport merged = Merge(spec, {s1, s0});
  EXPECT_EQ(Emit(merged, "json"),
            Emit(whole, "json"))
      << spec << " warm merged shards";

  const MetricsSnapshot m = shard_metrics.Snapshot();
  const uint64_t cells = whole.cells.size();
  const uint64_t assigned = m.CounterOr("shard.cells_assigned");
  EXPECT_EQ(assigned + m.CounterOr("shard.cells_skipped"), cells);
  EXPECT_GT(assigned, 0u);
  EXPECT_LT(assigned, cells);
}

TEST(Goldens, files) {
  // Every sweep_*.json has a case below and every case has its file: a
  // golden nobody diffs, or a case whose golden was deleted, fails here.
  std::set<std::string> cases;
  const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
  for (int i = 0; i < unit.total_test_suite_count(); ++i) {
    const ::testing::TestSuite& suite = *unit.GetTestSuite(i);
    if (std::string(suite.name()) != "Goldens") continue;
    for (int j = 0; j < suite.total_test_count(); ++j) {
      const std::string name = suite.GetTestInfo(j)->name();
      // A spec split by thread count is one case: shootout_t1 -> shootout.
      if (name != "files") cases.insert(name.substr(0, name.find("_t")));
    }
  }
  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(kGoldenDir)) {
    const std::string f = entry.path().filename().string();
    const std::string prefix = "sweep_", suffix = ".json";
    if (f.size() > prefix.size() + suffix.size() &&
        f.compare(0, prefix.size(), prefix) == 0 &&
        f.compare(f.size() - suffix.size(), suffix.size(), suffix) == 0) {
      files.insert(
          f.substr(prefix.size(), f.size() - prefix.size() - suffix.size()));
    }
  }
  EXPECT_EQ(cases, files);
  for (const std::string& spec : cases) {
    EXPECT_TRUE(sweep::HasBuiltinSpec(spec)) << spec;
  }
}

TEST(Goldens, smoke) {
  TempBundle bundle("smoke");
  ExpectColdMatrix("smoke", bundle.path, nullptr);
  ExpectWarmGolden("smoke", Options(1, bundle.path));

  // Every observability sink on at once: the golden must not notice.
  MetricsRegistry registry;
  TraceCollector tracer(/*deterministic=*/true);
  sweep::RunnerOptions observed = Options(8, bundle.path, &registry);
  observed.trace = &tracer;
  const sweep::SweepReport report = ExpectWarmGolden("smoke", observed);
  ASSERT_TRUE(report.has_metrics);
  const MetricsSnapshot& m = report.metrics;
  EXPECT_EQ(m.CounterOr("sweep.sets_built") + m.CounterOr("sweep.sets_sliced"),
            report.trace_sets_built);
  EXPECT_EQ(m.CounterOr("replay.events_replayed"), report.events_replayed());

  std::ostringstream perf;
  sweep::EmitPerfSummary(report, perf);
  const std::string p = perf.str();
  EXPECT_NE(p.find("\n  \"schema_version\": 2,\n"), std::string::npos) << p;
  EXPECT_NE(p.find("\n  \"environment\": {"), std::string::npos) << p;
  EXPECT_NE(p.find("\n  \"events_replayed\": " +
                   std::to_string(m.CounterOr("replay.events_replayed")) +
                   ",\n"),
            std::string::npos)
      << p;
  std::ostringstream snapshot;
  m.WriteJson(snapshot, 2);
  EXPECT_NE(p.find("\n  \"metrics\": " + snapshot.str()), std::string::npos)
      << p;

  std::ostringstream timeline;
  tracer.WriteJson(timeline);
  EXPECT_NE(timeline.str().find("\"cell:"), std::string::npos);
  EXPECT_NE(timeline.str().find("\"build:"), std::string::npos);

  ExpectShardsMergeToGolden("smoke", Options(4));
  ExpectWarmShardsMergeToUnsharded("smoke", bundle.path);
}

TEST(Goldens, skew) {
  // Cold builds fold the traffic shaper's and the YCSB driver's counters
  // into the registry (warm runs build nothing, so they are absent there).
  TempBundle bundle("skew");
  MetricsRegistry registry;
  ExpectColdMatrix("skew", bundle.path, &registry);
  const MetricsSnapshot m = registry.Snapshot();
  for (const char* counter : {"traffic.keys_generated", "traffic.hot_set_hits",
                              "ycsb.requests", "ycsb.ops_read"}) {
    EXPECT_GT(m.CounterOr(counter), 0u) << counter;
  }
  // Every build folds it, and every traced access fell in its world.
  EXPECT_EQ(m.CounterOr("trace.unmapped_addresses", 1), 0u);
  // The traffic knobs round-trip through the bundle header.
  ExpectWarmGolden("skew", Options(8, bundle.path));

  ExpectShardsMergeToGolden("skew", Options(4));
  ExpectWarmShardsMergeToUnsharded("skew", bundle.path);
}

// The directory-vs-reference comparison on these cells is test_smp_arms.
TEST(Goldens, smokesmp) {
  TempBundle bundle("smokesmp");
  ExpectColdGolden("smokesmp", Options(4, bundle.path));
  ExpectWarmGolden("smokesmp", Options(4, bundle.path));
  ExpectShardsMergeToGolden("smokesmp", Options(4));
}

// Multi-tenant cells carry the tenancy boundary through the bundle.
TEST(Goldens, tenants) {
  TempBundle bundle("tenants");
  ExpectColdGolden("tenants", Options(4, bundle.path));
  ExpectWarmGolden("tenants", Options(4, bundle.path));
  ExpectShardsMergeToGolden("tenants", Options(4));
}

// The 1024-node CMP-vs-SMP shootout is the slowest grid, so each cold
// thread count is its own ctest entry.
TEST(Goldens, shootout_t1) { ExpectColdGolden("shootout", Options(1)); }

TEST(Goldens, shootout_t2) { ExpectColdGolden("shootout", Options(2)); }

TEST(Goldens, shootout_t8) {
  TempBundle bundle("shootout");
  {
    // One build per client-count family (OLTP and DSS, each at
    // 16/64/256/1024 clients), the other six sets sliced from them.
    MetricsRegistry registry;
    ExpectColdGolden("shootout", Options(8, bundle.path, &registry));
    const MetricsSnapshot m = registry.Snapshot();
    EXPECT_EQ(m.CounterOr("sweep.sets_built"), 2u);
    EXPECT_EQ(m.CounterOr("sweep.sets_sliced"), 6u);
  }

  // The registry's bus.* counters equal the per-cell sums and the peak
  // gauge the per-cell max: a dropped or double-counted run shows here.
  // Only the SMP cells carry bus data, and each of them used the bus.
  MetricsRegistry registry;
  const sweep::SweepReport warm =
      ExpectWarmGolden("shootout", Options(8, bundle.path, &registry));
  uint64_t transactions = 0, busy_cycles = 0, peak = 0;
  size_t smp_cells = 0;
  for (const sweep::CellResult& cr : warm.cells) {
    SCOPED_TRACE("cell " + std::to_string(cr.cell.index));
    const coresim::SimResult& r = cr.result;
    if (cr.cell.exp.topology != harness::Topology::kSmpPrivate) {
      EXPECT_EQ(r.mem.bus_transactions, 0u);
      EXPECT_EQ(r.mem.bus_busy_cycles, 0u);
      continue;
    }
    ++smp_cells;
    EXPECT_GT(r.mem.bus_transactions, 0u);
    transactions += r.mem.bus_transactions;
    busy_cycles += r.mem.bus_busy_cycles;
    peak = std::max<uint64_t>(peak, r.mem.bus_peak_queue);
  }
  const std::string json = Emit(warm, "json");
  size_t bus_objects = 0;
  for (size_t at = json.find("\"bus\": {"); at != std::string::npos;
       at = json.find("\"bus\": {", at + 1)) {
    ++bus_objects;
  }
  EXPECT_GT(smp_cells, 0u);
  EXPECT_EQ(bus_objects, smp_cells);
  const MetricsSnapshot& m = warm.metrics;
  EXPECT_EQ(m.CounterOr("bus.transactions"), transactions);
  EXPECT_EQ(m.CounterOr("bus.busy_cycles"), busy_cycles);
  const MetricsSnapshot::GaugeValue* gauge =
      m.FindGauge("bus.peak_queue_delay");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(gauge->peak), peak);

  ExpectShardsMergeToGolden("shootout", Options(8, bundle.path));
}

}  // namespace
}  // namespace stagedcmp
