// Sweep engine: spec expansion, trace-set cache sharing, parallel runner
// determinism (thread-count invariance, byte-identical serialized
// output), and equivalence with direct RunExperiment calls.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "harness/config_fields.h"
#include "scenario_util.h"
#include "sweep/builtin_specs.h"
#include "sweep/runner.h"
#include "sweep/sinks.h"
#include "sweep/spec.h"
#include "sweep/trace_bundle.h"
#include "sweep/trace_cache.h"

namespace stagedcmp {
namespace {

/// Runner options with only the thread count set.
sweep::RunnerOptions WithThreads(uint32_t threads) {
  sweep::RunnerOptions options;
  options.threads = threads;
  return options;
}

// Small 2x2x2 grid: cheap enough to simulate many times (also under
// ASan) while still covering both workloads, camps and topologies.
sweep::SweepSpec TinySpec() {
  sweep::SweepSpec spec("tiny", "2x2x2 test grid");
  spec.base_exp.cores = 2;
  spec.base_exp.l2_bytes = 1ull << 20;
  spec.base_exp.saturated = true;
  spec.base_exp.measure_instructions = 400'000;
  spec.base_exp.warmup_instructions = 100'000;
  spec.AddAxis("workload",
               {{"OLTP",
                 [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kOltp;
                   c.trace.clients = 2;
                   c.trace.requests_per_client = 4;
                   c.trace.seed = 5;
                 }},
                {"DSS",
                 [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kDss;
                   c.trace.clients = 2;
                   c.trace.requests_per_client = 1;
                   c.trace.seed = 5;
                 }}});
  spec.AddAxis(
      "camp",
      {{"FC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kFat; }},
       {"LC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kLean; }}});
  spec.AddAxis(
      "system",
      {{"CMP",
        [](sweep::Cell& c) {
          c.exp.topology = harness::Topology::kCmpShared;
        }},
       {"SMP", [](sweep::Cell& c) {
          c.exp.topology = harness::Topology::kSmpPrivate;
        }}});
  return spec;
}

TEST(SweepSpec, TwoByTwoByTwoExpandsToEightCells) {
  const sweep::SweepSpec spec = TinySpec();
  EXPECT_EQ(spec.CrossProductSize(), 8u);
  const std::vector<sweep::Cell> cells = spec.Expand();
  ASSERT_EQ(cells.size(), 8u);

  // Odometer order: first axis outermost, dense indices.
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    ASSERT_EQ(cells[i].values.size(), 3u);
    EXPECT_EQ(cells[i].values[0], i < 4 ? "OLTP" : "DSS");
    EXPECT_EQ(cells[i].values[1], (i / 2) % 2 == 0 ? "FC" : "LC");
    EXPECT_EQ(cells[i].values[2], i % 2 == 0 ? "CMP" : "SMP");
  }
  // Mutators actually landed in the configs.
  EXPECT_EQ(cells[0].trace.workload, harness::WorkloadKind::kOltp);
  EXPECT_EQ(cells[7].trace.workload, harness::WorkloadKind::kDss);
  EXPECT_EQ(cells[2].exp.camp, coresim::Camp::kLean);
  EXPECT_EQ(cells[5].exp.topology, harness::Topology::kSmpPrivate);
  // Axis lookup by name.
  EXPECT_EQ(cells[6].Value(spec.axis_names(), "camp"), "LC");
  EXPECT_EQ(cells[6].Value(spec.axis_names(), "nope"), "");
}

TEST(SweepSpec, FiltersDropCellsAndReindexDensely) {
  sweep::SweepSpec spec = TinySpec();
  spec.AddFilter([](const sweep::Cell& c) {
    return c.exp.camp == coresim::Camp::kFat;
  });
  const std::vector<sweep::Cell> cells = spec.Expand();
  ASSERT_EQ(cells.size(), 4u);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].values[1], "FC");
  }
}

TEST(SweepSpec, NoAxesExpandsToSingleBaseCell) {
  sweep::SweepSpec spec("base-only");
  spec.base_exp.cores = 3;
  const std::vector<sweep::Cell> cells = spec.Expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].exp.cores, 3u);
  EXPECT_TRUE(cells[0].values.empty());
}

TEST(TraceSetCache, BuildsEachDistinctConfigOnceAndShares) {
  harness::WorkloadFactory factory;
  sweep::TraceSetCache cache(&factory);

  harness::TraceSetConfig a;
  a.workload = harness::WorkloadKind::kOltp;
  a.clients = 2;
  a.requests_per_client = 2;
  a.seed = 3;
  harness::TraceSetConfig b = a;
  b.seed = 4;

  const harness::TraceSet& ts1 = cache.Get(a);
  const harness::TraceSet& ts2 = cache.Get(a);
  const harness::TraceSet& ts3 = cache.Get(b);
  EXPECT_EQ(&ts1, &ts2) << "same config must share one TraceSet";
  EXPECT_NE(&ts1, &ts3);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Hammer the cache from many threads; every result must alias the
  // already-built sets and no new builds may happen.
  std::vector<std::thread> pool;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (&cache.Get(a) != &ts1 || &cache.Get(b) != &ts3) ++mismatches;
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.stats().builds, 2u);
}

TEST(TraceSetCache, ConcurrentFirstGetsOfOneConfigShareThePublishedSet) {
  harness::WorkloadFactory factory;
  sweep::TraceSetCache cache(&factory);
  harness::TraceSetConfig cfg;
  cfg.workload = harness::WorkloadKind::kOltp;
  cfg.clients = 2;
  cfg.requests_per_client = 2;
  cfg.seed = 5;

  // Both threads miss and may both build; the first set published wins
  // and both callers must get it.
  const harness::TraceSet* got[2] = {nullptr, nullptr};
  std::thread ta([&] { got[0] = &cache.Get(cfg); });
  std::thread tb([&] { got[1] = &cache.Get(cfg); });
  ta.join();
  tb.join();
  EXPECT_EQ(got[0], got[1]);
  EXPECT_EQ(&cache.Get(cfg), got[0]);
  const uint64_t builds = cache.stats().builds;
  EXPECT_TRUE(builds == 1 || builds == 2) << builds;

  const harness::TraceSet standalone = factory.Build(cfg);
  EXPECT_EQ(scenario::EventSkeleton(*got[0]),
            scenario::EventSkeleton(standalone));
}

TEST(TraceSet, PointerCacheIsStableAndInvalidatesOnMutation) {
  harness::WorkloadFactory factory;
  harness::TraceSetConfig tc;
  tc.workload = harness::WorkloadKind::kOltp;
  tc.clients = 2;
  tc.requests_per_client = 1;
  tc.seed = 9;
  harness::TraceSet ts = factory.Build(tc);

  const auto& p1 = ts.Pointers();
  const auto& p2 = ts.Pointers();
  EXPECT_EQ(&p1, &p2) << "repeat calls must not rebuild the vector";
  ASSERT_EQ(p1.size(), ts.traces.size());
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], &ts.traces[i]);

  // Mutating the trace list invalidates the cache.
  ts.traces.push_back(ts.traces.front());
  const auto& p3 = ts.Pointers();
  ASSERT_EQ(p3.size(), ts.traces.size());
  for (size_t i = 0; i < p3.size(); ++i) EXPECT_EQ(p3[i], &ts.traces[i]);
}

// Exact SimResult equality — every field the sinks serialize.
void ExpectSameResult(const coresim::SimResult& x,
                      const coresim::SimResult& y, size_t cell) {
  EXPECT_EQ(x.instructions, y.instructions) << "cell " << cell;
  EXPECT_EQ(x.elapsed_cycles, y.elapsed_cycles) << "cell " << cell;
  EXPECT_EQ(x.requests_completed, y.requests_completed) << "cell " << cell;
  EXPECT_EQ(x.avg_response_cycles, y.avg_response_cycles) << "cell " << cell;
  EXPECT_EQ(x.l1d_hit_rate, y.l1d_hit_rate) << "cell " << cell;
  EXPECT_EQ(x.l1i_hit_rate, y.l1i_hit_rate) << "cell " << cell;
  EXPECT_EQ(x.l2_hit_rate, y.l2_hit_rate) << "cell " << cell;
  for (int b = 0; b < static_cast<int>(coresim::Bucket::kCount); ++b) {
    EXPECT_EQ(x.breakdown.cycles[static_cast<size_t>(b)],
              y.breakdown.cycles[static_cast<size_t>(b)])
        << "cell " << cell << " bucket " << b;
  }
}

TEST(SweepRunner, ResultsAreIdenticalForOneAndEightThreads) {
  // Both runs replay the same TraceSet instances (shared cache): traces
  // embed heap addresses, so only same-instance replays can be
  // bit-compared — see test_determinism.cc.
  harness::WorkloadFactory factory;
  sweep::TraceSetCache cache(&factory);
  auto run = [&](uint32_t threads) {
    sweep::SweepRunner runner(&factory, WithThreads(threads),
                              &cache);
    return runner.Run(TinySpec());
  };
  const sweep::SweepReport serial = run(1);
  const sweep::SweepReport parallel = run(8);

  ASSERT_EQ(serial.cells.size(), 8u);
  ASSERT_EQ(parallel.cells.size(), 8u);
  for (size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(parallel.cells[i].cell.index, i);
    ExpectSameResult(serial.cells[i].result, parallel.cells[i].result, i);
  }

  // Stronger: the deterministic serialized forms are byte-identical.
  auto to_json = [](const sweep::SweepReport& r) {
    std::ostringstream os;
    sweep::JsonSink(/*include_timing=*/false).Emit(r, os);
    return os.str();
  };
  auto to_csv = [](const sweep::SweepReport& r) {
    std::ostringstream os;
    sweep::CsvSink(/*include_timing=*/false).Emit(r, os);
    return os.str();
  };
  EXPECT_EQ(to_json(serial), to_json(parallel));
  EXPECT_EQ(to_csv(serial), to_csv(parallel));
}

TEST(SweepRunner, CellsMatchDirectRunExperimentCalls) {
  harness::WorkloadFactory factory;
  sweep::TraceSetCache cache(&factory);
  sweep::SweepRunner runner(&factory, WithThreads(4), &cache);
  const sweep::SweepReport report = runner.Run(TinySpec());
  ASSERT_EQ(report.cells.size(), 8u);
  EXPECT_EQ(report.trace_sets_built, 2u) << "one OLTP + one DSS set";

  // Replay each cell by hand over the same shared trace sets; the sweep
  // result must be bit-equal to the direct RunExperiment result.
  for (const sweep::CellResult& cr : report.cells) {
    const harness::TraceSet& traces = cache.Get(cr.cell.trace);
    EXPECT_EQ(traces.total_instructions, cr.trace_total_instructions);
    EXPECT_EQ(traces.total_events, cr.trace_total_events);
    const coresim::SimResult direct =
        harness::RunExperiment(cr.cell.exp, traces);
    ExpectSameResult(cr.result, direct, cr.cell.index);
  }
}

TEST(ClientTrace, ClearKeepsCapacity) {
  trace::ClientTrace t;
  for (uint64_t i = 0; i < 1000; ++i) t.events.push_back(i);
  t.total_instructions = 7;
  t.requests = 3;
  const size_t cap = t.events.capacity();
  ASSERT_GE(cap, 1000u);

  t.Clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.total_instructions, 0u);
  EXPECT_EQ(t.requests, 0u);
  EXPECT_EQ(t.events.capacity(), cap);  // refill path keeps the buffer
}

TEST(TraceSetCache, EvictAllDropsEntriesAndAllowsRebuild) {
  harness::WorkloadFactory factory;
  sweep::TraceSetCache cache(&factory);
  harness::TraceSetConfig cfg;
  cfg.workload = harness::WorkloadKind::kOltp;
  cfg.clients = 2;
  cfg.requests_per_client = 2;
  cfg.seed = 11;

  const harness::TraceSet& first = cache.Get(cfg);
  EXPECT_FALSE(first.traces.empty());
  EXPECT_EQ(cache.stats().builds, 1u);
  cache.Get(cfg);
  EXPECT_EQ(cache.stats().hits, 1u);

  cache.EvictAll();
  const harness::TraceSet& rebuilt = cache.Get(cfg);
  EXPECT_FALSE(rebuilt.traces.empty());
  EXPECT_EQ(cache.stats().builds, 2u);  // evicted entry was really dropped
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Header word where set 0's first index row starts: magic and version,
// the factory's scale knobs, the set count, set 0's config block, its
// two totals and its trace count. A row is requests, total_instructions,
// n_events, offset_bytes, checksum.
uint64_t FirstIndexRowWord(const harness::WorkloadFactory& factory) {
  return 2 + harness::ScaleWords(factory).size() + 1 +
         harness::FieldCount<harness::TraceSetConfig>() + 3;
}

TEST(TraceBundle, SaveThenLoadRoundTripsEveryEvent) {
  harness::WorkloadFactory factory;
  harness::TraceSetConfig cfg;
  cfg.workload = harness::WorkloadKind::kOltp;
  cfg.clients = 2;
  cfg.requests_per_client = 2;
  cfg.seed = 23;
  const harness::TraceSet built = factory.Build(cfg);

  const std::string path = ::testing::TempDir() + "bundle_roundtrip.traces";
  ASSERT_TRUE(sweep::SaveTraceBundle(path, factory, {&built}));

  // The mapped transport serves every event byte-for-byte, and the
  // lazy payload verification passes on the untouched file. Scoped so
  // the mapping is gone before the corruption cases rewrite the file.
  {
    const sweep::BundleOpenResult open =
        sweep::OpenTraceBundle(path, factory, {cfg});
    ASSERT_EQ(open.mode, "mmap");
    ASSERT_EQ(open.sets.size(), 1u);
    const harness::TraceSet& loaded = open.sets[0];
    EXPECT_EQ(loaded.total_instructions, built.total_instructions);
    EXPECT_EQ(loaded.total_events, built.total_events);
    ASSERT_EQ(loaded.traces.size(), built.traces.size());
    for (size_t i = 0; i < built.traces.size(); ++i) {
      const trace::ClientTrace& t = loaded.traces[i];
      EXPECT_EQ(t.requests, built.traces[i].requests);
      EXPECT_EQ(t.total_instructions, built.traces[i].total_instructions);
      EXPECT_EQ(std::vector<uint64_t>(t.events_data(),
                                      t.events_data() + t.events_size()),
                built.traces[i].events);
    }
    EXPECT_TRUE(sweep::VerifyBundleSet(loaded, open.checksums[0]));
  }
  const auto open_mode = [&](const harness::WorkloadFactory& f,
                             const harness::TraceSetConfig& c) {
    return sweep::OpenTraceBundle(path, f, {c}).mode;
  };

  // A different expected sequence or different scale knobs must reject.
  harness::TraceSetConfig other = cfg;
  other.seed = 24;
  EXPECT_EQ(open_mode(factory, other), "cold");
  harness::WorkloadFactory rescaled;
  rescaled.tpcc_config.warehouses += 1;
  EXPECT_EQ(open_mode(rescaled, cfg), "cold");

  // Corruption must reject gracefully (fall back to a cold build), never
  // throw: a truncated file and an absurd in-band length word.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    std::ofstream trunc(path, std::ios::binary | std::ios::trunc);
    trunc.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size() / 2));
    trunc.close();
    EXPECT_EQ(open_mode(factory, cfg), "cold");

    // Restore, then overwrite one word of trace 0's index row. Each stomp
    // must demote to cold.
    const uint64_t row = FirstIndexRowWord(factory);
    uint64_t n_events = 0;
    uint64_t instructions = 0;
    std::memcpy(&n_events, bytes.data() + (row + 2) * 8, 8);
    std::memcpy(&instructions, bytes.data() + (row + 1) * 8, 8);
    ASSERT_EQ(n_events, built.traces[0].events.size());  // layout pinned
    ASSERT_EQ(instructions, built.traces[0].total_instructions);
    const auto stomp_word = [&](uint64_t word, uint64_t value) {
      std::ofstream rewrite(path, std::ios::binary | std::ios::trunc);
      rewrite.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      rewrite.close();
      std::fstream stomp(path,
                         std::ios::binary | std::ios::in | std::ios::out);
      stomp.seekp(static_cast<std::streamoff>(word * 8));
      stomp.write(reinterpret_cast<const char*>(&value), 8);
    };
    // The in-band event count blown up to 2^62 must hit a length bound
    // or the header checksum, not vector::resize.
    stomp_word(row + 2, 1ull << 62);
    EXPECT_EQ(open_mode(factory, cfg), "cold");
    // The instruction count is bounded by nothing but the header
    // checksum.
    stomp_word(row + 1, instructions + 1);
    EXPECT_EQ(open_mode(factory, cfg), "cold");

    // A single flipped bit in the event payload leaves the header valid,
    // so the open maps; the lazy per-set verification must catch it
    // (warm replays promise bit-identity with the run that recorded).
    std::ofstream rewrite2(path, std::ios::binary | std::ios::trunc);
    rewrite2.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    rewrite2.close();
    std::fstream flip(path, std::ios::binary | std::ios::in | std::ios::out);
    flip.seekg(static_cast<std::streamoff>(bytes.size() / 2));
    char b = 0;
    flip.read(&b, 1);
    b = static_cast<char>(b ^ 0x10);
    flip.seekp(static_cast<std::streamoff>(bytes.size() / 2));
    flip.write(&b, 1);
    flip.close();
    const sweep::BundleOpenResult flipped =
        sweep::OpenTraceBundle(path, factory, {cfg});
    ASSERT_EQ(flipped.mode, "mmap");
    EXPECT_FALSE(sweep::VerifyBundleSet(flipped.sets[0], flipped.checksums[0]));
  }
  std::remove(path.c_str());
}

// One small built set plus its bundle on disk, shared by the transport
// tests below.
struct BundleFixture {
  harness::WorkloadFactory factory;
  harness::TraceSetConfig cfg;
  harness::TraceSet built;
  std::string path;

  explicit BundleFixture(const char* name) {
    cfg.workload = harness::WorkloadKind::kOltp;
    cfg.clients = 2;
    cfg.requests_per_client = 2;
    cfg.seed = 23;
    built = factory.Build(cfg);
    path = ::testing::TempDir() + name;
    EXPECT_TRUE(sweep::SaveTraceBundle(path, factory, {&built}));
  }
  ~BundleFixture() { std::remove(path.c_str()); }
};

TEST(TraceBundle, MmapServesZeroCopyViewsVerifiedLazily) {
  BundleFixture fx("bundle_mmap.traces");
  sweep::BundleOpenResult r =
      sweep::OpenTraceBundle(fx.path, fx.factory, {fx.cfg});
  ASSERT_EQ(r.mode, "mmap");
  ASSERT_NE(r.mapping, nullptr);
  EXPECT_GT(r.mapping->size_bytes(), 0u);
  ASSERT_EQ(r.sets.size(), 1u);
  ASSERT_EQ(r.checksums.size(), 1u);
  ASSERT_EQ(r.sets[0].traces.size(), fx.built.traces.size());
  for (size_t i = 0; i < fx.built.traces.size(); ++i) {
    const trace::ClientTrace& t = r.sets[0].traces[i];
    // Zero-copy: events live in the mapping, not in an owning vector.
    EXPECT_NE(t.view_data, nullptr);
    EXPECT_TRUE(t.events.empty());
    ASSERT_EQ(t.events_size(), fx.built.traces[i].events.size());
    EXPECT_EQ(std::vector<uint64_t>(t.events_data(),
                                    t.events_data() + t.events_size()),
              fx.built.traces[i].events);
  }
  // The mapping is pinned by the set's backing keep-alive.
  EXPECT_NE(r.sets[0].backing, nullptr);
  // Lazy payload verification passes on the untouched file and drops
  // each verified trace's pages; the views re-fault the same bytes, so
  // replay sees what was verified, and verifying again still passes.
  EXPECT_TRUE(sweep::VerifyBundleSet(r.sets[0], r.checksums[0]));
  for (size_t i = 0; i < fx.built.traces.size(); ++i) {
    const trace::ClientTrace& t = r.sets[0].traces[i];
    EXPECT_EQ(std::vector<uint64_t>(t.events_data(),
                                    t.events_data() + t.events_size()),
              fx.built.traces[i].events);
  }
  EXPECT_TRUE(sweep::VerifyBundleSet(r.sets[0], r.checksums[0]));
  // An owning set pins no mapping: it is refused, never page-dropped.
  EXPECT_FALSE(sweep::VerifyBundleSet(fx.built, r.checksums[0]));
}

TEST(TraceBundle, MapFailureOnDirectoryDemotesToCold) {
  // A directory opens read-only but cannot be mapped (Linux mmap fails
  // with ENODEV): a real map failure, served as a cold rebuild.
  harness::WorkloadFactory factory;
  harness::TraceSetConfig cfg;
  cfg.workload = harness::WorkloadKind::kOltp;
  cfg.clients = 2;
  const sweep::BundleOpenResult r =
      sweep::OpenTraceBundle(::testing::TempDir(), factory, {cfg});
  EXPECT_EQ(r.mode, "cold");
  EXPECT_EQ(r.mapping, nullptr);
  EXPECT_TRUE(r.sets.empty());
}

TEST(TraceBundle, UnmappableEmptyFileRebuildsColdThenServesWarm) {
  // An empty file cannot be mapped. The runner must rebuild cold, replace
  // the file with a valid bundle, and serve the next run from it warm.
  const std::string path = ::testing::TempDir() + "bundle_empty.traces";
  { std::ofstream empty(path, std::ios::binary | std::ios::trunc); }
  ASSERT_EQ(FileBytes(path).size(), 0u);
  sweep::SweepSpec spec("empty", "one 2-client set, both camps");
  spec.base_exp.cores = 2;
  spec.base_exp.l2_bytes = 1ull << 20;
  spec.base_exp.measure_instructions = 200'000;
  spec.base_exp.warmup_instructions = 50'000;
  spec.base_trace.workload = harness::WorkloadKind::kOltp;
  spec.base_trace.clients = 2;
  spec.base_trace.requests_per_client = 2;
  spec.base_trace.seed = 23;
  spec.AddAxis(
      "camp",
      {{"FC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kFat; }},
       {"LC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kLean; }}});
  auto run = [&](harness::WorkloadFactory* factory) {
    sweep::RunnerOptions options;
    options.threads = 1;
    options.trace_bundle = path;
    sweep::SweepRunner runner(factory, options);
    return runner.Run(spec);
  };
  auto golden = [](const sweep::SweepReport& r) {
    std::ostringstream os;
    sweep::JsonSink(/*include_timing=*/false, /*golden=*/true).Emit(r, os);
    return os.str();
  };
  harness::WorkloadFactory f1, f2;
  const sweep::SweepReport cold = run(&f1);
  EXPECT_EQ(cold.bundle, "cold");
  EXPECT_EQ(cold.bundle_mode, "cold");
  EXPECT_GT(FileBytes(path).size(), 0u);

  const sweep::SweepReport warm = run(&f2);
  EXPECT_EQ(warm.bundle, "warm");
  EXPECT_EQ(warm.bundle_mode, "mmap");
  EXPECT_EQ(warm.trace_sets_built, 0u);
  EXPECT_EQ(golden(cold), golden(warm));
  std::remove(path.c_str());
}

TEST(TraceBundle, WrongVersionOrTruncationDemotesToCold) {
  BundleFixture fx("bundle_cold.traces");
  std::ifstream in(fx.path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();

  // A v2 bundle (or any other version word) must rebuild cold.
  {
    std::fstream stomp(fx.path,
                       std::ios::binary | std::ios::in | std::ios::out);
    const uint64_t v2 = 2;
    stomp.seekp(8);  // word 1: format version
    stomp.write(reinterpret_cast<const char*>(&v2), 8);
  }
  EXPECT_EQ(sweep::OpenTraceBundle(fx.path, fx.factory, {fx.cfg}).mode,
            "cold");

  // Truncation demotes to cold.
  {
    std::ofstream trunc(fx.path, std::ios::binary | std::ios::trunc);
    trunc.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size() - 8));
  }
  EXPECT_EQ(sweep::OpenTraceBundle(fx.path, fx.factory, {fx.cfg}).mode,
            "cold");
}

TEST(TraceBundle, FlippedPayloadWordCaughtLazily) {
  BundleFixture fx("bundle_flip.traces");
  // Flip one bit in trace 0's first payload word. The payload region
  // starts at the 64-byte-aligned end of the header; rather than
  // recompute it, read the recorded offset from index row 0.
  uint64_t offset = 0;
  {
    std::fstream f(fx.path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(
        (FirstIndexRowWord(fx.factory) + 3) * 8));
    f.read(reinterpret_cast<char*>(&offset), 8);
    ASSERT_GT(offset, 0u);
    ASSERT_EQ(offset % 64, 0u);
    uint64_t w = 0;
    f.seekg(static_cast<std::streamoff>(offset));
    f.read(reinterpret_cast<char*>(&w), 8);
    w ^= 1ull << 40;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&w), 8);
  }
  // mmap: the header still validates (payloads are not part of the
  // header checksum) so the open succeeds — the corruption surfaces in
  // the per-set lazy verification.
  sweep::BundleOpenResult r =
      sweep::OpenTraceBundle(fx.path, fx.factory, {fx.cfg});
  ASSERT_EQ(r.mode, "mmap");
  EXPECT_FALSE(sweep::VerifyBundleSet(r.sets[0], r.checksums[0]));
}

TEST(TraceBundle, FileBytesSurvivesPastTwoGiB) {
  // Regression for the ftell-into-long truncation: sizes past 2^31 must
  // come back exact. Sparse file — no real disk is consumed.
  const std::string path = ::testing::TempDir() + "bundle_sparse.bin";
  const int64_t size = (int64_t{1} << 31) + (int64_t{1} << 29) + 4096;
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fseeko(f, size - 1, SEEK_SET), 0);
    std::fputc(0, f);
    std::fclose(f);
  }
  EXPECT_EQ(sweep::BundleFileBytes(path), size);
  std::remove(path.c_str());
  EXPECT_LT(sweep::BundleFileBytes(path), 0);  // missing file: negative
}

TEST(TraceBundle, WarmSweepReplaysBitIdenticalToColdSweep) {
  const std::string path = ::testing::TempDir() + "bundle_sweep.traces";
  std::remove(path.c_str());

  auto run = [&](harness::WorkloadFactory* factory) {
    sweep::RunnerOptions options;
    options.threads = 1;
    options.trace_bundle = path;
    sweep::SweepRunner runner(factory, options);
    return runner.Run(TinySpec());
  };
  // Cold: generates traces and writes the bundle.
  harness::WorkloadFactory cold_factory;
  const sweep::SweepReport cold = run(&cold_factory);
  EXPECT_EQ(cold.bundle, "cold");
  EXPECT_GT(cold.trace_sets_built, 0u);

  // Warm, with a FRESH factory: nothing may regenerate, and because the
  // bundle preserves trace bytes exactly, every simulated metric — and
  // the serialized JSON — must be bit-identical to the cold run.
  harness::WorkloadFactory warm_factory;
  const sweep::SweepReport warm = run(&warm_factory);
  EXPECT_EQ(warm.bundle, "warm");
  EXPECT_EQ(warm.trace_sets_built, 0u);

  ASSERT_EQ(cold.cells.size(), warm.cells.size());
  for (size_t i = 0; i < cold.cells.size(); ++i) {
    ExpectSameResult(cold.cells[i].result, warm.cells[i].result, i);
  }
  auto to_json = [](const sweep::SweepReport& r) {
    std::ostringstream os;
    sweep::JsonSink(/*include_timing=*/false).Emit(r, os);
    return os.str();
  };
  EXPECT_EQ(to_json(cold), to_json(warm));
  std::remove(path.c_str());
}

TEST(TraceBundle, LazyMismatchRebuildsColdAndReportsPartial) {
  const std::string path = ::testing::TempDir() + "bundle_partial.traces";
  std::remove(path.c_str());
  auto run = [&](harness::WorkloadFactory* factory) {
    sweep::RunnerOptions options;
    options.threads = 1;
    options.trace_bundle = path;
    sweep::SweepRunner runner(factory, options);
    return runner.Run(TinySpec());
  };
  harness::WorkloadFactory f1, f2, f3;
  const sweep::SweepReport cold = run(&f1);
  ASSERT_EQ(cold.bundle, "cold");

  // Corrupt set 0's first payload word (offset read from index row 0).
  // The mmap open still succeeds; only the lazy per-set verification on
  // a builder thread notices, rebuilds that set cold, and flags the run.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    uint64_t offset = 0;
    f.seekg(static_cast<std::streamoff>((FirstIndexRowWord(f1) + 3) * 8));
    f.read(reinterpret_cast<char*>(&offset), 8);
    ASSERT_GT(offset, 0u);
    ASSERT_EQ(offset % 64, 0u);
    uint64_t w = 0;
    f.seekg(static_cast<std::streamoff>(offset));
    f.read(reinterpret_cast<char*>(&w), 8);
    w ^= 1ull << 40;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&w), 8);
  }
  const sweep::SweepReport partial = run(&f2);
  EXPECT_EQ(partial.bundle, "partial");
  EXPECT_GT(partial.trace_sets_built, 0u);  // the bad set rebuilt cold
  auto golden = [](const sweep::SweepReport& r) {
    std::ostringstream os;
    sweep::JsonSink(/*include_timing=*/false, /*golden=*/true).Emit(r, os);
    return os.str();
  };
  EXPECT_EQ(golden(cold), golden(partial));

  // The partial run rewrote the bundle, so the next run is fully warm.
  const sweep::SweepReport warm = run(&f3);
  EXPECT_EQ(warm.bundle, "warm");
  EXPECT_EQ(warm.trace_sets_built, 0u);
  std::remove(path.c_str());
}

// Three sets, one of them two-tenant, so a bundle's header geometry
// (one index row per client of either tenant) is pinned by the configs.
sweep::SweepSpec StreamSpec() {
  sweep::SweepSpec spec("stream", "three sets, one two-tenant");
  spec.base_exp.cores = 2;
  spec.base_exp.l2_bytes = 1ull << 20;
  spec.base_exp.measure_instructions = 200'000;
  spec.base_exp.warmup_instructions = 50'000;
  spec.AddAxis("workload",
               {{"OLTP",
                 [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kOltp;
                   c.trace.clients = 2;
                   c.trace.requests_per_client = 2;
                   c.trace.seed = 7;
                 }},
                {"DSS",
                 [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kDss;
                   c.trace.clients = 1;
                   c.trace.requests_per_client = 1;
                   c.trace.seed = 7;
                 }},
                {"OLTP+DSS", [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kOltp;
                   c.trace.clients = 2;
                   c.trace.requests_per_client = 1;
                   c.trace.seed = 7;
                   c.trace.tenant2_workload = harness::WorkloadKind::kDss;
                   c.trace.tenant2_clients = 1;
                 }}});
  spec.AddAxis(
      "camp",
      {{"FC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kFat; }},
       {"LC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kLean; }}});
  return spec;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

TEST(TraceBundle, StreamedRunnerBundleByteIdenticalToSaveTraceBundle) {
  const std::string streamed = ::testing::TempDir() + "bundle_streamed.traces";
  const std::string saved = ::testing::TempDir() + "bundle_saved.traces";
  std::remove(streamed.c_str());
  harness::WorkloadFactory factory;
  sweep::TraceSetCache cache(&factory);
  sweep::RunnerOptions options;
  options.threads = 3;
  options.trace_bundle = streamed;
  const sweep::SweepReport r =
      sweep::SweepRunner(&factory, options, &cache).Run(StreamSpec());
  ASSERT_EQ(r.bundle, "cold");
  ASSERT_EQ(r.trace_sets_built, 3u);

  // The same sets, in canonical (first-use) order, through the one-shot
  // save. The shared cache still holds every set: these Gets are hits.
  std::vector<const harness::TraceSet*> sets;
  for (const sweep::CellResult& cr : r.cells) {
    const harness::TraceSet* ts = &cache.Get(cr.cell.trace);
    if (std::find(sets.begin(), sets.end(), ts) == sets.end()) {
      sets.push_back(ts);
    }
  }
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[2]->traces.size(), 3u);  // 2 tenant-A + 1 tenant-B
  EXPECT_EQ(cache.stats().builds, 3u);
  ASSERT_TRUE(sweep::SaveTraceBundle(saved, factory, sets));

  const std::string a = FileBytes(streamed);
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(a == FileBytes(saved)) << "streamed bundle differs";
  EXPECT_FALSE(FileExists(streamed + ".tmp"));

  // Both files come from the one writer, so also pin that it wrote a
  // valid bundle: the reader's geometry and checksum checks accept it.
  std::vector<harness::TraceSetConfig> configs;
  for (const harness::TraceSet* ts : sets) configs.push_back(ts->config);
  const sweep::BundleOpenResult open =
      sweep::OpenTraceBundle(streamed, factory, configs);
  ASSERT_EQ(open.mode, "mmap");
  for (size_t j = 0; j < configs.size(); ++j) {
    EXPECT_TRUE(sweep::VerifyBundleSet(open.sets[j], open.checksums[j]));
    EXPECT_EQ(open.sets[j].total_events, sets[j]->total_events);
  }
  std::remove(streamed.c_str());
  std::remove(saved.c_str());
}

// {OLTP, DSS} x clients {1, 2, 4} plus one two-tenant cell: three
// client-count families — OLTP, DSS, and the two-tenant set alone — so
// three builds and four slices. `descending` lists the clients axis
// largest first, which puts each family's leader first in canonical
// order instead of last.
sweep::SweepSpec FamilySpec(bool descending) {
  sweep::SweepSpec spec(descending ? "family-desc" : "family",
                        "client-count families");
  spec.base_exp.cores = 2;
  spec.base_exp.l2_bytes = 1ull << 20;
  spec.base_exp.measure_instructions = 50'000;
  spec.base_exp.warmup_instructions = 10'000;
  spec.AddAxis("workload",
               {{"OLTP",
                 [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kOltp;
                   c.trace.requests_per_client = 2;
                   c.trace.seed = 7;
                 }},
                {"DSS",
                 [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kDss;
                   c.trace.requests_per_client = 1;
                   c.trace.seed = 7;
                 }},
                {"OLTP+DSS", [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kOltp;
                   c.trace.requests_per_client = 1;
                   c.trace.seed = 7;
                   c.trace.tenant2_workload = harness::WorkloadKind::kDss;
                   c.trace.tenant2_clients = 1;
                 }}});
  std::vector<sweep::SweepSpec::AxisValue> clients;
  const std::vector<uint32_t> counts =
      descending ? std::vector<uint32_t>{4, 2, 1}
                 : std::vector<uint32_t>{1, 2, 4};
  for (uint32_t n : counts) {
    clients.push_back({std::to_string(n),
                       [n](sweep::Cell& c) { c.trace.clients = n; }});
  }
  spec.AddAxis("clients", std::move(clients));
  spec.AddFilter([](const sweep::Cell& c) {
    return c.trace.tenant2_clients == 0 || c.trace.clients == 2;
  });
  return spec;
}

harness::WorkloadFactory TinyFactory() {
  harness::WorkloadFactory f;
  scenario::ApplyTinyScale(&f);
  return f;
}

bool IsFamilyLeader(const harness::TraceSetConfig& c) {
  return c.clients == 4 || c.tenant2_clients > 0;
}

std::string GoldenJson(const sweep::SweepReport& r) {
  std::ostringstream os;
  sweep::JsonSink(/*include_timing=*/false, /*golden=*/true).Emit(r, os);
  return os.str();
}

TEST(SweepRunner, FamilyGridBuildsEachFamilyOnceAndSlicesTheRest) {
  harness::WorkloadFactory factory = TinyFactory();
  // Standalone builds of every config, shared by both axis orders.
  sweep::TraceSetCache standalone(&factory);
  for (bool descending : {false, true}) {
    SCOPED_TRACE(descending ? "descending" : "ascending");
    MetricsRegistry reg;
    sweep::TraceSetCache cache(&factory, &reg);
    sweep::RunnerOptions options;
    options.threads = 4;
    options.metrics = &reg;
    const sweep::SweepReport r =
        sweep::SweepRunner(&factory, options, &cache)
            .Run(FamilySpec(descending));
    ASSERT_EQ(r.cells.size(), 7u);
    EXPECT_EQ(cache.stats().builds, 3u) << "one build per family";
    EXPECT_EQ(cache.stats().slices, 4u);
    EXPECT_EQ(r.trace_sets_built, 7u) << "built or sliced, every set counts";
    // One build task per family: each family's leader is one miss.
    EXPECT_EQ(r.metrics.CounterOr("trace_cache.misses"), 3u);
    EXPECT_EQ(r.metrics.CounterOr("trace_cache.slices"), 4u);

    // Every cell's set — slice or build — has the skeleton of a
    // standalone build of its own config.
    for (const sweep::CellResult& cr : r.cells) {
      SCOPED_TRACE("cell " + std::to_string(cr.cell.index));
      const harness::TraceSet& got = cache.Get(cr.cell.trace);
      const harness::TraceSet& ref = standalone.Get(cr.cell.trace);
      EXPECT_EQ(got.leader == nullptr, IsFamilyLeader(cr.cell.trace));
      ASSERT_EQ(got.traces.size(), ref.traces.size());
      EXPECT_EQ(got.tenant_a_clients, ref.tenant_a_clients);
      EXPECT_EQ(cr.trace_total_instructions, ref.total_instructions);
      EXPECT_EQ(cr.trace_total_events, ref.total_events);
      EXPECT_EQ(scenario::EventSkeleton(got), scenario::EventSkeleton(ref));
      for (size_t i = 0; i < got.traces.size(); ++i) {
        EXPECT_EQ(got.traces[i].requests, ref.traces[i].requests);
        EXPECT_EQ(got.traces[i].total_instructions,
                  ref.traces[i].total_instructions);
      }
    }
    EXPECT_EQ(cache.stats().builds, 3u);  // the Gets above were all hits
  }
  EXPECT_EQ(standalone.stats().builds, 7u);
}

TEST(SweepRunner, FamilyGridGoldenByteIdenticalAcrossThreadCounts) {
  for (bool descending : {false, true}) {
    SCOPED_TRACE(descending ? "descending" : "ascending");
    harness::WorkloadFactory factory = TinyFactory();
    sweep::TraceSetCache cache(&factory);
    auto run_cold = [&](uint32_t threads) {
      cache.EvictAll();
      const sweep::SweepReport r =
          sweep::SweepRunner(&factory, WithThreads(threads), &cache)
              .Run(FamilySpec(descending));
      std::ostringstream csv;
      sweep::CsvSink(/*include_timing=*/false, /*golden=*/true).Emit(r, csv);
      return std::make_pair(GoldenJson(r), csv.str());
    };
    const auto reference = run_cold(1);
    for (uint32_t threads : {2u, 8u}) {
      const auto got = run_cold(threads);
      EXPECT_EQ(reference.first, got.first) << "JSON at --threads " << threads;
      EXPECT_EQ(reference.second, got.second) << "CSV at --threads " << threads;
    }
    EXPECT_EQ(cache.stats().builds, 9u);   // three cold runs x 3 families
    EXPECT_EQ(cache.stats().slices, 12u);  // three cold runs x 4 slices
  }
}

TEST(TraceBundle, FamilyGridStreamsLikeSaveTraceBundleAndReopensWarm) {
  for (bool descending : {false, true}) {
    SCOPED_TRACE(descending ? "descending" : "ascending");
    const std::string streamed = ::testing::TempDir() + "family.traces";
    const std::string saved = ::testing::TempDir() + "family_saved.traces";
    std::remove(streamed.c_str());
    harness::WorkloadFactory factory = TinyFactory();
    sweep::TraceSetCache cache(&factory);
    sweep::RunnerOptions options;
    options.threads = 3;
    options.trace_bundle = streamed;
    const sweep::SweepReport cold =
        sweep::SweepRunner(&factory, options, &cache)
            .Run(FamilySpec(descending));
    ASSERT_EQ(cold.bundle, "cold");
    ASSERT_EQ(cold.trace_sets_built, 7u);

    // The same sets, in canonical order, through the one-shot save: a
    // slice is persisted as a set of its own, byte for byte.
    std::vector<const harness::TraceSet*> sets;
    for (const sweep::CellResult& cr : cold.cells) {
      const harness::TraceSet* ts = &cache.Get(cr.cell.trace);
      if (std::find(sets.begin(), sets.end(), ts) == sets.end()) {
        sets.push_back(ts);
      }
    }
    ASSERT_EQ(sets.size(), 7u);
    ASSERT_TRUE(sweep::SaveTraceBundle(saved, factory, sets));
    EXPECT_TRUE(FileBytes(streamed) == FileBytes(saved))
        << "streamed bundle differs";

    std::vector<harness::TraceSetConfig> configs;
    for (const harness::TraceSet* ts : sets) configs.push_back(ts->config);
    const sweep::BundleOpenResult open =
        sweep::OpenTraceBundle(streamed, factory, configs);
    ASSERT_EQ(open.mode, "mmap");
    for (size_t j = 0; j < configs.size(); ++j) {
      EXPECT_TRUE(sweep::VerifyBundleSet(open.sets[j], open.checksums[j]))
          << "set " << j;
    }

    // A fresh factory and private cache replay the bundle warm: nothing
    // builds or slices, and the golden bytes match the cold run.
    harness::WorkloadFactory warm_factory = TinyFactory();
    const sweep::SweepReport warm =
        sweep::SweepRunner(&warm_factory, options).Run(FamilySpec(descending));
    EXPECT_EQ(warm.bundle, "warm");
    EXPECT_EQ(warm.trace_sets_built, 0u);
    EXPECT_EQ(GoldenJson(cold), GoldenJson(warm));
    std::remove(streamed.c_str());
    std::remove(saved.c_str());
  }
}

TEST(SweepRunner, SliceOutlivesItsLeadersCacheEntry) {
  harness::WorkloadFactory factory = TinyFactory();
  sweep::TraceSetCache cache(&factory);
  const sweep::SweepReport r =
      sweep::SweepRunner(&factory, WithThreads(2), &cache)
          .Run(FamilySpec(/*descending=*/false));
  // Cell 1 is OLTP at two clients, a slice of the four-client OLTP set.
  const sweep::CellResult& cell = r.cells[1];
  ASSERT_EQ(cell.cell.trace.clients, 2u);
  ASSERT_EQ(cell.cell.trace.workload, harness::WorkloadKind::kOltp);
  const harness::TraceSet& slice = cache.Get(cell.cell.trace);
  ASSERT_NE(slice.leader, nullptr);

  harness::TraceSetConfig leader = cell.cell.trace;
  leader.clients = 4;
  ASSERT_TRUE(cache.Release(leader));
  // The slice pins the leader's storage: it still replays the same bytes
  // (ASan turns a dangling view into a hard failure here).
  ExpectSameResult(cell.result,
                   harness::RunExperiment(cell.cell.exp, slice),
                   cell.cell.index);
  // A fresh Get of the leader rebuilds it; the slice is untouched.
  EXPECT_NE(&cache.Get(leader), slice.leader.get());
  EXPECT_EQ(cache.stats().builds, 4u);

  // A private cache frees every set, slices and leaders alike, once.
  MetricsRegistry reg;
  sweep::RunnerOptions options;
  options.threads = 4;
  options.metrics = &reg;
  const sweep::SweepReport private_run =
      sweep::SweepRunner(&factory, options).Run(FamilySpec(false));
  EXPECT_EQ(private_run.metrics.CounterOr("sweep.sets_released"), 7u);
  EXPECT_EQ(private_run.metrics.CounterOr("trace_cache.evictions"), 7u);
}

TEST(TraceSetCache, SliceRefusesForeignConfigsAndUncachedLeaders) {
  harness::WorkloadFactory factory = TinyFactory();
  sweep::TraceSetCache cache(&factory);
  harness::TraceSetConfig leader;
  leader.workload = harness::WorkloadKind::kOltp;
  leader.clients = 3;
  leader.requests_per_client = 1;
  leader.seed = 5;
  harness::TraceSetConfig member = leader;
  member.clients = 1;
  EXPECT_THROW(cache.Slice(member, leader), std::invalid_argument)
      << "leader not cached yet";
  cache.Get(leader);
  harness::TraceSetConfig other_seed = member;
  other_seed.seed = 6;
  EXPECT_THROW(cache.Slice(other_seed, leader), std::invalid_argument);
  harness::TraceSetConfig bigger = leader;
  bigger.clients = 4;
  EXPECT_THROW(cache.Slice(bigger, leader), std::invalid_argument);
  harness::TraceSetConfig tenants = member;
  tenants.tenant2_clients = 1;
  EXPECT_THROW(cache.Slice(tenants, leader), std::invalid_argument);

  const harness::TraceSet& slice = cache.Slice(member, leader);
  EXPECT_EQ(slice.traces.size(), 1u);
  EXPECT_EQ(&cache.Slice(member, leader), &slice);  // served once
  EXPECT_EQ(&cache.Get(member), &slice);
  EXPECT_EQ(cache.stats().slices, 1u);
  EXPECT_EQ(cache.stats().builds, 1u);
}

TEST(SweepRunner, PrivateCacheReleasesEachSetOnceSharedCacheNone) {
  const std::string path = ::testing::TempDir() + "bundle_release.traces";
  std::remove(path.c_str());
  harness::WorkloadFactory factory;
  // Private cache, cold, streaming into a bundle: every distinct set is
  // freed exactly once, after its last cell and its append.
  {
    MetricsRegistry reg;
    sweep::RunnerOptions options;
    options.threads = 4;
    options.trace_bundle = path;
    options.metrics = &reg;
    const sweep::SweepReport r =
        sweep::SweepRunner(&factory, options).Run(StreamSpec());
    ASSERT_EQ(r.bundle, "cold");
    EXPECT_EQ(r.metrics.CounterOr("sweep.sets_released"), 3u);
    EXPECT_EQ(r.metrics.CounterOr("trace_cache.evictions"), 3u);
    EXPECT_EQ(r.metrics.CounterOr("sweep.cells_simulated"), 6u);
  }
  // The streamed file serves the next run warm.
  {
    sweep::RunnerOptions options;
    options.threads = 1;
    options.trace_bundle = path;
    EXPECT_EQ(sweep::SweepRunner(&factory, options).Run(StreamSpec()).bundle,
              "warm");
  }
  std::remove(path.c_str());
  // A caller's shared cache is never released into.
  {
    MetricsRegistry reg;
    sweep::TraceSetCache cache(&factory, &reg);
    sweep::RunnerOptions options;
    options.threads = 4;
    options.trace_bundle = path;
    options.metrics = &reg;
    const sweep::SweepReport r =
        sweep::SweepRunner(&factory, options, &cache).Run(StreamSpec());
    ASSERT_EQ(r.bundle, "cold");
    EXPECT_EQ(r.metrics.CounterOr("sweep.sets_released"), 0u);
    EXPECT_EQ(r.metrics.CounterOr("trace_cache.evictions"), 0u);
    for (const sweep::CellResult& cr : r.cells) cache.Get(cr.cell.trace);
    EXPECT_EQ(cache.stats().builds, 3u);  // every Get above was a hit
  }
  std::remove(path.c_str());
}

TEST(TraceBundle, FailedOrAbandonedWriterLeavesNoFile) {
  harness::WorkloadFactory factory;
  harness::TraceSetConfig cfg;
  cfg.workload = harness::WorkloadKind::kOltp;
  cfg.clients = 2;
  cfg.requests_per_client = 1;
  cfg.seed = 9;
  const harness::TraceSet built = factory.Build(cfg);

  // The temp file cannot be opened: nothing appears.
  const std::string missing_dir =
      ::testing::TempDir() + "no_such_dir/bundle.traces";
  {
    sweep::BundleWriter w;
    EXPECT_FALSE(w.Begin(missing_dir, factory, {cfg}));
    EXPECT_FALSE(w.Append(built));
    EXPECT_FALSE(w.Finish());
  }
  EXPECT_FALSE(FileExists(missing_dir));
  EXPECT_FALSE(FileExists(missing_dir + ".tmp"));

  // Destroyed before Finish(): the half-written temp file is removed.
  const std::string path = ::testing::TempDir() + "bundle_abandoned.traces";
  std::remove(path.c_str());
  {
    sweep::BundleWriter w;
    ASSERT_TRUE(w.Begin(path, factory, {cfg, cfg}));
    ASSERT_TRUE(w.Append(built));
    EXPECT_TRUE(FileExists(path + ".tmp"));
  }
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));

  // A set whose trace count disagrees with its config is refused, and
  // so is Finish() before the last set.
  harness::TraceSet short_set = factory.Build(cfg);
  short_set.traces.pop_back();
  {
    sweep::BundleWriter w;
    ASSERT_TRUE(w.Begin(path, factory, {cfg}));
    EXPECT_FALSE(w.Append(short_set));
  }
  {
    sweep::BundleWriter w;
    ASSERT_TRUE(w.Begin(path, factory, {cfg, cfg}));
    ASSERT_TRUE(w.Append(built));
    EXPECT_FALSE(w.Finish());
  }
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(SweepRunner, ShardedRunExecutesAssignedCellsAndSkipsForeignBuilds) {
  // Workload as the LAST axis, so it alternates with cell parity: shard
  // 0/2 only ever needs OLTP traces and must not build the DSS set.
  sweep::SweepSpec spec("shardtest");
  spec.base_exp.cores = 2;
  spec.base_exp.l2_bytes = 1ull << 20;
  spec.base_exp.measure_instructions = 400'000;
  spec.base_exp.warmup_instructions = 100'000;
  spec.AddAxis(
      "camp",
      {{"FC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kFat; }},
       {"LC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kLean; }}});
  spec.AddAxis("workload",
               {{"OLTP",
                 [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kOltp;
                   c.trace.clients = 2;
                   c.trace.requests_per_client = 4;
                   c.trace.seed = 5;
                 }},
                {"DSS",
                 [](sweep::Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kDss;
                   c.trace.clients = 2;
                   c.trace.requests_per_client = 1;
                   c.trace.seed = 5;
                 }}});

  harness::WorkloadFactory factory;
  MetricsRegistry reg;
  sweep::RunnerOptions options;
  options.threads = 2;
  options.shard_index = 0;
  options.shard_count = 2;
  options.metrics = &reg;
  const sweep::SweepReport r =
      sweep::SweepRunner(&factory, options).Run(spec);

  ASSERT_EQ(r.cells.size(), 4u);  // the FULL grid is expanded
  EXPECT_EQ(r.shard_index, 0u);
  EXPECT_EQ(r.shard_count, 2u);
  for (const sweep::CellResult& cr : r.cells) {
    if (cr.cell.index % 2 == 0) {
      EXPECT_GT(cr.result.instructions, 0u) << "cell " << cr.cell.index;
    } else {
      // Unassigned slots stay default-constructed.
      EXPECT_EQ(cr.result.instructions, 0u) << "cell " << cr.cell.index;
    }
  }
  EXPECT_EQ(r.trace_sets_built, 1u);  // only the OLTP set; DSS skipped
  EXPECT_EQ(r.metrics.CounterOr("shard.cells_assigned"), 2u);
  EXPECT_EQ(r.metrics.CounterOr("shard.cells_skipped"), 2u);
  // Its private cache frees the one set it built after the last cell.
  EXPECT_EQ(r.metrics.CounterOr("sweep.sets_released"), 1u);
}

TEST(Observability, MetricsCrossCheckAndResultsUnperturbed) {
  // Two runs of the same spec over separate caches: one instrumented,
  // one not. The metrics must cross-check against the report, and the
  // golden serialized output must not notice observability at all.
  harness::WorkloadFactory factory;
  auto golden_json = [](const sweep::SweepReport& r) {
    std::ostringstream os;
    sweep::JsonSink(/*include_timing=*/false, /*golden=*/true).Emit(r, os);
    return os.str();
  };

  MetricsRegistry reg;
  sweep::TraceSetCache cache(&factory, &reg);
  sweep::RunnerOptions options;
  options.threads = 4;
  options.metrics = &reg;
  const sweep::SweepReport instrumented =
      sweep::SweepRunner(&factory, options, &cache).Run(TinySpec());

  sweep::TraceSetCache plain_cache(&factory);
  const sweep::SweepReport plain =
      sweep::SweepRunner(&factory, WithThreads(4), &plain_cache)
          .Run(TinySpec());
  EXPECT_FALSE(plain.has_metrics);
  EXPECT_EQ(golden_json(instrumented), golden_json(plain));

  ASSERT_TRUE(instrumented.has_metrics);
  const MetricsSnapshot& m = instrumented.metrics;
  // Replay counters agree with the report's own accounting.
  EXPECT_EQ(m.CounterOr("replay.events_replayed"),
            instrumented.events_replayed());
  EXPECT_EQ(m.CounterOr("replay.runs"), 8u);
  EXPECT_EQ(m.CounterOr("sweep.cells_simulated"), 8u);
  // Cache invariants: every lookup is a hit or a miss; the tiny grid has
  // two distinct configs, each built exactly once by its own build task.
  EXPECT_EQ(m.CounterOr("trace_cache.lookups"),
            m.CounterOr("trace_cache.hits") +
                m.CounterOr("trace_cache.misses"));
  EXPECT_EQ(m.CounterOr("trace_cache.misses"), 2u);
  EXPECT_EQ(instrumented.trace_sets_built, 2u);
}

TEST(Observability, RunExperimentMetricsNeverChangeResults) {
  harness::WorkloadFactory factory;
  harness::TraceSetConfig cfg;
  cfg.workload = harness::WorkloadKind::kOltp;
  cfg.clients = 2;
  cfg.requests_per_client = 2;
  cfg.seed = 3;
  const harness::TraceSet traces = factory.Build(cfg);
  harness::ExperimentConfig exp;
  exp.cores = 2;
  exp.l2_bytes = 1ull << 20;
  exp.measure_instructions = 200'000;
  exp.warmup_instructions = 50'000;

  const coresim::SimResult bare = harness::RunExperiment(exp, traces);
  MetricsRegistry reg;
  const coresim::SimResult observed =
      harness::RunExperiment(exp, traces, &reg);
  ExpectSameResult(bare, observed, 0);

  const MetricsSnapshot m = reg.Snapshot();
  EXPECT_EQ(m.CounterOr("replay.runs"), 1u);
  EXPECT_EQ(m.CounterOr("replay.events_replayed"), observed.events_replayed);
  EXPECT_EQ(m.CounterOr("replay.instructions"), observed.instructions);
  const int l1 = static_cast<int>(memsim::AccessClass::kL1Hit);
  EXPECT_EQ(m.CounterOr("replay.data_l1_hits"),
            observed.mem.data_count[l1]);
}

TEST(Observability, DeterministicTraceByteStableAcrossThreadCounts) {
  // Same shared cache (same trace instances), deterministic collectors:
  // the flushed timeline must be byte-identical whatever the thread
  // count — the cold first run included, because the span SET (sweep,
  // one build per distinct config, one cell span per cell) is invariant.
  harness::WorkloadFactory factory;
  sweep::TraceSetCache cache(&factory);
  auto run_traced = [&](uint32_t threads) {
    TraceCollector tc(/*deterministic=*/true);
    sweep::RunnerOptions options;
    options.threads = threads;
    options.trace = &tc;
    sweep::SweepRunner(&factory, options, &cache).Run(TinySpec());
    std::ostringstream os;
    tc.WriteJson(os);
    return os.str();
  };
  const std::string cold = run_traced(1);
  const std::string warm1 = run_traced(1);
  const std::string warm8 = run_traced(8);
  EXPECT_EQ(cold, warm1);
  EXPECT_EQ(warm1, warm8);
  // Spot-check the taxonomy landed: the sweep span, a build span per
  // distinct config, a cell span per cell.
  EXPECT_NE(cold.find("\"sweep:tiny\""), std::string::npos);
  EXPECT_NE(cold.find("\"build:OLTP/c2/r4/s5/e0\""), std::string::npos);
  EXPECT_NE(cold.find("\"cell:7\""), std::string::npos);
}

TEST(BuiltinSpecs, AllNamesExpandToTheExpectedGrids) {
  EXPECT_TRUE(sweep::HasBuiltinSpec("fig7"));
  EXPECT_FALSE(sweep::HasBuiltinSpec("fig99"));
  EXPECT_EQ(sweep::BuiltinSpec("smoke").Expand().size(), 4u);
  EXPECT_EQ(sweep::BuiltinSpec("fig4").Expand().size(), 8u);
  EXPECT_EQ(sweep::BuiltinSpec("fig6").Expand().size(), 24u);
  EXPECT_EQ(sweep::BuiltinSpec("fig7").Expand().size(), 4u);
  EXPECT_EQ(sweep::BuiltinSpec("fig8").Expand().size(), 8u);

  // fig7 cells carry the exact pre-port configs: SMP private 4MB per
  // node vs CMP shared 16MB, over the canonical saturated trace sets.
  const std::vector<sweep::Cell> fig7 = sweep::BuiltinSpec("fig7").Expand();
  EXPECT_EQ(fig7[0].trace.seed, sweep::OltpSaturatedConfig().seed);
  EXPECT_EQ(fig7[0].exp.topology, harness::Topology::kSmpPrivate);
  EXPECT_EQ(fig7[0].exp.l2_bytes, 4ull << 20);
  EXPECT_EQ(fig7[1].exp.topology, harness::Topology::kCmpShared);
  EXPECT_EQ(fig7[1].exp.l2_bytes, 16ull << 20);
  EXPECT_EQ(fig7[2].trace.clients, sweep::DssSaturatedConfig().clients);

  // fig8 scales offered load and measurement window with the machine.
  const std::vector<sweep::Cell> fig8 = sweep::BuiltinSpec("fig8").Expand();
  EXPECT_EQ(fig8[3].exp.cores, 16u);
  EXPECT_EQ(fig8[3].trace.clients, 48u);
  EXPECT_EQ(fig8[3].exp.measure_instructions, 48'000'000u);

  // The SMP grids run the private-L2 machine; fig8smp extends the
  // core-count axis to 32 nodes with fig8's load scaling.
  EXPECT_EQ(sweep::BuiltinSpec("smokesmp").Expand().size(), 2u);
  const std::vector<sweep::Cell> f8s = sweep::BuiltinSpec("fig8smp").Expand();
  ASSERT_EQ(f8s.size(), 8u);
  for (const sweep::Cell& c : f8s) {
    EXPECT_EQ(c.exp.topology, harness::Topology::kSmpPrivate);
    EXPECT_EQ(c.exp.l2_bytes, 4ull << 20);
  }
  EXPECT_EQ(f8s[3].exp.cores, 32u);
  EXPECT_EQ(f8s[3].trace.clients, 96u);
  EXPECT_EQ(f8s[3].exp.measure_instructions, 96'000'000u);

  // The folded figure/ablation specs: each cell's configs, field for
  // field, are the literal configs the experiments were defined with.
  auto expect_cell = [](const sweep::Cell& c,
                        const harness::TraceSetConfig& tc,
                        const harness::ExperimentConfig& ec) {
    EXPECT_EQ(harness::FieldWords(c.trace), harness::FieldWords(tc))
        << "cell " << c.index;
    EXPECT_EQ(harness::FieldWords(c.exp), harness::FieldWords(ec))
        << "cell " << c.index;
  };

  const std::vector<sweep::Cell> fig2 = sweep::BuiltinSpec("fig2").Expand();
  const uint32_t fig2_clients[] = {1, 2, 4, 8, 16, 32, 64, 128};
  ASSERT_EQ(fig2.size(), 8u);
  for (size_t i = 0; i < fig2.size(); ++i) {
    harness::TraceSetConfig tc;
    tc.workload = harness::WorkloadKind::kDss;
    tc.clients = fig2_clients[i];
    tc.requests_per_client = 1;
    tc.seed = 51;
    harness::ExperimentConfig ec;
    ec.camp = coresim::Camp::kFat;
    ec.cores = 4;
    ec.l2_bytes = 16ull << 20;
    ec.saturated = true;
    ec.measure_instructions = 8'000'000;
    ec.warmup_instructions = 2'000'000;
    expect_cell(fig2[i], tc, ec);
  }

  const std::vector<sweep::Cell> fig3 = sweep::BuiltinSpec("fig3").Expand();
  ASSERT_EQ(fig3.size(), 1u);
  {
    harness::TraceSetConfig tc;
    tc.workload = harness::WorkloadKind::kDss;
    tc.clients = 24;
    tc.requests_per_client = 1;
    tc.seed = 23;
    harness::ExperimentConfig ec;
    ec.camp = coresim::Camp::kFat;
    ec.cores = 4;
    ec.l2_bytes = 2ull << 20;
    ec.memory_latency = 140;
    ec.saturated = true;
    expect_cell(fig3[0], tc, ec);
  }

  const std::vector<sweep::Cell> cohort =
      sweep::BuiltinSpec("cohort").Expand();
  const harness::EngineMode engines[] = {harness::EngineMode::kVolcano,
                                         harness::EngineMode::kStagedTuple,
                                         harness::EngineMode::kStagedCohort};
  ASSERT_EQ(cohort.size(), 3u);
  for (size_t i = 0; i < cohort.size(); ++i) {
    harness::TraceSetConfig tc;
    tc.workload = harness::WorkloadKind::kDss;
    tc.clients = 4;
    tc.requests_per_client = 2;
    tc.seed = 61;
    tc.engine = engines[i];
    harness::ExperimentConfig ec;
    ec.camp = coresim::Camp::kFat;
    ec.cores = 4;
    ec.l2_bytes = 8ull << 20;
    ec.saturated = false;
    expect_cell(cohort[i], tc, ec);
  }

  const std::vector<sweep::Cell> sbuf = sweep::BuiltinSpec("sbuf").Expand();
  ASSERT_EQ(sbuf.size(), 2u);
  for (size_t i = 0; i < sbuf.size(); ++i) {
    harness::TraceSetConfig tc;
    tc.workload = harness::WorkloadKind::kOltp;
    tc.clients = 32;
    tc.requests_per_client = 64;
    tc.seed = 11;
    harness::ExperimentConfig ec;
    ec.camp = coresim::Camp::kFat;
    ec.cores = 4;
    ec.l2_bytes = 16ull << 20;
    ec.saturated = true;
    ec.stream_buffers = i == 0;  // {on, off}
    expect_cell(sbuf[i], tc, ec);
  }
}

TEST(BuiltinSpecs, EveryBaselineNamesAnAxisValueAndEveryCellFindsItsSibling) {
  size_t with_baseline = 0;
  for (const std::string& name : sweep::BuiltinSpecNames()) {
    SCOPED_TRACE(name);
    const sweep::SweepSpec spec = sweep::BuiltinSpec(name);
    if (spec.baseline.empty()) continue;
    ++with_baseline;
    const std::vector<sweep::Cell> cells = spec.Expand();
    const std::vector<std::string>& axes = spec.axis_names();
    for (const auto& [axis, value] : spec.baseline) {
      const auto a = std::find(axes.begin(), axes.end(), axis);
      ASSERT_NE(a, axes.end()) << "baseline axis " << axis;
      const size_t ai = static_cast<size_t>(a - axes.begin());
      EXPECT_TRUE(std::any_of(cells.begin(), cells.end(),
                              [&](const sweep::Cell& c) {
                                return c.values[ai] == value;
                              }))
          << "baseline value " << axis << "=" << value;
    }
    std::set<std::vector<std::string>> labels;
    for (const sweep::Cell& c : cells) labels.insert(c.values);
    for (const sweep::Cell& c : cells) {
      std::vector<std::string> base;
      ASSERT_TRUE(sweep::BaselineLabels(axes, spec.baseline, c.values, &base));
      EXPECT_EQ(labels.count(base), 1u) << "cell " << c.index;
    }
  }
  // fig2, fig4, fig6, fig7, fig8, fig8smp, cohort, sbuf.
  EXPECT_EQ(with_baseline, 8u);
}

// A machine knob that every builtin spec leaves at one value is dead
// code with a config row: either a spec varies it or it becomes a
// constant. Expansion only; nothing is built or simulated.
TEST(BuiltinSpecs, EveryExperimentKnobTakesAtLeastTwoValues) {
  constexpr size_t kRows = harness::FieldCount<harness::ExperimentConfig>();
  std::vector<std::set<uint64_t>> values(kRows);
  for (const std::string& name : sweep::BuiltinSpecNames()) {
    for (const sweep::Cell& c : sweep::BuiltinSpec(name).Expand()) {
      const auto words = harness::FieldWords(c.exp);
      for (size_t row = 0; row < kRows; ++row) values[row].insert(words[row]);
    }
  }
  const harness::ExperimentConfig defaults;
  size_t row = 0;
  harness::VisitFields(defaults, [&](const char* name, const auto&, bool) {
    EXPECT_GE(values[row++].size(), 2u)
        << name << " takes one value across every builtin spec";
  });
}

/// The rows of a TableSink table, split into trimmed cells (header
/// first); border and footer lines are skipped.
std::vector<std::vector<std::string>> TableRows(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("| ", 0) != 0) continue;
    std::vector<std::string> row;
    std::istringstream cells(line.substr(1));
    for (std::string cell; std::getline(cells, cell, '|');) {
      const size_t b = cell.find_first_not_of(' ');
      const size_t e = cell.find_last_not_of(' ');
      row.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(TableSink, BaselineColumnAndSubMiBL2) {
  // camp x size, with the FC/1MB cell filtered out of the grid.
  sweep::SweepReport report;
  report.spec_name = "hand";
  report.axis_names = {"camp", "size"};
  report.baseline = {{"camp", "FC"}};
  const struct {
    const char* camp;
    const char* size;
    uint64_t l2_bytes;
    uint64_t cycles;
  } cells[] = {{"FC", "small", 256ull << 10, 4000},
               {"LC", "small", 256ull << 10, 2000},
               {"LC", "big", 1ull << 20, 1000}};
  for (const auto& c : cells) {
    sweep::CellResult cr;
    cr.cell.index = report.cells.size();
    cr.cell.values = {c.camp, c.size};
    cr.cell.exp.l2_bytes = c.l2_bytes;
    cr.result.instructions = 1000;
    cr.result.elapsed_cycles = c.cycles;
    report.cells.push_back(cr);
  }

  std::ostringstream with_base;
  sweep::TableSink(/*include_timing=*/false).Emit(report, with_base);
  const auto rows = TableRows(with_base.str());
  ASSERT_EQ(rows.size(), 4u);  // header + 3 cells
  const std::vector<std::string>& header = rows[0];
  const auto col = [&](const char* name) {
    const auto it = std::find(header.begin(), header.end(), name);
    EXPECT_NE(it, header.end()) << name;
    return static_cast<size_t>(it - header.begin());
  };
  const size_t base = col("UIPC/base");
  EXPECT_EQ(rows[1][base], "1.00");  // the baseline itself
  EXPECT_EQ(rows[2][base], "2.00");  // LC/FC at 256KB
  EXPECT_EQ(rows[3][base], "-");     // FC/1MB is not in the report
  const size_t l2 = col("L2");
  EXPECT_EQ(rows[1][l2], "256KB");
  EXPECT_EQ(rows[3][l2], "1MB");

  report.baseline.clear();
  std::ostringstream without_base;
  sweep::TableSink(/*include_timing=*/false).Emit(report, without_base);
  EXPECT_EQ(without_base.str().find("UIPC/base"), std::string::npos);
  EXPECT_EQ(TableRows(without_base.str())[0].size(), header.size() - 1);
}

}  // namespace
}  // namespace stagedcmp
