// Sweep engine: spec expansion, client-count prefix slices, parallel
// runner determinism (thread-count invariance, byte-identical serialized
// output), and equivalence with direct RunExperiment calls.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

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

/// A report's full timing-free JSON: every simulated metric included.
std::string ResultJson(const sweep::SweepReport& r) {
  std::ostringstream os;
  sweep::JsonSink(/*include_timing=*/false).Emit(r, os);
  return os.str();
}

harness::WorkloadFactory TinyFactory() {
  harness::WorkloadFactory f;
  scenario::ApplyTinyScale(&f);
  return f;
}

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

TEST(TraceSet, PointersListEachTraceInOrder) {
  harness::WorkloadFactory factory;
  harness::TraceSetConfig tc;
  tc.workload = harness::WorkloadKind::kOltp;
  tc.clients = 2;
  tc.requests_per_client = 1;
  tc.seed = 9;
  const harness::TraceSet ts = factory.Build(tc);

  const std::vector<const trace::ClientTrace*> p = ts.Pointers();
  ASSERT_EQ(p.size(), 2u);
  for (size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p[i], &ts.traces[i]);
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
  // Two separate runs, each building its own sets.
  harness::WorkloadFactory factory = TinyFactory();
  auto run = [&](uint32_t threads) {
    return sweep::SweepRunner(&factory, WithThreads(threads)).Run(TinySpec());
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
  auto to_csv = [](const sweep::SweepReport& r) {
    std::ostringstream os;
    sweep::CsvSink(/*include_timing=*/false).Emit(r, os);
    return os.str();
  };
  EXPECT_EQ(ResultJson(serial), ResultJson(parallel));
  EXPECT_EQ(to_csv(serial), to_csv(parallel));
}

TEST(SweepRunner, CellsMatchDirectRunExperimentCalls) {
  harness::WorkloadFactory factory = TinyFactory();
  sweep::SweepRunner runner(&factory, WithThreads(4));
  const sweep::SweepReport report = runner.Run(TinySpec());
  ASSERT_EQ(report.cells.size(), 8u);
  EXPECT_EQ(report.trace_sets_built, 2u) << "one OLTP + one DSS set";

  // Replay each cell by hand over a fresh build of its config; the sweep
  // result must be bit-equal to the direct RunExperiment result.
  std::map<sweep::TraceSetCache::Key, harness::TraceSet> built;
  for (const sweep::CellResult& cr : report.cells) {
    auto [it, fresh] =
        built.try_emplace(sweep::TraceSetCache::MakeKey(cr.cell.trace));
    if (fresh) it->second = factory.Build(cr.cell.trace);
    const harness::TraceSet& traces = it->second;
    EXPECT_EQ(traces.total_instructions, cr.trace_total_instructions);
    EXPECT_EQ(traces.total_events, cr.trace_total_events);
    const coresim::SimResult direct =
        harness::RunExperiment(cr.cell.exp, traces);
    ExpectSameResult(cr.result, direct, cr.cell.index);
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Header word where set 0's first index row starts: magic and version,
// the factory's scale knobs, the set count, set 0's config block, its
// two totals and its trace count. A row is requests, total_instructions,
// n_events, n_bytes, offset_bytes, checksum.
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
      EXPECT_EQ(trace::DecodeEvents(t), trace::DecodeEvents(built.traces[i]));
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
    ASSERT_EQ(n_events, built.traces[0].events_size());  // layout pinned
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
    // Zero-copy: the payload lives in the mapping.
    const auto* base =
        reinterpret_cast<const uint8_t*>(r.mapping->words());
    const auto* payload = reinterpret_cast<const uint8_t*>(t.payload());
    EXPECT_TRUE(payload >= base && payload < base + r.mapping->size_bytes());
    ASSERT_EQ(t.events_size(), fx.built.traces[i].events_size());
    EXPECT_EQ(trace::DecodeEvents(t), trace::DecodeEvents(fx.built.traces[i]));
  }
  // The mapping is pinned by the set's backing keep-alive.
  EXPECT_NE(r.sets[0].backing, nullptr);
  // Lazy payload verification passes on the untouched file and drops
  // each verified trace's pages; the views re-fault the same bytes, so
  // replay sees what was verified, and verifying again still passes.
  EXPECT_TRUE(sweep::VerifyBundleSet(r.sets[0], r.checksums[0]));
  for (size_t i = 0; i < fx.built.traces.size(); ++i) {
    const trace::ClientTrace& t = r.sets[0].traces[i];
    EXPECT_EQ(trace::DecodeEvents(t), trace::DecodeEvents(fx.built.traces[i]));
  }
  EXPECT_TRUE(sweep::VerifyBundleSet(r.sets[0], r.checksums[0]));
  // An owning set pins no mapping: it is refused, never page-dropped.
  EXPECT_FALSE(sweep::VerifyBundleSet(fx.built, r.checksums[0]));
}

TEST(TraceBundle, MapFailureOnDirectoryDemotesToCold) {
  // A directory is not a regular file, so it is never mapped: served as
  // a cold rebuild.
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

TEST(TraceBundle, FifoPathBuildsColdAndIsLeftAlone) {
  // Opening a FIFO for reading blocks until a writer appears, and the
  // writer's rename would replace it. A bundle path that exists but is
  // not a regular file is neither mapped nor written: the run builds
  // cold, writes nothing, and returns (ctest's TIMEOUT catches a hang).
  const std::string path = ::testing::TempDir() + "bundle_fifo.traces";
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  harness::WorkloadFactory factory;
  sweep::RunnerOptions options;
  options.threads = 1;
  options.trace_bundle = path;
  const sweep::SweepReport r = sweep::SweepRunner(&factory, options).Run(
      TinySpec());
  EXPECT_EQ(r.bundle, "cold");
  struct stat st;
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
  EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0) << "temp file left";
  std::remove(path.c_str());
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
  harness::WorkloadFactory f1, f2;
  const sweep::SweepReport cold = run(&f1);
  EXPECT_EQ(cold.bundle, "cold");
  EXPECT_EQ(cold.bundle_mode, "cold");
  EXPECT_GT(FileBytes(path).size(), 0u);

  const sweep::SweepReport warm = run(&f2);
  EXPECT_EQ(warm.bundle, "warm");
  EXPECT_EQ(warm.bundle_mode, "mmap");
  EXPECT_EQ(warm.trace_sets_built, 0u);
  EXPECT_EQ(ResultJson(cold), ResultJson(warm));
  std::remove(path.c_str());
}

TEST(TraceBundle, WrongVersionOrTruncationDemotesToCold) {
  BundleFixture fx("bundle_cold.traces");
  std::ifstream in(fx.path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();

  // A v2 or v3 bundle (or any other version word) must rebuild cold.
  for (const uint64_t version : {uint64_t{2}, uint64_t{3}}) {
    {
      std::fstream stomp(fx.path,
                         std::ios::binary | std::ios::in | std::ios::out);
      stomp.seekp(8);  // word 1: format version
      stomp.write(reinterpret_cast<const char*>(&version), 8);
    }
    EXPECT_EQ(sweep::OpenTraceBundle(fx.path, fx.factory, {fx.cfg}).mode,
              "cold")
        << "version " << version;
  }

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
        (FirstIndexRowWord(fx.factory) + 4) * 8));
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
  EXPECT_EQ(ResultJson(cold), ResultJson(warm));
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
  harness::WorkloadFactory f1 = TinyFactory();
  harness::WorkloadFactory f2 = TinyFactory();
  harness::WorkloadFactory f3 = TinyFactory();
  const sweep::SweepReport cold = run(&f1);
  ASSERT_EQ(cold.bundle, "cold");

  // Corrupt set 0's first payload word (offset read from index row 0).
  // The mmap open still succeeds; only the lazy per-set verification on
  // a builder thread notices, rebuilds that set cold, and flags the run.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    uint64_t offset = 0;
    f.seekg(static_cast<std::streamoff>((FirstIndexRowWord(f1) + 4) * 8));
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
  EXPECT_EQ(ResultJson(cold), ResultJson(partial));

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

/// The distinct trace-set configs of `r`'s cells in canonical order, the
/// sequence a bundle persists: grouped by client-count family, families
/// in order of first use, each family's members in first-use order.
std::vector<harness::TraceSetConfig> CanonicalConfigs(
    const sweep::SweepReport& r) {
  std::vector<sweep::TraceSetCache::Key> families;
  std::map<sweep::TraceSetCache::Key, std::vector<harness::TraceSetConfig>>
      members;
  std::set<sweep::TraceSetCache::Key> seen;
  for (const sweep::CellResult& cr : r.cells) {
    if (!seen.insert(sweep::TraceSetCache::MakeKey(cr.cell.trace)).second) {
      continue;
    }
    const sweep::TraceSetCache::Key family =
        sweep::TraceSetCache::FamilyKey(cr.cell.trace);
    if (members.count(family) == 0) families.push_back(family);
    members[family].push_back(cr.cell.trace);
  }
  std::vector<harness::TraceSetConfig> out;
  for (const sweep::TraceSetCache::Key& family : families) {
    out.insert(out.end(), members[family].begin(), members[family].end());
  }
  return out;
}

// {OLTP, DSS} x clients {1, 2, 4} plus one two-tenant cell: three
// client-count families — OLTP, DSS, and the two-tenant set alone — so
// three builds and four slices. `descending` lists the clients axis
// largest first, which puts each family's leader first in canonical
// order instead of last. `clients_first` makes clients the outer axis,
// so the OLTP and DSS families interleave in first-use order (the
// canonical order still groups them).
sweep::SweepSpec FamilySpec(bool descending, bool clients_first = false) {
  sweep::SweepSpec spec(descending ? "family-desc" : "family",
                        "client-count families");
  spec.base_exp.cores = 2;
  spec.base_exp.l2_bytes = 1ull << 20;
  spec.base_exp.measure_instructions = 50'000;
  spec.base_exp.warmup_instructions = 10'000;
  std::vector<sweep::SweepSpec::AxisValue> clients;
  const std::vector<uint32_t> counts =
      descending ? std::vector<uint32_t>{4, 2, 1}
                 : std::vector<uint32_t>{1, 2, 4};
  for (uint32_t n : counts) {
    clients.push_back({std::to_string(n),
                       [n](sweep::Cell& c) { c.trace.clients = n; }});
  }
  if (clients_first) spec.AddAxis("clients", clients);
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
  if (!clients_first) spec.AddAxis("clients", std::move(clients));
  spec.AddFilter([](const sweep::Cell& c) {
    return c.trace.tenant2_clients == 0 || c.trace.clients == 2;
  });
  return spec;
}

bool IsFamilyLeader(const harness::TraceSetConfig& c) {
  return c.clients == 4 || c.tenant2_clients > 0;
}

/// `configs`' sets the way a cold run makes them: each family's leader
/// (its member with the most clients) built once, every other member a
/// PrefixSlice of it.
std::vector<std::shared_ptr<const harness::TraceSet>> FamilySets(
    const harness::WorkloadFactory& factory,
    const std::vector<harness::TraceSetConfig>& configs) {
  std::map<sweep::TraceSetCache::Key, harness::TraceSetConfig> leader_cfg;
  for (const harness::TraceSetConfig& c : configs) {
    const auto it =
        leader_cfg.try_emplace(sweep::TraceSetCache::FamilyKey(c), c).first;
    if (c.clients > it->second.clients) it->second = c;
  }
  std::map<sweep::TraceSetCache::Key, std::shared_ptr<const harness::TraceSet>>
      leaders;
  for (const auto& [key, c] : leader_cfg) {
    leaders[key] = std::make_shared<const harness::TraceSet>(factory.Build(c));
  }
  std::vector<std::shared_ptr<const harness::TraceSet>> out;
  for (const harness::TraceSetConfig& c : configs) {
    const auto& leader = leaders.at(sweep::TraceSetCache::FamilyKey(c));
    out.push_back(leader->config.clients == c.clients
                      ? leader
                      : std::make_shared<const harness::TraceSet>(
                            sweep::PrefixSlice(leader, c)));
  }
  return out;
}

TEST(TraceBundle, StreamedRunnerBundleByteIdenticalToSaveTraceBundle) {
  // StreamSpec: three families of one set (one two-tenant). The family
  // grid with clients outermost interleaves the OLTP and DSS families in
  // first-use order; the bundle groups them by family. At any thread
  // count every family streams its traces into the file as they are
  // recorded, and the file is what the one-shot save of the same sets
  // writes.
  struct Case {
    std::string name;
    sweep::SweepSpec spec;
    uint64_t sets;
  };
  const Case cases[] = {
      {"stream", StreamSpec(), 3},
      {"interleaved", FamilySpec(/*descending=*/false, /*clients_first=*/true),
       7},
  };
  const std::string streamed = ::testing::TempDir() + "bundle_streamed.traces";
  const std::string saved = ::testing::TempDir() + "bundle_saved.traces";
  harness::WorkloadFactory factory = TinyFactory();
  for (const Case& c : cases) {
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(c.name + " at --threads " + std::to_string(threads));
      std::remove(streamed.c_str());
      MetricsRegistry reg;
      sweep::RunnerOptions options;
      options.threads = threads;
      options.trace_bundle = streamed;
      options.metrics = &reg;
      const sweep::SweepReport r =
          sweep::SweepRunner(&factory, options).Run(c.spec);
      ASSERT_EQ(r.bundle, "cold");
      ASSERT_EQ(r.trace_sets_built, c.sets);
      EXPECT_EQ(r.metrics.CounterOr("sweep.sets_streamed"), c.sets);
      EXPECT_EQ(r.metrics.CounterOr("sweep.sets_released"), c.sets);

      // The same sets, cut the way the run cuts them, in canonical
      // order, through the one-shot save.
      const auto owned = FamilySets(factory, CanonicalConfigs(r));
      std::vector<const harness::TraceSet*> sets;
      for (const auto& ts : owned) sets.push_back(ts.get());
      ASSERT_EQ(sets.size(), c.sets);
      if (c.name == "stream") {
        EXPECT_EQ(sets[2]->traces.size(), 3u);  // 2 tenant-A + 1 tenant-B
      }
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
    }
  }
  std::remove(streamed.c_str());
  std::remove(saved.c_str());
}

/// `set` as a streamed build returns it: every trace hollow, with its
/// sizes and totals but no payload.
harness::TraceSet Hollow(const harness::TraceSet& set) {
  harness::TraceSet out;
  out.config = set.config;
  out.total_instructions = set.total_instructions;
  out.total_events = set.total_events;
  out.traces.resize(set.traces.size());
  for (size_t i = 0; i < set.traces.size(); ++i) {
    const trace::ClientTrace& t = set.traces[i];
    out.traces[i].SetPayload(nullptr, t.events_size(), t.encoded_bytes());
    out.traces[i].total_instructions = t.total_instructions;
    out.traces[i].requests = t.requests;
  }
  return out;
}

TEST(TraceBundle, StreamedPayloadsWriteTheBytesAppendWould) {
  // A three-client leader whose middle client recorded nothing, cut to a
  // two-client slice that comes before it in the bundle, after a set of
  // another family. Appended from memory, the slice's rows introduce
  // clients 0 and 1 and the leader's client 2; streamed, all three
  // payloads are written before either row, and the empty trace's rows
  // must still name the offsets the appends would.
  harness::WorkloadFactory factory = TinyFactory();
  harness::TraceSetConfig other_cfg;
  other_cfg.workload = harness::WorkloadKind::kDss;
  other_cfg.clients = 1;
  other_cfg.requests_per_client = 1;
  other_cfg.seed = 9;
  harness::TraceSetConfig leader_cfg;
  leader_cfg.workload = harness::WorkloadKind::kOltp;
  leader_cfg.clients = 3;
  leader_cfg.requests_per_client = 1;
  leader_cfg.seed = 9;
  harness::TraceSetConfig slice_cfg = leader_cfg;
  slice_cfg.clients = 2;
  const harness::TraceSet other = factory.Build(other_cfg);
  harness::TraceSet built = factory.Build(leader_cfg);
  built.total_events -= built.traces[1].events_size();
  built.total_instructions -= built.traces[1].total_instructions;
  built.traces[1] = trace::ClientTrace();
  const auto leader = std::make_shared<const harness::TraceSet>(std::move(built));
  const harness::TraceSet slice = sweep::PrefixSlice(leader, slice_cfg);

  const std::string saved = ::testing::TempDir() + "stream_saved.traces";
  const std::string streamed = ::testing::TempDir() + "stream_direct.traces";
  ASSERT_TRUE(
      sweep::SaveTraceBundle(saved, factory, {&other, &slice, leader.get()}));
  {
    sweep::BundleWriter w;
    ASSERT_TRUE(w.Begin(streamed, factory, {other_cfg, slice_cfg, leader_cfg}));
    ASSERT_TRUE(w.Append(other));
    for (const trace::ClientTrace& t : leader->traces) ASSERT_TRUE(w.Stream(t));
    harness::TraceSet hollow = Hollow(*leader);
    ASSERT_TRUE(w.ViewStreamed(&hollow));
    ASSERT_NE(hollow.backing, nullptr);
    EXPECT_EQ(scenario::SetWords(hollow), scenario::SetWords(*leader));
    const auto view = std::make_shared<const harness::TraceSet>(std::move(hollow));
    ASSERT_TRUE(w.Append(sweep::PrefixSlice(view, slice_cfg)));
    ASSERT_TRUE(w.Append(*view));
    ASSERT_TRUE(w.Finish());
  }
  EXPECT_TRUE(FileBytes(streamed) == FileBytes(saved))
      << "streamed bundle differs";

  // A fresh payload may not land behind streamed ones no row has named,
  // and Finish refuses while any streamed payload is unnamed.
  {
    sweep::BundleWriter w;
    ASSERT_TRUE(w.Begin(streamed, factory, {other_cfg, leader_cfg}));
    ASSERT_TRUE(w.Stream(leader->traces[0]));
    EXPECT_FALSE(w.Append(other));
  }
  {
    sweep::BundleWriter w;
    ASSERT_TRUE(w.Begin(streamed, factory, {other_cfg}));
    ASSERT_TRUE(w.Append(other));
    ASSERT_TRUE(w.Stream(leader->traces[0]));
    EXPECT_FALSE(w.Finish());
  }
  EXPECT_FALSE(FileExists(streamed + ".tmp"));
  std::remove(streamed.c_str());
  std::remove(saved.c_str());
}

TEST(SweepRunner, FamilyGridBuildsEachFamilyOnceAndSlicesTheRest) {
  harness::WorkloadFactory factory = TinyFactory();
  // Standalone builds of every config, shared by both axis orders.
  std::map<sweep::TraceSetCache::Key, harness::TraceSet> standalone;
  for (bool descending : {false, true}) {
    SCOPED_TRACE(descending ? "descending" : "ascending");
    MetricsRegistry reg;
    sweep::RunnerOptions options;
    options.threads = 4;
    options.metrics = &reg;
    const sweep::SweepReport r =
        sweep::SweepRunner(&factory, options).Run(FamilySpec(descending));
    ASSERT_EQ(r.cells.size(), 7u);
    EXPECT_EQ(r.trace_sets_built, 7u) << "built or sliced, every set counts";
    // One build task per family: each family's leader is one build.
    EXPECT_EQ(r.metrics.CounterOr("sweep.sets_built"), 3u);
    EXPECT_EQ(r.metrics.CounterOr("sweep.sets_sliced"), 4u);

    // Every set — slice or build — is a standalone build of its own
    // config, word for word.
    const std::vector<harness::TraceSetConfig> configs = CanonicalConfigs(r);
    const auto sets = FamilySets(factory, configs);
    for (size_t j = 0; j < configs.size(); ++j) {
      SCOPED_TRACE("config " + sweep::ConfigLabel(configs[j]));
      auto [it, fresh] =
          standalone.try_emplace(sweep::TraceSetCache::MakeKey(configs[j]));
      if (fresh) it->second = factory.Build(configs[j]);
      const harness::TraceSet& got = *sets[j];
      const harness::TraceSet& ref = it->second;
      EXPECT_EQ(got.leader == nullptr, IsFamilyLeader(configs[j]));
      ASSERT_EQ(got.traces.size(), ref.traces.size());
      EXPECT_EQ(got.tenant_a_clients, ref.tenant_a_clients);
      EXPECT_EQ(got.total_instructions, ref.total_instructions);
      EXPECT_EQ(got.total_events, ref.total_events);
      EXPECT_EQ(scenario::SetWords(got), scenario::SetWords(ref));
      for (size_t i = 0; i < got.traces.size(); ++i) {
        EXPECT_EQ(got.traces[i].requests, ref.traces[i].requests);
        EXPECT_EQ(got.traces[i].total_instructions,
                  ref.traces[i].total_instructions);
      }
    }
    // So every cell replayed exactly what its standalone build replays.
    for (const sweep::CellResult& cr : r.cells) {
      const harness::TraceSet& ref =
          standalone.at(sweep::TraceSetCache::MakeKey(cr.cell.trace));
      EXPECT_EQ(cr.trace_total_instructions, ref.total_instructions);
      EXPECT_EQ(cr.trace_total_events, ref.total_events);
      ExpectSameResult(cr.result, harness::RunExperiment(cr.cell.exp, ref),
                       cr.cell.index);
    }
  }
  EXPECT_EQ(standalone.size(), 7u);
}

TEST(SweepRunner, FamilyGridResultsByteIdenticalAcrossThreadCounts) {
  for (bool descending : {false, true}) {
    SCOPED_TRACE(descending ? "descending" : "ascending");
    harness::WorkloadFactory factory = TinyFactory();
    MetricsRegistry reg;  // cumulative over the three cold runs
    auto run_cold = [&](uint32_t threads) {
      sweep::RunnerOptions options = WithThreads(threads);
      options.metrics = &reg;
      const sweep::SweepReport r =
          sweep::SweepRunner(&factory, options).Run(FamilySpec(descending));
      std::ostringstream csv;
      sweep::CsvSink(/*include_timing=*/false).Emit(r, csv);
      return std::make_pair(ResultJson(r), csv.str());
    };
    const auto reference = run_cold(1);
    for (uint32_t threads : {2u, 8u}) {
      const auto got = run_cold(threads);
      EXPECT_EQ(reference.first, got.first) << "JSON at --threads " << threads;
      EXPECT_EQ(reference.second, got.second) << "CSV at --threads " << threads;
    }
    const MetricsSnapshot m = reg.Snapshot();
    EXPECT_EQ(m.CounterOr("sweep.sets_built"), 9u);    // 3 runs x 3 families
    EXPECT_EQ(m.CounterOr("sweep.sets_sliced"), 12u);  // 3 runs x 4 slices
  }
}

TEST(TraceBundle, FamilyGridStreamsLikeSaveTraceBundleAndReopensWarm) {
  for (bool descending : {false, true}) {
    SCOPED_TRACE(descending ? "descending" : "ascending");
    const std::string streamed = ::testing::TempDir() + "family.traces";
    const std::string saved = ::testing::TempDir() + "family_saved.traces";
    std::remove(streamed.c_str());
    harness::WorkloadFactory factory = TinyFactory();
    sweep::RunnerOptions options;
    options.threads = 3;
    options.trace_bundle = streamed;
    const sweep::SweepReport cold =
        sweep::SweepRunner(&factory, options).Run(FamilySpec(descending));
    ASSERT_EQ(cold.bundle, "cold");
    ASSERT_EQ(cold.trace_sets_built, 7u);

    // The same sets, cut the way the run cuts them, in canonical order,
    // through the one-shot save: a slice is persisted as a set of its
    // own, byte for byte.
    const auto owned = FamilySets(factory, CanonicalConfigs(cold));
    std::vector<const harness::TraceSet*> sets;
    for (const auto& ts : owned) sets.push_back(ts.get());
    ASSERT_EQ(sets.size(), 7u);
    ASSERT_TRUE(sweep::SaveTraceBundle(saved, factory, sets));
    EXPECT_TRUE(FileBytes(streamed) == FileBytes(saved))
        << "streamed bundle differs";

    // Slices view their leader's payloads, so the bundle holds the
    // padded header and each distinct payload once: the leaders' traces.
    const std::string bytes = FileBytes(streamed);
    uint64_t first_payload = 0;
    std::memcpy(&first_payload,
                bytes.data() + (FirstIndexRowWord(factory) + 4) * 8, 8);
    std::set<const uint64_t*> distinct;
    uint64_t expected_bytes = first_payload;
    for (const harness::TraceSet* ts : sets) {
      if (!IsFamilyLeader(ts->config)) continue;
      for (const trace::ClientTrace& t : ts->traces) {
        expected_bytes += (t.payload_words() * 8 + 63) / 64 * 64;
        EXPECT_TRUE(distinct.insert(t.payload()).second);
      }
    }
    for (const harness::TraceSet* ts : sets) {
      for (const trace::ClientTrace& t : ts->traces) {
        EXPECT_EQ(distinct.count(t.payload()), 1u);
      }
    }
    EXPECT_EQ(bytes.size(), expected_bytes);

    std::vector<harness::TraceSetConfig> configs;
    for (const harness::TraceSet* ts : sets) configs.push_back(ts->config);
    const sweep::BundleOpenResult open =
        sweep::OpenTraceBundle(streamed, factory, configs);
    ASSERT_EQ(open.mode, "mmap");
    for (size_t j = 0; j < configs.size(); ++j) {
      EXPECT_TRUE(sweep::VerifyBundleSet(open.sets[j], open.checksums[j]))
          << "set " << j;
    }

    // A fresh factory replays the bundle warm: nothing builds or slices,
    // and the results match the cold run's bytes.
    harness::WorkloadFactory warm_factory = TinyFactory();
    const sweep::SweepReport warm =
        sweep::SweepRunner(&warm_factory, options).Run(FamilySpec(descending));
    EXPECT_EQ(warm.bundle, "warm");
    EXPECT_EQ(warm.trace_sets_built, 0u);
    EXPECT_EQ(ResultJson(cold), ResultJson(warm));
    std::remove(streamed.c_str());
    std::remove(saved.c_str());
  }
}

TEST(PrefixSlice, SliceOutlivesItsLeaderPointer) {
  harness::WorkloadFactory factory = TinyFactory();
  // Cell 1 is OLTP at two clients, a slice of the four-client OLTP set.
  const sweep::Cell cell = FamilySpec(/*descending=*/false).Expand()[1];
  ASSERT_EQ(cell.trace.clients, 2u);
  ASSERT_EQ(cell.trace.workload, harness::WorkloadKind::kOltp);
  harness::TraceSetConfig leader_cfg = cell.trace;
  leader_cfg.clients = 4;
  auto leader =
      std::make_shared<const harness::TraceSet>(factory.Build(leader_cfg));
  const harness::TraceSet slice = sweep::PrefixSlice(leader, cell.trace);
  ASSERT_EQ(slice.leader, leader);

  leader.reset();
  // The slice pins the leader's storage: it still replays the bytes of a
  // standalone build (ASan turns a dangling view into a hard failure).
  EXPECT_EQ(slice.leader.use_count(), 1);
  ExpectSameResult(harness::RunExperiment(cell.exp, slice),
                   harness::RunExperiment(cell.exp, factory.Build(cell.trace)),
                   cell.index);
}

TEST(PrefixSlice, RefusesForeignConfigsAndMissingLeaders) {
  harness::WorkloadFactory factory = TinyFactory();
  harness::TraceSetConfig leader_cfg;
  leader_cfg.workload = harness::WorkloadKind::kOltp;
  leader_cfg.clients = 3;
  leader_cfg.requests_per_client = 1;
  leader_cfg.seed = 5;
  harness::TraceSetConfig member = leader_cfg;
  member.clients = 1;
  EXPECT_THROW(sweep::PrefixSlice(nullptr, member), std::invalid_argument)
      << "no leader";
  const auto leader =
      std::make_shared<const harness::TraceSet>(factory.Build(leader_cfg));
  harness::TraceSetConfig other_seed = member;
  other_seed.seed = 6;
  EXPECT_THROW(sweep::PrefixSlice(leader, other_seed), std::invalid_argument);
  harness::TraceSetConfig bigger = leader_cfg;
  bigger.clients = 4;
  EXPECT_THROW(sweep::PrefixSlice(leader, bigger), std::invalid_argument);
  harness::TraceSetConfig tenants = member;
  tenants.tenant2_clients = 1;
  EXPECT_THROW(sweep::PrefixSlice(leader, tenants), std::invalid_argument);
  // A two-tenant set is a family of one: not even its own config slices.
  harness::TraceSetConfig two_tenant = leader_cfg;
  two_tenant.tenant2_workload = harness::WorkloadKind::kOltp;
  two_tenant.tenant2_clients = 1;
  const auto tenant_leader =
      std::make_shared<const harness::TraceSet>(factory.Build(two_tenant));
  EXPECT_THROW(sweep::PrefixSlice(tenant_leader, two_tenant),
               std::invalid_argument);

  const harness::TraceSet slice = sweep::PrefixSlice(leader, member);
  EXPECT_EQ(slice.traces.size(), 1u);
  EXPECT_EQ(slice.leader, leader);
  EXPECT_EQ(scenario::SetWords(slice),
            scenario::SetWords(factory.Build(member)));
}

TEST(SweepRunner, ReleasesEachSetOnce) {
  const std::string path = ::testing::TempDir() + "bundle_release.traces";
  std::remove(path.c_str());
  harness::WorkloadFactory factory;
  // Cold, streaming into a bundle: every distinct set is freed exactly
  // once, after its last cell and its append.
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
  // A family grid frees every set, slices and leaders alike, once.
  {
    harness::WorkloadFactory tiny = TinyFactory();
    MetricsRegistry reg;
    sweep::RunnerOptions options;
    options.threads = 4;
    options.metrics = &reg;
    const sweep::SweepReport r =
        sweep::SweepRunner(&tiny, options).Run(FamilySpec(false));
    EXPECT_EQ(r.metrics.CounterOr("sweep.sets_released"), 7u);
  }
}

TEST(TraceBundle, FailedOrAbandonedWriterLeavesNoFile) {
  harness::WorkloadFactory factory = TinyFactory();
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

TEST(TraceBundle, FailedStreamWriteBuildsInMemoryAndLeavesNoFile) {
  // The temp file is a symlink to /dev/full. Begin's zeroed header fits
  // in stdio's buffer, so the first write that fails is a streamed
  // trace's (or the flush ahead of its mapping). That family builds again
  // in memory, every later family builds in memory without streaming,
  // and the run replays what a run without a bundle replays.
  harness::WorkloadFactory factory = TinyFactory();
  const sweep::SweepSpec spec =
      FamilySpec(/*descending=*/false, /*clients_first=*/true);
  const std::string reference =
      ResultJson(sweep::SweepRunner(&factory, WithThreads(1)).Run(spec));
  const std::string path = ::testing::TempDir() + "bundle_full.traces";
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("--threads " + std::to_string(threads));
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    ASSERT_EQ(::symlink("/dev/full", (path + ".tmp").c_str()), 0);
    MetricsRegistry reg;
    TraceCollector tc(/*deterministic=*/true);
    sweep::RunnerOptions options;
    options.threads = threads;
    options.trace_bundle = path;
    options.metrics = &reg;
    options.trace = &tc;
    const sweep::SweepReport r = sweep::SweepRunner(&factory, options).Run(spec);
    EXPECT_EQ(r.bundle, "cold");
    // Exactly one family tried to stream: Begin succeeded, Stream ran.
    std::ostringstream timeline;
    tc.WriteJson(timeline);
    const std::string t = timeline.str();
    const size_t first = t.find("\"bundle.stream:");
    ASSERT_NE(first, std::string::npos) << "no streamed build was attempted";
    EXPECT_EQ(t.find("\"bundle.stream:", first + 1), std::string::npos);
    EXPECT_EQ(ResultJson(r), reference);
    EXPECT_EQ(r.metrics.CounterOr("sweep.sets_streamed"), 0u);
    EXPECT_EQ(r.metrics.CounterOr("sweep.sets_built"), 3u);
    EXPECT_EQ(r.metrics.CounterOr("sweep.sets_sliced"), 4u);
    EXPECT_FALSE(FileExists(path));
    EXPECT_FALSE(FileExists(path + ".tmp"));
    struct stat st;
    EXPECT_NE(::lstat((path + ".tmp").c_str(), &st), 0) << "temp link left";
  }
  std::remove((path + ".tmp").c_str());
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
  // The run frees the one set it built after the last cell.
  EXPECT_EQ(r.metrics.CounterOr("sweep.sets_released"), 1u);
}

TEST(Observability, MetricsCrossCheckAndResultsUnperturbed) {
  // Two runs of the same spec: one instrumented, one not. The metrics
  // must cross-check against the report, and the serialized results must
  // not notice observability at all.
  harness::WorkloadFactory factory = TinyFactory();

  MetricsRegistry reg;
  sweep::RunnerOptions options;
  options.threads = 4;
  options.metrics = &reg;
  const sweep::SweepReport instrumented =
      sweep::SweepRunner(&factory, options).Run(TinySpec());

  const sweep::SweepReport plain =
      sweep::SweepRunner(&factory, WithThreads(4)).Run(TinySpec());
  EXPECT_FALSE(plain.has_metrics);
  EXPECT_EQ(ResultJson(instrumented), ResultJson(plain));

  ASSERT_TRUE(instrumented.has_metrics);
  const MetricsSnapshot& m = instrumented.metrics;
  // Replay counters agree with the report's own accounting.
  EXPECT_EQ(m.CounterOr("replay.events_replayed"),
            instrumented.events_replayed());
  EXPECT_EQ(m.CounterOr("replay.runs"), 8u);
  EXPECT_EQ(m.CounterOr("sweep.cells_simulated"), 8u);
  // Set accounting: every set the run produced was built or sliced; the
  // tiny grid has two distinct configs, each built exactly once by its
  // own build task and freed after its last cell.
  EXPECT_EQ(m.CounterOr("sweep.sets_built") + m.CounterOr("sweep.sets_sliced"),
            instrumented.trace_sets_built);
  EXPECT_EQ(m.CounterOr("sweep.sets_built"), 2u);
  EXPECT_EQ(m.CounterOr("sweep.sets_released"), 2u);
  EXPECT_EQ(m.CounterOr("sweep.sets_streamed"), 0u);  // no bundle
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
  // Deterministic collectors: the flushed timeline must be byte-identical
  // whatever the thread count, because the span SET (sweep, one build per
  // distinct config, one cell span per cell) is invariant.
  harness::WorkloadFactory factory = TinyFactory();
  auto run_traced = [&](uint32_t threads) {
    TraceCollector tc(/*deterministic=*/true);
    sweep::RunnerOptions options;
    options.threads = threads;
    options.trace = &tc;
    sweep::SweepRunner(&factory, options).Run(TinySpec());
    std::ostringstream os;
    tc.WriteJson(os);
    return os.str();
  };
  const std::string cold = run_traced(1);
  EXPECT_EQ(cold, run_traced(8));
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
