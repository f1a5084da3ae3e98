// Sharded sweep execution and merge: the reassembled report must emit
// byte-identical sink output, and every malformed merge input —
// overlapping shards, missing shards, a different spec or workload
// scale, truncated or bit-flipped files — must be rejected with a
// one-line reason rather than a silently wrong grid. Also pins the
// config field tables that the shard fingerprint, cache key and config
// echo all derive from.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "gtest/gtest.h"
#include "harness/config_fields.h"
#include "sweep/builtin_specs.h"
#include "sweep/checksum.h"
#include "sweep/runner.h"
#include "sweep/shard.h"
#include "sweep/sinks.h"
#include "sweep/spec.h"
#include "sweep/trace_cache.h"

namespace stagedcmp {
namespace {

// 2x2 grid, both workloads: small enough for several full runs per test.
sweep::SweepSpec SmallSpec(const char* name = "shard-small") {
  sweep::SweepSpec spec(name, "2x2 shard test grid");
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
  return spec;
}

sweep::SweepReport RunSpec(const sweep::SweepSpec& spec,
                           const std::string& bundle, uint32_t shard_index,
                           uint32_t shard_count) {
  harness::WorkloadFactory factory;
  sweep::RunnerOptions options;
  options.threads = 2;
  options.trace_bundle = bundle;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  sweep::SweepRunner runner(&factory, options);
  return runner.Run(spec);
}

std::string ShardText(const sweep::SweepReport& report,
                      const harness::WorkloadFactory& factory = {}) {
  std::ostringstream os;
  sweep::WriteShardFile(report, factory, os);
  return os.str();
}

bool Merge(const sweep::SweepSpec& spec, const std::vector<std::string>& texts,
           sweep::SweepReport* out, std::string* err) {
  return sweep::MergeShardReports(spec, harness::WorkloadFactory{}, texts,
                                  out, err);
}

std::string SinkBytes(const sweep::SweepReport& report) {
  std::ostringstream os;
  sweep::JsonSink(/*include_timing=*/false).Emit(report, os);
  return os.str();
}

// Fixture with a warm bundle: the cold pass writes it, so every run in
// the test — sharded or not — replays the same mapped trace bytes and
// full metrics compare byte-for-byte.
struct WarmGrid : ::testing::Test {
  sweep::SweepSpec spec = SmallSpec();
  std::string bundle = ::testing::TempDir() + "shard_grid.traces";

  void SetUp() override {
    std::remove(bundle.c_str());
    ASSERT_EQ(RunSpec(spec, bundle, 0, 0).bundle, "cold");
  }
  void TearDown() override { std::remove(bundle.c_str()); }
};

TEST_F(WarmGrid, MergedShardsEmitBytesIdenticalToUnshardedRun) {
  const sweep::SweepReport whole = RunSpec(spec, bundle, 0, 0);
  ASSERT_EQ(whole.bundle, "warm");

  for (uint32_t n : {2u, 3u}) {
    std::vector<std::string> texts;
    for (uint32_t i = 0; i < n; ++i) {
      const sweep::SweepReport shard = RunSpec(spec, bundle, i, n);
      EXPECT_EQ(shard.bundle, "warm") << "shard " << i << "/" << n;
      texts.push_back(ShardText(shard));
    }
    sweep::SweepReport merged;
    std::string err;
    ASSERT_TRUE(Merge(spec, texts, &merged, &err))
        << err;
    // Every deterministic metric must be byte-identical.
    EXPECT_EQ(SinkBytes(merged), SinkBytes(whole))
        << "1 vs " << n << " shards";
  }
}

TEST_F(WarmGrid, MergeAcceptsShardsInAnyOrder) {
  const std::string s0 = ShardText(RunSpec(spec, bundle, 0, 2));
  const std::string s1 = ShardText(RunSpec(spec, bundle, 1, 2));
  sweep::SweepReport fwd, rev;
  std::string err;
  ASSERT_TRUE(Merge(spec, {s0, s1}, &fwd, &err)) << err;
  ASSERT_TRUE(Merge(spec, {s1, s0}, &rev, &err)) << err;
  EXPECT_EQ(SinkBytes(fwd), SinkBytes(rev));
}

TEST_F(WarmGrid, MergeRejectsOverlapMissingAndForeignShards) {
  const std::string s0 = ShardText(RunSpec(spec, bundle, 0, 2));
  const std::string s1 = ShardText(RunSpec(spec, bundle, 1, 2));
  sweep::SweepReport merged;
  std::string err;

  // The same shard twice is an overlap, not a merge.
  EXPECT_FALSE(Merge(spec, {s0, s0}, &merged, &err));
  EXPECT_NE(err.find("overlap"), std::string::npos) << err;

  // One of two shards is incomplete coverage.
  EXPECT_FALSE(Merge(spec, {s1}, &merged, &err));
  EXPECT_NE(err.find("incomplete"), std::string::npos) << err;
  EXPECT_NE(err.find("(missing 0)"), std::string::npos) << err;

  // A shard file from a different spec definition must be rejected by
  // the fingerprint even when cell counts happen to line up.
  sweep::SweepSpec other = SmallSpec();
  other.base_exp.memory_latency += 100;
  EXPECT_FALSE(Merge(other, {s0, s1}, &merged, &err));
  EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;

  // ... and a different spec *name* is rejected before hashing.
  const sweep::SweepSpec renamed = SmallSpec("shard-other");
  EXPECT_FALSE(Merge(renamed, {s0, s1}, &merged, &err));
  EXPECT_NE(err.find("spec"), std::string::npos) << err;

  // Non-shard input is flagged as such, not crashed on.
  EXPECT_FALSE(
      Merge(spec, {"{\"cells\": []}"}, &merged, &err));
  std::string name;
  EXPECT_FALSE(sweep::PeekShardSpecName("not json", &name));
  EXPECT_TRUE(sweep::PeekShardSpecName(s0, &name));
  EXPECT_EQ(name, spec.name());
}

TEST_F(WarmGrid, ShardFileRoundTripsNonFiniteAndTenantFields) {
  // The writer/reader pair must survive every value class the sinks
  // emit: a NaN travels by bit pattern and comes back NaN.
  sweep::SweepReport r = RunSpec(spec, bundle, 0, 2);
  r.cells[0].result.avg_response_cycles =
      std::numeric_limits<double>::quiet_NaN();
  const std::string text = ShardText(r);
  const sweep::SweepReport r1 = RunSpec(spec, bundle, 1, 2);
  sweep::SweepReport merged;
  std::string err;
  ASSERT_TRUE(Merge(spec, {text, ShardText(r1)}, &merged,
                                       &err))
      << err;
  EXPECT_TRUE(std::isnan(merged.cells[0].result.avg_response_cycles));
}

TEST_F(WarmGrid, MergeRejectsShardsWrittenAtAnotherWorkloadScale) {
  // The fingerprint covers the factory's scale knobs: a shard written at
  // a different TPC-H size describes different traces, even though the
  // grid expands identically.
  harness::WorkloadFactory rescaled;
  rescaled.tpch_config.orders += 1;
  const std::string s0 = ShardText(RunSpec(spec, bundle, 0, 2), rescaled);
  const std::string s1 = ShardText(RunSpec(spec, bundle, 1, 2));
  sweep::SweepReport merged;
  std::string err;
  EXPECT_FALSE(Merge(spec, {s0, s1}, &merged, &err));
  EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
}

TEST_F(WarmGrid, MergeRejectsEveryTruncationAndBitFlip) {
  const std::string s0 = ShardText(RunSpec(spec, bundle, 0, 2));
  const std::string s1 = ShardText(RunSpec(spec, bundle, 1, 2));
  sweep::SweepReport merged;
  std::string err;
  ASSERT_TRUE(Merge(spec, {s0, s1}, &merged, &err)) << err;
  std::string name;
  for (size_t len = 0; len < s1.size(); ++len) {
    err.clear();
    EXPECT_FALSE(Merge(spec, {s0, s1.substr(0, len)}, &merged, &err))
        << "prefix of " << len << " bytes";
    EXPECT_FALSE(err.empty()) << "prefix of " << len << " bytes";
    EXPECT_FALSE(sweep::PeekShardSpecName(s1.substr(0, len), &name));
  }
  // Every byte offset, a different bit each time: the header, the
  // records and the checksum word itself.
  for (size_t off = 0; off < s1.size(); ++off) {
    std::string flipped = s1;
    flipped[off] = static_cast<char>(flipped[off] ^ (1 << (off % 8)));
    err.clear();
    EXPECT_FALSE(Merge(spec, {flipped, s0}, &merged, &err))
        << "bit flip at byte " << off;
    EXPECT_FALSE(err.empty()) << "bit flip at byte " << off;
  }
}

/// `text` with word `i` set to `value` and its checksum recomputed: a
/// well-formed shard file whose contents lie.
std::string WithWord(std::string text, size_t i, uint64_t value) {
  std::vector<uint64_t> w(text.size() / 8);
  std::memcpy(w.data(), text.data(), text.size());
  w[i] = value;
  sweep::Checksum sum;
  sum.MixAll(w.data(), w.size() - 1);
  w.back() = sum.state;
  std::memcpy(&text[0], w.data(), text.size());
  return text;
}

TEST_F(WarmGrid, MergeRejectsHugeCountsInWellFormedFiles) {
  const std::string s0 = ShardText(RunSpec(spec, bundle, 0, 2));
  const std::string s1 = ShardText(RunSpec(spec, bundle, 1, 2));
  // Header words: magic, schema, the spec name's byte length and its
  // bytes, shard_index, shard_count.
  const size_t name_len_word = 2;
  const size_t count_word =
      name_len_word + 1 + (spec.name().size() + 7) / 8 + 1;
  uint64_t word = 0;
  std::memcpy(&word, s1.data() + 8 * name_len_word, 8);
  ASSERT_EQ(word, spec.name().size());
  std::memcpy(&word, s1.data() + 8 * count_word, 8);
  ASSERT_EQ(word, 2u);

  const uint64_t huge = uint64_t{1} << 62;
  for (size_t i : {count_word, name_len_word}) {
    const std::string hostile = WithWord(s1, i, huge);
    for (const auto& texts : {std::vector<std::string>{hostile, s0},
                              std::vector<std::string>{s0, hostile}}) {
      sweep::SweepReport merged;
      std::string err;
      EXPECT_FALSE(Merge(spec, texts, &merged, &err)) << "word " << i;
      EXPECT_FALSE(err.empty()) << "word " << i;
    }
  }
}

TEST(ShardRecords, MergeSurvivesHugeAndComplementedRecordWords) {
  // A real two-shard smoke file, each word of its first cell record set
  // to 2^62 and, separately, to its bitwise complement, with the checksum
  // recomputed: the merge either rejects the file with a reason or
  // accepts it, and an accepted report goes through every sink. Nothing
  // may crash or read past the file (the ASan pass runs this too).
  const sweep::SweepSpec spec = sweep::BuiltinSpec("smoke");
  harness::WorkloadFactory factory;
  sweep::ConfigureFactoryForSpec("smoke", &factory);
  std::string texts[2];
  for (uint32_t i = 0; i < 2; ++i) {
    sweep::RunnerOptions options;
    options.threads = 2;
    options.shard_index = i;
    options.shard_count = 2;
    texts[i] = ShardText(sweep::SweepRunner(&factory, options).Run(spec),
                         factory);
  }
  // Header words: magic, schema, the spec name's length and bytes,
  // shard_index, shard_count, cell count, fingerprint. Shard 0 of the
  // 4-cell grid holds two records.
  const size_t first = 2 + 1 + (spec.name().size() + 7) / 8 + 4;
  const size_t words = texts[0].size() / 8;
  ASSERT_GT(words, first + 1);
  const size_t record = (words - 1 - first) / 2;
  ASSERT_EQ(first + 2 * record + 1, words);
  uint64_t index = 1;
  std::memcpy(&index, texts[0].data() + 8 * first, 8);
  ASSERT_EQ(index, 0u);  // the record really starts here

  size_t accepted = 0;
  for (size_t i = first; i < first + record; ++i) {
    uint64_t word = 0;
    std::memcpy(&word, texts[0].data() + 8 * i, 8);
    for (uint64_t value : {uint64_t{1} << 62, ~word}) {
      SCOPED_TRACE("word " + std::to_string(i) + " = " +
                   std::to_string(value));
      sweep::SweepReport merged;
      std::string err;
      if (sweep::MergeShardReports(spec, factory,
                                   {WithWord(texts[0], i, value), texts[1]},
                                   &merged, &err)) {
        ++accepted;
        for (const char* format : {"table", "json", "csv"}) {
          std::ostringstream os;
          sweep::MakeSink(format, /*include_timing=*/false)->Emit(merged, os);
          EXPECT_FALSE(os.str().empty()) << format;
        }
      } else {
        EXPECT_FALSE(err.empty());
      }
    }
  }
  // The index and config words are checked, the metric words are data.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 2 * record);
}

/// Changes the `row`-th field of C's field table to another valid value.
template <typename C>
void ChangeField(C* c, size_t row) {
  size_t i = 0;
  harness::VisitFields(*c, [&](const char*, auto& f, bool) {
    using T = std::decay_t<decltype(f)>;
    if (i++ != row) return;
    if constexpr (std::is_same_v<T, bool>) {
      f = !f;
    } else if constexpr (std::is_enum_v<T>) {
      f = static_cast<T>(f == T{} ? 1 : 0);
    } else {
      f = f + 1;
    }
  });
}

TEST(ConfigFieldTable, EveryRowReachesKeyFingerprintEchoAndLabel) {
  // A base cell where every presence rule holds, so every row is echoed.
  sweep::Cell base;
  base.trace.traffic.key_dist = workload::KeyDist::kHotRotate;
  base.trace.traffic.zipf_theta = 0.5;
  base.trace.traffic.arrival = workload::ArrivalShape::kOnOffBurst;
  base.trace.tenant2_clients = 2;
  base.exp.smp_bus_model = true;
  const harness::WorkloadFactory factory;
  const auto fingerprint = [&](const sweep::Cell& c) {
    return sweep::SpecFingerprint("fields", {}, {&c}, factory);
  };
  const auto echo = [](const sweep::Cell& c) {
    std::ostringstream os;
    sweep::EmitCellConfigJson(c, os, 0);
    return os.str();
  };
  const auto key = &sweep::TraceSetCache::MakeKey;

  for (size_t row = 0;
       row < harness::FieldCount<harness::TraceSetConfig>(); ++row) {
    sweep::Cell c = base;
    ChangeField(&c.trace, row);
    EXPECT_NE(key(c.trace), key(base.trace)) << "trace row " << row;
    EXPECT_NE(fingerprint(c), fingerprint(base)) << "trace row " << row;
    EXPECT_NE(echo(c), echo(base)) << "trace row " << row;
    // Build span names: two shaped configs that differ in one knob
    // (hot_rotate_period, burst_on, ...) must not share a label.
    EXPECT_NE(sweep::ConfigLabel(c.trace), sweep::ConfigLabel(base.trace))
        << "trace row " << row;
  }
  for (size_t row = 0;
       row < harness::FieldCount<harness::ExperimentConfig>(); ++row) {
    sweep::Cell c = base;
    ChangeField(&c.exp, row);
    EXPECT_NE(fingerprint(c), fingerprint(base)) << "experiment row " << row;
    EXPECT_NE(echo(c), echo(base)) << "experiment row " << row;
  }
}

}  // namespace
}  // namespace stagedcmp
