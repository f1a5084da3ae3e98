// The trace event codec (trace/events.h): every 64-bit event word
// round-trips through the encoded storage, restart blocks let a cursor
// start anywhere, recorded sets re-encode to the same bytes, and a
// corrupted bundle header or offset table is refused before any event is
// decoded from it.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "harness/config_fields.h"
#include "harness/experiment.h"
#include "scenario_util.h"
#include "sweep/checksum.h"
#include "sweep/trace_bundle.h"
#include "sweep/trace_cache.h"
#include "trace/events.h"

namespace stagedcmp::trace {
namespace {

std::vector<uint64_t> RoundTrip(const std::vector<uint64_t>& events) {
  ClientTrace t;
  EncodeEvents(events, &t);
  EXPECT_EQ(t.events_size(), events.size());
  return DecodeEvents(t);
}

TEST(TraceCodec, EveryKindCountAndFlagRoundTrips) {
  std::vector<uint64_t> events;
  for (uint64_t addr : {uint64_t{0}, uint64_t{64}, kAddrMask, uint64_t{1},
                        uint64_t{0x7fff'1234'5678}, kAddrMask - 63}) {
    for (uint32_t count : {0u, 1u, 15u, 16u, kMaxMemCount}) {
      for (bool dep : {false, true}) {
        events.push_back(PackMemEvent(EventKind::kRead, addr, count, dep));
        events.push_back(PackMemEvent(EventKind::kWrite, addr, count, dep));
      }
    }
    for (uint32_t count : {0u, 1u, 191u, kMaxMemCount, kMaxEventCount}) {
      events.push_back(PackEvent(EventKind::kCompute, addr, count));
      events.push_back(PackEvent(EventKind::kMarker, addr, count));
    }
  }
  EXPECT_EQ(RoundTrip(events), events);
}

TEST(TraceCodec, UnalignedAddressesAndExtremeDeltasRoundTrip) {
  std::vector<uint64_t> events;
  // Line deltas are taken modulo 2^42 and PC deltas modulo 2^48; these
  // walk both to their largest positive and negative steps.
  const uint64_t half_line_space = (1ull << 41) << 6;
  const uint64_t half_pc_space = 1ull << 47;
  for (uint64_t addr :
       {uint64_t{0}, half_line_space, half_line_space - 64, uint64_t{0},
        half_line_space + 64, kAddrMask, uint64_t{0}, uint64_t{3},
        uint64_t{0x1000 + 17}, kAddrMask - 1, uint64_t{63}}) {
    events.push_back(PackMemEvent(EventKind::kRead, addr, 4, false));
    events.push_back(PackMemEvent(EventKind::kWrite, addr | 5, 4, true));
  }
  for (uint64_t pc : {uint64_t{0}, half_pc_space, half_pc_space - 1,
                      uint64_t{0}, half_pc_space + 1, kAddrMask, uint64_t{1},
                      uint64_t{0x400000000000}, uint64_t{0x400000000003}}) {
    events.push_back(PackEvent(EventKind::kCompute, pc, 8));
  }
  EXPECT_EQ(RoundTrip(events), events);

  // Any word at all: the codec is lossless over the whole 64-bit space.
  Rng rng(42);
  std::vector<uint64_t> random(3000);
  for (uint64_t& w : random) w = rng.Next();
  EXPECT_EQ(RoundTrip(random), random);
}

std::vector<uint64_t> MixedStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> out;
  uint64_t line = 1000, pc = 0x400000000000;
  for (size_t i = 0; i < n; ++i) {
    switch (rng.Next() % 4) {
      case 0:
        line += rng.Next() % 64;
        out.push_back(PackMemEvent(EventKind::kRead, line << 6, 4,
                                   rng.Next() % 8 == 0));
        break;
      case 1:
        line -= rng.Next() % 16;
        out.push_back(PackMemEvent(EventKind::kWrite, (line << 6) + 9, 2,
                                   false));
        break;
      case 2:
        pc += rng.Next() % 4096;
        out.push_back(
            PackEvent(EventKind::kCompute, pc, 1 + rng.Next() % 192));
        break;
      default:
        out.push_back(PackEvent(EventKind::kMarker, 0, 0));
    }
  }
  return out;
}

TEST(TraceCodec, RestartBlocksAtTheirBoundaries) {
  for (size_t n : {0u, 1u, 1023u, 1024u, 1025u, 5000u}) {
    SCOPED_TRACE(n);
    const std::vector<uint64_t> events = MixedStream(n, n + 1);
    ClientTrace t;
    EncodeEvents(events, &t);
    EXPECT_EQ(DecodeEvents(t), events);
    const uint64_t blocks = BlockCount(n);
    EXPECT_EQ(blocks, (n + kBlockEvents - 1) / kBlockEvents);
    EXPECT_EQ(t.payload_words(), blocks + (t.encoded_bytes() + 7) / 8);
    for (uint64_t b = 0; b < blocks; ++b) {
      // Each block starts from zero, so it decodes on its own.
      EventCursor c(t);
      c.Seek(b * kBlockEvents);
      EXPECT_EQ(c.Next(), events[b * kBlockEvents]);
    }
  }
}

TEST(TraceCodec, SeekMatchesALinearDecodeAtEveryEvent) {
  const std::vector<uint64_t> events = MixedStream(5000, 9);
  ClientTrace t;
  EncodeEvents(events, &t);
  for (uint64_t k = 0; k <= events.size(); ++k) {
    EventCursor c(t);
    c.Seek(k);
    ASSERT_EQ(c.pos(), k);
    if (k == events.size()) {
      EXPECT_TRUE(c.done());
      continue;
    }
    ASSERT_EQ(c.Next(), events[k]) << "k=" << k;
    if (k + 1 < events.size()) {
      ASSERT_EQ(c.Next(), events[k + 1]);
    }
  }
}

TEST(TraceCodec, ViewsReadTheSamePayload) {
  const std::vector<uint64_t> events = MixedStream(2500, 3);
  ClientTrace owner;
  EncodeEvents(events, &owner);
  owner.total_instructions = 77;
  owner.requests = 5;
  ClientTrace view;
  view.ViewOf(owner);
  EXPECT_EQ(view.payload(), owner.payload());
  EXPECT_EQ(view.total_instructions, 77u);
  EXPECT_EQ(view.requests, 5u);
  EXPECT_EQ(DecodeEvents(view), events);
}

TEST(TraceCodec, MovedFromTracesAreEmpty) {
  const std::vector<uint64_t> events = MixedStream(3000, 4);
  ClientTrace a;
  EncodeEvents(events, &a);
  a.total_instructions = 11;
  a.requests = 2;
  const uint64_t* payload = a.payload();
  ClientTrace b(std::move(a));
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.payload(), nullptr);
  EXPECT_EQ(a.total_instructions, 0u);
  EXPECT_EQ(a.requests, 0u);
  EXPECT_EQ(b.payload(), payload);  // the share moved, not the bytes
  EXPECT_EQ(b.total_instructions, 11u);
  ClientTrace c;
  c = std::move(b);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.payload(), nullptr);
  EXPECT_EQ(c.payload(), payload);
  EXPECT_EQ(c.requests, 2u);
  EXPECT_EQ(DecodeEvents(c), events);
}

TEST(TraceCodec, MultiMegabyteStreamsRoundTrip) {
  const std::vector<uint64_t> events = MixedStream(1'600'000, 21);
  ClientTrace t;
  EncodeEvents(events, &t);
  ASSERT_GE(t.encoded_bytes(), uint64_t{4} << 20);
  EXPECT_EQ(DecodeEvents(t), events);
}

TEST(TraceCodec, OneEncodersPayloadsPackEndToEnd) {
  const std::vector<uint64_t> a_events = MixedStream(3000, 5);
  const std::vector<uint64_t> b_events = MixedStream(777, 6);
  ClientTrace a, empty, b;
  {
    EventEncoder enc;
    for (uint64_t e : a_events) enc.Append(e);
    enc.Finish(&a);
    enc.Finish(&empty);
    enc.Append(a_events[0]);
    enc.Discard();
    for (uint64_t e : b_events) enc.Append(e);
    enc.Finish(&b);
  }  // the traces keep their chunk mapped
  EXPECT_EQ(empty.payload(), nullptr);
  EXPECT_EQ(b.payload(), a.payload() + a.payload_words());
  EXPECT_EQ(DecodeEvents(a), a_events);
  EXPECT_EQ(DecodeEvents(b), b_events);
  a = ClientTrace();
  EXPECT_EQ(DecodeEvents(b), b_events);  // b still holds the chunk
}

TEST(TraceCodec, ADroppedTracesStorageIsReusedFromTheChunksFront) {
  // A streamed build copies each trace out and drops it: the next trace
  // must land where the dropped one was, not after it in fresh pages.
  const std::vector<uint64_t> a_events = MixedStream(3000, 5);
  const std::vector<uint64_t> b_events = MixedStream(777, 6);
  EventEncoder enc;
  ClientTrace a, b, c;
  for (uint64_t e : a_events) enc.Append(e);
  enc.Finish(&a);
  const uint64_t* front = a.payload();
  a = ClientTrace();  // the chunk's only trace dies
  for (uint64_t e : b_events) enc.Append(e);
  enc.Finish(&b);
  EXPECT_EQ(b.payload(), front);
  EXPECT_EQ(DecodeEvents(b), b_events);
  // While b lives, the next trace packs after it as before.
  for (uint64_t e : a_events) enc.Append(e);
  enc.Finish(&c);
  EXPECT_EQ(c.payload(), b.payload() + b.payload_words());
  EXPECT_EQ(DecodeEvents(b), b_events);
  EXPECT_EQ(DecodeEvents(c), a_events);
}

/// Appends `n` markers (2 encoded bytes each) to `enc`.
void AppendMarkers(EventEncoder* enc, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) enc->Append(PackEvent(EventKind::kMarker, 0, 0));
}

/// Whether `t` is `n` markers.
bool IsMarkers(const ClientTrace& t, uint64_t n) {
  if (t.events_size() != n) return false;
  for (EventCursor c(t); !c.done();) {
    if (c.Next() != PackEvent(EventKind::kMarker, 0, 0)) return false;
  }
  return true;
}

TEST(TraceCodec, PayloadsAroundAChunksEndRoundTrip) {
  // A payload of n markers is ByteWords(2n) + BlockCount(n) words. Find
  // the first n whose payload fills a whole chunk: n - 1 leaves the next
  // trace too little room, and the first n past a full chunk makes
  // Finish move the trace to a fresh chunk for its offset table.
  const uint64_t chunk = EventEncoder::kChunkBytes;
  const auto bytes = [](uint64_t n) { return PayloadWords(n, 2 * n) * 8; };
  uint64_t full = chunk / 2 - chunk / 256;
  while (bytes(full) < chunk) ++full;
  ASSERT_EQ(bytes(full), chunk);
  uint64_t over = full;
  while (bytes(over) <= chunk) ++over;
  const std::vector<uint64_t> next = MixedStream(2000, 8);
  for (uint64_t n : {full - 1, full, over}) {
    SCOPED_TRACE(n);
    EventEncoder enc;
    ClientTrace first, second;
    AppendMarkers(&enc, n);
    enc.Finish(&first);
    for (uint64_t e : next) enc.Append(e);
    enc.Finish(&second);
    EXPECT_TRUE(IsMarkers(first, n));
    EXPECT_EQ(DecodeEvents(second), next);
  }
}

TEST(TraceCodec, TracesLargerThanAChunkRoundTrip) {
  // The second trace outgrows the chunk the first one finished in: it
  // moves, bytes and all, to a fresh chunk twice the size it needs, and
  // the first trace keeps the old chunk.
  const std::vector<uint64_t> head = MixedStream(5000, 9);
  const uint64_t markers = EventEncoder::kChunkBytes * 3 / 4;
  EventEncoder enc;
  ClientTrace first, big;
  for (uint64_t e : head) enc.Append(e);
  enc.Finish(&first);
  for (uint64_t e : head) enc.Append(e);
  AppendMarkers(&enc, markers);
  enc.Finish(&big);
  ASSERT_GT(big.encoded_bytes(), EventEncoder::kChunkBytes);
  EXPECT_EQ(DecodeEvents(first), head);
  EventCursor c(big);
  for (uint64_t e : head) ASSERT_EQ(c.Next(), e);
  uint64_t n = 0;
  for (; !c.done(); ++n) ASSERT_EQ(c.Next(), PackEvent(EventKind::kMarker, 0, 0));
  EXPECT_EQ(n, markers);
}

/// Sum of every event's instruction count.
uint64_t CountSum(const std::vector<uint64_t>& events) {
  uint64_t sum = 0;
  for (uint64_t e : events) sum += UnpackCount(e);
  return sum;
}

TEST(TraceCodec, RecordedSetsReencodeToIdenticalBytes) {
  harness::WorkloadFactory factory;
  scenario::ApplyTinyScale(&factory);
  for (harness::WorkloadKind kind :
       {harness::WorkloadKind::kOltp, harness::WorkloadKind::kDss}) {
    harness::TraceSetConfig cfg;
    cfg.workload = kind;
    cfg.clients = 3;
    cfg.requests_per_client = 2;
    cfg.seed = 5;
    const harness::TraceSet set = factory.Build(cfg);
    uint64_t instructions = 0, events = 0;
    for (const ClientTrace& t : set.traces) {
      const std::vector<uint64_t> decoded = DecodeEvents(t);
      ClientTrace again;
      EncodeEvents(decoded, &again);
      ASSERT_EQ(again.payload_words(), t.payload_words());
      EXPECT_EQ(std::memcmp(again.payload(), t.payload(),
                            t.payload_words() * 8),
                0);
      EXPECT_EQ(CountSum(decoded), t.total_instructions);
      instructions += CountSum(decoded);
      events += decoded.size();
    }
    EXPECT_EQ(instructions, set.total_instructions);
    EXPECT_EQ(events, set.total_events);
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}
void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(TraceCodec, FlippedHeaderOrOffsetTableByteIsRefused) {
  // A small two-trace bundle whose second trace spans three blocks.
  harness::WorkloadFactory factory;
  harness::TraceSetConfig cfg;
  cfg.clients = 2;
  harness::TraceSet set;
  set.config = cfg;
  set.traces.resize(2);
  EncodeEvents(MixedStream(300, 1), &set.traces[0]);
  EncodeEvents(MixedStream(2100, 2), &set.traces[1]);
  for (const ClientTrace& t : set.traces) set.total_events += t.events_size();
  const std::string path = ::testing::TempDir() + "codec_flip.traces";
  ASSERT_TRUE(sweep::SaveTraceBundle(path, factory, {&set}));
  const std::string good = ReadFile(path);

  // Row i of set 0: requests, instructions, n_events, n_bytes, offset,
  // checksum, after magic, version, scale knobs, set count, config block
  // and the set's three words.
  const uint64_t row0 = 2 + harness::ScaleWords(factory).size() + 1 +
                        harness::FieldCount<harness::TraceSetConfig>() + 3;
  const auto word = [&](uint64_t w) {
    uint64_t v = 0;
    std::memcpy(&v, good.data() + w * 8, 8);
    return v;
  };
  const uint64_t header_end = word(row0 + 4);  // first payload's offset
  ASSERT_EQ(header_end % 64, 0u);

  const auto outcome = [&](size_t byte) {
    std::string bad = good;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x5A);
    WriteFile(path, bad);
    const sweep::BundleOpenResult r =
        sweep::OpenTraceBundle(path, factory, {cfg});
    if (r.mode == "cold") return std::string("cold");
    return std::string(sweep::VerifyBundleSet(r.sets[0], r.checksums[0])
                           ? "served"
                           : "demoted");
  };
  // Every header byte, its padding included, rejects the whole file.
  for (size_t b = 0; b < header_end; ++b) {
    ASSERT_EQ(outcome(b), "cold") << "header byte " << b;
  }
  // Every byte of each payload — offset table and encoded events —
  // demotes the set before a cursor reads it.
  for (uint64_t i = 0; i < 2; ++i) {
    const uint64_t offset = word(row0 + 6 * i + 4);
    const uint64_t words = PayloadWords(word(row0 + 6 * i + 2),
                                        word(row0 + 6 * i + 3));
    for (uint64_t b = offset; b < offset + words * 8; ++b) {
      ASSERT_EQ(outcome(b), "demoted") << "trace " << i << " byte " << b;
    }
  }
  // The padding after the last payload is no data.
  const uint64_t last_end =
      word(row0 + 10) + 8 * PayloadWords(word(row0 + 8), word(row0 + 9));
  ASSERT_LE(last_end, good.size());
  if (last_end < good.size()) {
    EXPECT_EQ(outcome(good.size() - 1), "served");
  }
  std::remove(path.c_str());
}

TEST(TraceCodec, OversizedBundleLengthWordsAreRefused) {
  // A real two-set bundle: a recorded OLTP set and a prefix slice of it,
  // whose index rows name the first set's payloads again.
  harness::WorkloadFactory factory;
  scenario::ApplyTinyScale(&factory);
  harness::TraceSetConfig big;
  big.workload = harness::WorkloadKind::kOltp;
  big.clients = 3;
  big.requests_per_client = 2;
  big.seed = 5;
  harness::TraceSetConfig small = big;
  small.clients = 2;
  const auto leader =
      std::make_shared<const harness::TraceSet>(factory.Build(big));
  const harness::TraceSet slice = sweep::PrefixSlice(leader, small);
  const std::vector<harness::TraceSetConfig> configs = {big, small};
  const std::string path = ::testing::TempDir() + "codec_lengths.traces";
  ASSERT_TRUE(sweep::SaveTraceBundle(path, factory, {leader.get(), &slice}));
  const std::string good = ReadFile(path);
  const auto word = [](const std::string& bytes, uint64_t w) {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + w * 8, 8);
    return v;
  };

  // Walk the header: magic, version, scale knobs and set count, then per
  // set its config block, two totals, the trace count and one row per
  // trace (requests, instructions, n_events, n_bytes, offset, checksum).
  std::vector<uint64_t> length_words;
  uint64_t pos = 2 + harness::ScaleWords(factory).size() + 1;
  for (const harness::TraceSetConfig& c : configs) {
    pos += harness::FieldCount<harness::TraceSetConfig>() + 2;
    length_words.push_back(pos);  // trace count
    ASSERT_EQ(word(good, pos), c.clients);
    ++pos;
    for (uint32_t i = 0; i < c.clients; ++i, pos += 6) {
      for (uint64_t field : {2, 3, 4}) length_words.push_back(pos + field);
    }
  }
  const uint64_t checksum_word = pos;
  const auto header_sum = [&](const std::string& bytes) {
    sweep::Checksum sum;
    for (uint64_t w = 0; w < checksum_word; ++w) sum.Mix(word(bytes, w));
    return sum.state;
  };
  ASSERT_EQ(header_sum(good), word(good, checksum_word));  // layout pinned

  // Each word set to 2^62 and to its complement, under a header checksum
  // that matches again: the open must refuse it, or a set must fail its
  // payload verification. Never a crash or an over-read (ASan).
  for (uint64_t w : length_words) {
    for (uint64_t value : {uint64_t{1} << 62, ~word(good, w)}) {
      std::string bad = good;
      std::memcpy(&bad[w * 8], &value, 8);
      const uint64_t sum = header_sum(bad);
      std::memcpy(&bad[checksum_word * 8], &sum, 8);
      WriteFile(path, bad);
      const sweep::BundleOpenResult r =
          sweep::OpenTraceBundle(path, factory, configs);
      if (r.mode == "cold") continue;
      bool all_verified = true;
      for (size_t j = 0; j < r.sets.size(); ++j) {
        all_verified &= sweep::VerifyBundleSet(r.sets[j], r.checksums[j]);
      }
      EXPECT_FALSE(all_verified) << "word " << w << " = " << value;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stagedcmp::trace
