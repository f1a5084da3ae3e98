// Tests for trace event packing and the Tracer recorder.
#include <gtest/gtest.h>

#include <iterator>

#include "trace/cost_model.h"
#include "trace/events.h"
#include "trace/tracer.h"

namespace stagedcmp::trace {
namespace {

TEST(EventPackTest, ComputeRoundtrip) {
  const uint64_t e = PackEvent(EventKind::kCompute, 0xABCDEF1234ULL, 1234);
  EXPECT_EQ(UnpackKind(e), EventKind::kCompute);
  EXPECT_EQ(UnpackAddr(e), 0xABCDEF1234ULL);
  EXPECT_EQ(UnpackCount(e), 1234u);
  EXPECT_FALSE(UnpackDependent(e));
}

TEST(EventPackTest, MemDependentRoundtrip) {
  const uint64_t e = PackMemEvent(EventKind::kRead, 0x7F0000001000ULL, 77,
                                  /*dependent=*/true);
  EXPECT_EQ(UnpackKind(e), EventKind::kRead);
  EXPECT_EQ(UnpackAddr(e), 0x7F0000001000ULL);
  EXPECT_EQ(UnpackCount(e), 77u);
  EXPECT_TRUE(UnpackDependent(e));
}

class EventPackSweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, uint32_t>> {};

TEST_P(EventPackSweep, RoundtripAllFields) {
  const EventKind kind = static_cast<EventKind>(std::get<0>(GetParam()));
  const uint64_t addr = std::get<1>(GetParam());
  const uint32_t count = std::get<2>(GetParam());
  const bool mem = kind == EventKind::kRead || kind == EventKind::kWrite;
  const uint64_t e = mem ? PackMemEvent(kind, addr, count % kMaxMemCount,
                                        (addr & 1) != 0)
                         : PackEvent(kind, addr, count);
  EXPECT_EQ(UnpackKind(e), kind);
  EXPECT_EQ(UnpackAddr(e), addr & kAddrMask);
  if (mem) {
    EXPECT_EQ(UnpackCount(e), count % kMaxMemCount);
    EXPECT_EQ(UnpackDependent(e), (addr & 1) != 0);
  } else {
    EXPECT_EQ(UnpackCount(e), count);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EventPackSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0ull, 64ull, 0x7FFFFFFF0000ull,
                                         0xFFFFFFFFFFFFull),
                       ::testing::Values(0u, 1u, 100u, 8000u)));

class TracerTest : public ::testing::Test {
 protected:
  const RegionSet regions_;
  Tracer t{&regions_};
};

TEST_F(TracerTest, RecordsAddressesInItsSpaceRelativeToTheBase) {
  AddressSpace space;
  char* block = space.Carve(8192);
  Tracer in_space(&regions_, &space);
  alignas(64) char outside[64] = {};
  in_space.Read(block + 4096 + 64, 8, 4);
  in_space.Write(outside, 8, 4);
  EXPECT_EQ(in_space.unmapped_addresses(), 1u);
  std::vector<uint64_t> mem;
  for (uint64_t e : DecodeEvents(in_space.TakeTrace())) {
    const EventKind k = UnpackKind(e);
    if (k == EventKind::kRead || k == EventKind::kWrite) {
      mem.push_back(UnpackAddr(e));
    }
  }
  ASSERT_EQ(mem.size(), 2u);
  EXPECT_EQ(mem[0], Tracer::kDataBase + 4096 + 64);
  EXPECT_EQ(mem[1], reinterpret_cast<uint64_t>(outside));  // as it is
  // Without a space every address is recorded as it is, and none counts.
  t.Read(block, 8, 4);
  EXPECT_EQ(t.unmapped_addresses(), 0u);
}

TEST_F(TracerTest, ComputeAccumulatesInstructions) {
  t.Compute(100);
  t.Compute(50);
  t.FlushCompute();
  EXPECT_EQ(t.TakeTrace().total_instructions, 150u);
}

TEST_F(TracerTest, ReadSpanningLinesEmitsPerLineEvents) {
  alignas(64) char buf[256] = {};
  t.Read(buf, 200, 4);  // 200B from a 64B-aligned base: 4 lines
  const std::vector<uint64_t> ev = DecodeEvents(t.TakeTrace());
  int reads = 0;
  for (uint64_t e : ev) {
    if (UnpackKind(e) == EventKind::kRead) ++reads;
  }
  EXPECT_EQ(reads, 4);
}

TEST_F(TracerTest, DependentFlagOnlyOnFirstLine) {
  alignas(64) char buf[256] = {};
  t.Read(buf, 128, 4, /*dependent=*/true);
  const std::vector<uint64_t> ev = DecodeEvents(t.TakeTrace());
  ASSERT_GE(ev.size(), 2u);
  int dep = 0;
  for (uint64_t e : ev) dep += UnpackDependent(e);
  EXPECT_EQ(dep, 1);  // chase resolves with the first line
}

TEST_F(TracerTest, ComputeFoldedIntoMemEvent) {
  alignas(64) char buf[64] = {};
  t.Compute(20);
  t.Read(buf, 8, 4);
  const ClientTrace tr = t.TakeTrace();
  const std::vector<uint64_t> ev = DecodeEvents(tr);
  ASSERT_EQ(ev.size(), 1u);  // folded: one mem event carrying 24 instrs
  EXPECT_EQ(UnpackCount(ev[0]), 24u);
  EXPECT_EQ(tr.total_instructions, 24u);
}

TEST_F(TracerTest, RegionSwitchEmitsJumpCompute) {
  const CodeRegion r1{kCodeBase + 0x100000, 8192};
  const CodeRegion r2{kCodeBase + 0x200000, 8192};
  t.EnterRegion(r1);
  t.Compute(50);
  t.EnterRegion(r2);
  t.Compute(50);
  t.FlushCompute();
  const std::vector<uint64_t> ev = DecodeEvents(t.TakeTrace());
  bool saw_r1 = false, saw_r2 = false;
  for (uint64_t e : ev) {
    if (UnpackKind(e) != EventKind::kCompute) continue;
    const uint64_t pc = UnpackAddr(e);
    saw_r1 |= pc >= r1.base && pc < r1.base + r1.size;
    saw_r2 |= pc >= r2.base && pc < r2.base + r2.size;
  }
  EXPECT_TRUE(saw_r1);
  EXPECT_TRUE(saw_r2);
}

TEST_F(TracerTest, RegionPcPersistsAcrossReentry) {
  const CodeRegion r1{kCodeBase + 0x100000, 65536};
  const CodeRegion r2{kCodeBase + 0x200000, 65536};
  t.EnterRegion(r1);
  t.Compute(500);
  t.EnterRegion(r2);
  t.Compute(10);
  t.EnterRegion(r1);  // PC must resume past the first 500 instructions
  t.Compute(10);
  t.FlushCompute();
  uint64_t last_r1_pc = 0;
  for (uint64_t e : DecodeEvents(t.TakeTrace())) {
    if (UnpackKind(e) == EventKind::kCompute) {
      const uint64_t pc = UnpackAddr(e);
      if (pc >= r1.base && pc < r1.base + r1.size) last_r1_pc = pc;
    }
  }
  EXPECT_GT(last_r1_pc, r1.base + 500);  // advanced well past region start
}

TEST_F(TracerTest, EndRequestEmitsMarker) {
  t.Compute(10);
  t.EndRequest();
  t.Compute(10);
  t.EndRequest();
  const ClientTrace tr = t.TakeTrace();
  EXPECT_EQ(tr.requests, 2u);
  int markers = 0;
  for (uint64_t e : DecodeEvents(tr)) {
    markers += (UnpackKind(e) == EventKind::kMarker);
  }
  EXPECT_EQ(markers, 2);
}

TEST_F(TracerTest, DisabledRecordsNothing) {
  t.set_enabled(false);
  alignas(64) char buf[64] = {};
  t.Compute(100);
  t.Read(buf, 64, 4);
  t.EndRequest();
  const ClientTrace tr = t.TakeTrace();
  EXPECT_TRUE(tr.empty());
  EXPECT_EQ(tr.total_instructions, 0u);
}

TEST_F(TracerTest, TakeTraceResets) {
  t.Compute(10);
  t.FlushCompute();
  ClientTrace tr = t.TakeTrace();
  EXPECT_FALSE(tr.empty());
  EXPECT_TRUE(t.TakeTrace().empty());
}

/// One client's recording: an operator switch, folded and plain reads,
/// and a request marker.
void RecordClient(Tracer* t, const RegionSet& regions, const char* buf) {
  t->EnterRegion(regions[RegionId::kBtree]);
  t->Compute(30);
  t->Read(buf, 100, 4, /*dependent=*/true);
  t->EnterRegion(regions[RegionId::kSeqScan]);
  t->Compute(500);
  t->Write(buf + 64, 8);
  t->EndRequest();
}

TEST_F(TracerTest, TakeTraceStartsTheNextClientAsIfNew) {
  // One tracer recording clients back to back (a world's build) records
  // what a fresh tracer per client would, its payloads packed end to end.
  alignas(64) char buf[256] = {};
  RecordClient(&t, regions_, buf);
  const ClientTrace first = t.TakeTrace();
  RecordClient(&t, regions_, buf);
  const ClientTrace second = t.TakeTrace();
  Tracer fresh(&regions_);
  RecordClient(&fresh, regions_, buf);
  const ClientTrace alone = fresh.TakeTrace();
  EXPECT_EQ(DecodeEvents(second), DecodeEvents(alone));
  EXPECT_EQ(DecodeEvents(first), DecodeEvents(alone));
  EXPECT_EQ(second.total_instructions, alone.total_instructions);
  EXPECT_EQ(second.requests, 1u);
  EXPECT_EQ(second.payload(), first.payload() + first.payload_words());
}

// The canonical code layout, pinned literally. A region's base is part
// of every PC recorded in it, so moving one (or resizing a region before
// it) silently shifts recorded instruction streams and every golden.
// The regions no operator traces (kIndexScan, kProject, kNlJoin, kSort)
// hold their place for kYcsb and kIdle.
TEST(CostModelTest, CanonicalLayoutIsPinned) {
  struct Pin {
    RegionId id;
    uint64_t base;
    uint32_t size;
  };
  constexpr Pin kPins[] = {
      {RegionId::kSeqScan, 0x400000032000ULL, 20480},
      {RegionId::kIndexScan, 0x400000054000ULL, 28672},
      {RegionId::kFilter, 0x40000004c000ULL, 12288},
      {RegionId::kProject, 0x40000005b000ULL, 10240},
      {RegionId::kHashBuild, 0x40000003d000ULL, 26624},
      {RegionId::kHashProbe, 0x400000044000ULL, 30720},
      {RegionId::kNlJoin, 0x40000005e000ULL, 16384},
      {RegionId::kSort, 0x400000062000ULL, 34816},
      {RegionId::kAggregate, 0x400000037000ULL, 24576},
      {RegionId::kBufferPool, 0x400000000000ULL, 36864},
      {RegionId::kBtree, 0x40000001b000ULL, 40960},
      {RegionId::kLockMgr, 0x400000009000ULL, 28672},
      {RegionId::kTxn, 0x400000010000ULL, 45056},
      {RegionId::kCatalog, 0x400000025000ULL, 53248},
      {RegionId::kStageRuntime, 0x40000004f000ULL, 18432},
      {RegionId::kYcsb, 0x40000006b000ULL, 32768},
      {RegionId::kIdle, 0x400000073000ULL, 4096},
  };
  static_assert(std::size(kPins) == kRegionCount);
  const RegionSet regions;
  uint64_t footprint = 0;
  for (const Pin& p : kPins) {
    EXPECT_EQ(regions[p.id].base, p.base) << static_cast<int>(p.id);
    EXPECT_EQ(regions[p.id].size, p.size) << static_cast<int>(p.id);
    footprint += regions[p.id].size;
  }
  // Aggregate engine instruction footprint far exceeds a 32KB L1I.
  EXPECT_GT(footprint, 300u * 1024);
}

}  // namespace
}  // namespace stagedcmp::trace
