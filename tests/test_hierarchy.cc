// Tests for the CMP (shared L2) and SMP (private L2 + MESI) hierarchies.
#include <gtest/gtest.h>

#include "memsim/hierarchy.h"
#include "common/rng.h"
#include "memsim/stream_buffer.h"

namespace stagedcmp::memsim {
namespace {

HierarchyConfig SmallConfig() {
  HierarchyConfig h;
  h.num_cores = 4;
  h.l1i = CacheConfig{4 * 1024, 2, 64};
  h.l1d = CacheConfig{4 * 1024, 2, 64};
  h.l2 = CacheConfig{64 * 1024, 4, 64};
  h.lat.l1_hit = 2;
  h.lat.l2_hit = 14;
  h.lat.memory = 400;
  h.lat.remote_l2 = 350;
  h.l2_ports = 2;
  return h;
}

TEST(SharedL2Test, MissHitProgression) {
  SharedL2Hierarchy h(SmallConfig());
  // Cold: off-chip.
  AccessResult r1 = h.AccessData(0, 0x1000, false, 0);
  EXPECT_EQ(r1.cls, AccessClass::kOffChip);
  EXPECT_GE(r1.latency, 400u);
  // Now L1-resident.
  AccessResult r2 = h.AccessData(0, 0x1000, false, 500);
  EXPECT_EQ(r2.cls, AccessClass::kL1Hit);
  EXPECT_EQ(r2.latency, 2u);
}

TEST(SharedL2Test, PeerMissBecomesL2Hit) {
  SharedL2Hierarchy h(SmallConfig());
  h.AccessData(0, 0x2000, false, 0);            // core 0 fetches
  AccessResult r = h.AccessData(1, 0x2000, false, 500);  // core 1: L2 hit
  EXPECT_EQ(r.cls, AccessClass::kL2Hit);
}

TEST(SharedL2Test, DirtyRemoteL1ServedOnChip) {
  SharedL2Hierarchy h(SmallConfig());
  h.AccessData(0, 0x3000, true, 0);  // core 0 writes (dirty in its L1)
  AccessResult r = h.AccessData(1, 0x3000, false, 500);
  EXPECT_EQ(r.cls, AccessClass::kL2Hit);  // L1-to-L1 counted as on-chip hit
  EXPECT_EQ(h.stats().l1_to_l1_transfers, 1u);
}

TEST(SharedL2Test, WriteInvalidatesPeerL1Copies) {
  SharedL2Hierarchy h(SmallConfig());
  h.AccessData(0, 0x4000, false, 0);
  h.AccessData(1, 0x4000, false, 100);  // both L1s now share the line
  h.AccessData(0, 0x4000, true, 200);   // core 0 writes
  EXPECT_GE(h.stats().invalidations, 1u);
  // Core 1 re-read must leave its (invalidated) L1.
  AccessResult r = h.AccessData(1, 0x4000, false, 300);
  EXPECT_NE(r.cls, AccessClass::kL1Hit);
}

TEST(SharedL2Test, PortContentionQueuesBursts) {
  HierarchyConfig cfg = SmallConfig();
  cfg.l2_ports = 1;
  cfg.l2_port_occupancy = 10;
  SharedL2Hierarchy h(cfg);
  // Two same-time misses from different cores: second queues.
  AccessResult a = h.AccessData(0, 0x10000, false, 0);
  AccessResult b = h.AccessData(1, 0x20000, false, 0);
  EXPECT_EQ(a.queue_delay, 0u);
  EXPECT_GE(b.queue_delay, 10u);
  EXPECT_GT(b.latency, a.latency);
}

TEST(SharedL2Test, InstrStreamBufferShortensSequentialMisses) {
  HierarchyConfig cfg = SmallConfig();
  SharedL2Hierarchy h(cfg);
  // Sequential I-lines: first misses to memory, following ones are
  // stream-buffer near-hits.
  AccessResult first = h.AccessInstr(0, 0x100000, 0);
  EXPECT_EQ(first.cls, AccessClass::kOffChip);
  AccessResult second = h.AccessInstr(0, 0x100040, 10);
  EXPECT_EQ(second.cls, AccessClass::kL1Hit);
  EXPECT_LE(second.latency, kStreamBufferHitCycles);
}

TEST(SharedL2Test, ResetStatsKeepsContents) {
  SharedL2Hierarchy h(SmallConfig());
  h.AccessData(0, 0x5000, false, 0);
  h.ResetStats();
  EXPECT_EQ(h.stats().data_total(), 0u);
  AccessResult r = h.AccessData(0, 0x5000, false, 100);
  EXPECT_EQ(r.cls, AccessClass::kL1Hit);  // contents survived
}

TEST(PrivateL2Test, DirtyRemoteReadIsCoherenceMiss) {
  PrivateL2Hierarchy h(SmallConfig());
  h.AccessData(0, 0x6000, true, 0);  // node 0 holds Modified
  AccessResult r = h.AccessData(1, 0x6000, false, 500);
  EXPECT_EQ(r.cls, AccessClass::kCoherence);
  EXPECT_EQ(r.latency, 350u);
}

TEST(PrivateL2Test, CleanRemoteReadGoesToMemoryShared) {
  PrivateL2Hierarchy h(SmallConfig());
  h.AccessData(0, 0x7000, false, 0);  // node 0: Exclusive clean
  AccessResult r = h.AccessData(1, 0x7000, false, 500);
  EXPECT_EQ(r.cls, AccessClass::kOffChip);  // no dirty transfer needed
  // Subsequent write by node 0 must upgrade (peers share it now).
  AccessResult w = h.AccessData(0, 0x7000, true, 1000);
  EXPECT_EQ(w.cls, AccessClass::kCoherence);  // upgrade transaction
  EXPECT_GE(h.stats().invalidations, 1u);
}

TEST(PrivateL2Test, WritePingPongProducesRepeatedCoherenceMisses) {
  PrivateL2Hierarchy h(SmallConfig());
  h.AccessData(0, 0x8000, true, 0);
  uint64_t coh = 0;
  for (int i = 1; i <= 6; ++i) {
    AccessResult r = h.AccessData(i % 2, 0x8000, true, i * 1000);
    if (r.cls == AccessClass::kCoherence) ++coh;
  }
  EXPECT_GE(coh, 5u);  // every ownership handoff is a coherence miss
}

TEST(PrivateL2Test, LocalRepeatAccessHitsL1) {
  PrivateL2Hierarchy h(SmallConfig());
  h.AccessData(2, 0x9000, true, 0);
  AccessResult r = h.AccessData(2, 0x9000, true, 100);
  EXPECT_EQ(r.cls, AccessClass::kL1Hit);
}

TEST(PrivateL2Test, SameLineInstrFetchAfterMissHitsL1I) {
  PrivateL2Hierarchy h(SmallConfig());
  h.AccessInstr(0, 0xA000, 0);
  AccessResult r = h.AccessInstr(0, 0xA010, 10);  // same line
  EXPECT_EQ(r.cls, AccessClass::kL1Hit);
  EXPECT_EQ(r.latency, 0u);
}

TEST(StreamBufferTest, ProbeConsumesAndAdvances) {
  StreamBufferFile sb(2, 4);
  sb.Allocate(100);  // streams 101, 102, 103, 104
  EXPECT_TRUE(sb.Probe(101));
  EXPECT_TRUE(sb.Probe(102));
  EXPECT_FALSE(sb.Probe(200));  // non-sequential miss
  EXPECT_GT(sb.hit_rate(), 0.0);
}

TEST(StreamBufferTest, DepthExhausts) {
  StreamBufferFile sb(1, 2);
  sb.Allocate(10);
  EXPECT_TRUE(sb.Probe(11));
  EXPECT_TRUE(sb.Probe(12));
  EXPECT_FALSE(sb.Probe(13));  // beyond depth
}

// MESI safety property under randomized cross-node traffic: a node never
// reads stale data locally — any access that follows a *different* node's
// write to the same line must miss the local L1 (single-writer property,
// observed behaviorally).
class MesiSafetyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MesiSafetyTest, NoLocalHitAfterRemoteWrite) {
  PrivateL2Hierarchy h(SmallConfig());
  Rng rng(GetParam());
  constexpr int kLines = 16;
  int last_writer[kLines];
  for (int& w : last_writer) w = -1;
  uint64_t now = 0;
  for (int step = 0; step < 20000; ++step) {
    const uint32_t node = static_cast<uint32_t>(rng.Next() % 4);
    const int line_idx = static_cast<int>(rng.Next() % kLines);
    const uint64_t addr = 0x40000 + static_cast<uint64_t>(line_idx) * 64;
    const bool is_write = (rng.Next() & 3) == 0;
    AccessResult r = h.AccessData(node, addr, is_write, now += 10);
    const int lw = last_writer[line_idx];
    if (lw >= 0 && lw != static_cast<int>(node)) {
      // First touch after a remote write must not be a local L1 hit.
      EXPECT_NE(r.cls, AccessClass::kL1Hit)
          << "stale local copy of line " << line_idx << " at step " << step;
    }
    if (is_write) {
      last_writer[line_idx] = static_cast<int>(node);
    } else if (lw != static_cast<int>(node) && lw >= 0) {
      // Read pulled a fresh copy; subsequent local reads may hit until
      // the next remote write.
      last_writer[line_idx] = -2 - static_cast<int>(node);  // sentinel
    }
    // Normalize sentinel: a line in shared state has no "last writer"
    // conflict until somebody writes again.
    if (last_writer[line_idx] <= -2) last_writer[line_idx] = -1;
  }
  EXPECT_GT(h.stats().invalidations +
                h.stats().data_count[static_cast<int>(
                    AccessClass::kCoherence)],
            0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MesiSafetyTest,
                         ::testing::Values(1ull, 77ull, 4242ull));

// Property: bigger shared L2 never increases off-chip accesses for a
// fixed deterministic access pattern.
class L2SizeSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(L2SizeSweepTest, OffChipMonotoneInCacheSize) {
  auto run = [](uint64_t l2_bytes) {
    HierarchyConfig cfg = SmallConfig();
    cfg.l2 = CacheConfig{l2_bytes, 4, 64};
    SharedL2Hierarchy h(cfg);
    // Cyclic pattern over 512 lines from 4 cores.
    for (int rep = 0; rep < 20; ++rep) {
      for (uint64_t i = 0; i < 512; ++i) {
        h.AccessData(i % 4, 0x100000 + i * 64, false, rep * 10000 + i);
      }
    }
    return h.stats().data_count[static_cast<int>(AccessClass::kOffChip)];
  };
  const uint64_t small = run(GetParam());
  const uint64_t big = run(GetParam() * 4);
  EXPECT_GE(small, big);
}

INSTANTIATE_TEST_SUITE_P(Sweep, L2SizeSweepTest,
                         ::testing::Values(8ull << 10, 16ull << 10,
                                           32ull << 10));

}  // namespace
}  // namespace stagedcmp::memsim
