// Closed-form checks for the SMP shared-bus occupancy model: a
// hand-serialized transaction stream must produce exactly the queue
// delays, busy cycles and transaction counts the occupancy arithmetic
// predicts; an idle bus must charge nothing (flat-arm latencies); and
// both coherence arms must order overlapping requesters identically.
//
// Cycle accounting under test (docs/COHERENCE.md "Shared-bus occupancy"):
//   fetch (any L2-miss fill, data or instruction) — addr + data cycles,
//     requester waits behind the bus and samples queue_delay;
//   upgrade (write to Shared) — addr cycles only, same wait rules;
//   dirty-victim writeback — data cycles posted (bus advances, no wait,
//     no queue_delay sample).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "memsim/hierarchy.h"

namespace stagedcmp::memsim {
namespace {

HierarchyConfig BusConfig(uint32_t cores) {
  HierarchyConfig h;
  h.num_cores = cores;
  h.smp_bus = true;
  return h;
}

TEST(BusModelTest, IdleBusChargesZeroAndMatchesFlatLatencies) {
  HierarchyConfig hc = BusConfig(2);
  PrivateL2Hierarchy bus(hc);
  hc.smp_bus = false;
  PrivateL2Hierarchy flat(hc);

  // Widely spaced accesses: the bus is always free again by the time the
  // next transaction arrives, so every latency must equal the flat arm's
  // and the queue-delay histogram must stay all-zero (while still
  // recording one sample per bus transaction).
  uint64_t now = 0;
  for (int i = 0; i < 64; ++i) {
    const uint32_t node = static_cast<uint32_t>(i % 2);
    const uint64_t addr = 0x40000 + static_cast<uint64_t>(i) * 64;
    const AccessResult a = bus.AccessData(node, addr, (i % 4) == 0, now);
    const AccessResult b = flat.AccessData(node, addr, (i % 4) == 0, now);
    ASSERT_EQ(a.cls, b.cls) << "access " << i;
    ASSERT_EQ(a.latency, b.latency) << "access " << i;
    ASSERT_EQ(a.queue_delay, 0u) << "access " << i;
    now += 1000;  // >> addr+data occupancy
  }
  EXPECT_GT(bus.stats().bus_transactions, 0u);
  EXPECT_EQ(bus.stats().queue_delay.count(), bus.stats().bus_transactions);
  EXPECT_EQ(bus.stats().queue_delay.sum(), 0u);
  EXPECT_EQ(bus.stats().bus_peak_queue, 0u);
  // The flat arm never touches the bus machinery at all.
  EXPECT_EQ(flat.stats().bus_transactions, 0u);
  EXPECT_EQ(flat.stats().bus_busy_cycles, 0u);
  EXPECT_EQ(flat.stats().queue_delay.count(), 0u);
}

TEST(BusModelTest, SerializedFetchStreamMatchesClosedForm) {
  const uint32_t kNodes = 16;
  const HierarchyConfig hc = BusConfig(kNodes);
  const uint64_t occ = kBusAddrCycles + kBusDataCycles;
  PrivateL2Hierarchy h(hc);

  // Every node misses to its own line at the same instant: the i-th
  // requester waits behind i earlier transactions, exactly i*occ cycles.
  for (uint32_t i = 0; i < kNodes; ++i) {
    const AccessResult r =
        h.AccessData(i, 0x100000 + static_cast<uint64_t>(i) * 64,
                     /*is_write=*/false, /*now=*/0);
    ASSERT_EQ(r.cls, AccessClass::kOffChip) << "node " << i;
    ASSERT_EQ(r.queue_delay, static_cast<uint64_t>(i) * occ) << "node " << i;
    ASSERT_EQ(r.latency, hc.lat.memory + static_cast<uint64_t>(i) * occ)
        << "node " << i;
  }
  const HierarchyStats& s = h.stats();
  EXPECT_EQ(s.bus_transactions, kNodes);
  EXPECT_EQ(s.bus_busy_cycles, kNodes * occ);
  EXPECT_EQ(s.queue_delay.count(), kNodes);
  // Sum of 0, occ, 2*occ, ... = occ * n(n-1)/2.
  EXPECT_EQ(s.queue_delay.sum(), occ * kNodes * (kNodes - 1) / 2);
  EXPECT_EQ(s.bus_peak_queue, occ * (kNodes - 1));

  // The bus drains at t = kNodes*occ: an arrival 5 cycles before that
  // waits exactly 5; an arrival at the drain point waits 0.
  const AccessResult late =
      h.AccessData(0, 0x200000, false, kNodes * occ - 5);
  EXPECT_EQ(late.queue_delay, 5u);
  const AccessResult at_drain =
      h.AccessData(1, 0x201000, false, (kNodes + 1) * occ);
  EXPECT_EQ(at_drain.queue_delay, 0u);
}

TEST(BusModelTest, UpgradeHoldsAddressPhaseOnly) {
  const HierarchyConfig hc = BusConfig(2);
  PrivateL2Hierarchy h(hc);
  const uint64_t addr = 0x6000;

  // Build a Shared line: node 0 fills, node 1's read downgrades it.
  h.AccessData(0, addr, false, 0);
  h.AccessData(1, addr, false, 1000);
  const HierarchyStats before = h.stats();

  // Node 0 upgrades on an idle bus: address-only occupancy, no wait.
  const AccessResult up = h.AccessData(0, addr, true, 2000);
  ASSERT_EQ(up.cls, AccessClass::kCoherence);
  EXPECT_EQ(up.queue_delay, 0u);
  EXPECT_EQ(up.latency, hc.lat.remote_l2 / 2);
  const HierarchyStats& after = h.stats();
  EXPECT_EQ(after.bus_transactions, before.bus_transactions + 1);
  EXPECT_EQ(after.bus_busy_cycles,
            before.bus_busy_cycles + kBusAddrCycles);
  EXPECT_EQ(after.queue_delay.count(), before.queue_delay.count() + 1);

  // A fetch arriving inside the upgrade's address phase queues behind it.
  const AccessResult r = h.AccessData(1, 0x9000, false, 2000);
  EXPECT_EQ(r.queue_delay, kBusAddrCycles);
}

TEST(BusModelTest, WritebackPostsDataCyclesWithoutQueueSample) {
  HierarchyConfig hc = BusConfig(1);
  // Tiny 2-way L2 so a third same-set fill evicts the first line.
  hc.l1i = CacheConfig{2 * 1024, 2, 64};
  hc.l1d = CacheConfig{2 * 1024, 2, 64};
  hc.l2 = CacheConfig{8 * 1024, 2, 64};
  PrivateL2Hierarchy h(hc);
  const uint64_t occ = kBusAddrCycles + kBusDataCycles;
  const uint64_t set_stride = hc.l2.num_sets() * 64;
  const uint64_t base = 0x40000;

  h.AccessData(0, base, true, 0);  // dirty line
  h.AccessData(0, base + set_stride, false, 1000);
  ASSERT_EQ(h.stats().writebacks, 0u);
  // This fill evicts the dirty victim: one acquired fetch (queue sample)
  // plus one posted writeback (transaction + data cycles, no sample).
  const HierarchyStats before = h.stats();
  h.AccessData(0, base + 2 * set_stride, false, 2000);
  const HierarchyStats& s = h.stats();
  EXPECT_EQ(s.writebacks, 1u);
  EXPECT_EQ(s.bus_transactions, before.bus_transactions + 2);
  EXPECT_EQ(s.bus_busy_cycles,
            before.bus_busy_cycles + occ + kBusDataCycles);
  EXPECT_EQ(s.queue_delay.count(), before.queue_delay.count() + 1);

  // The posted writeback still occupies the bus: a fetch right behind
  // the evicting access waits for both transactions' cycles.
  const AccessResult r =
      h.AccessData(0, base + 3 * set_stride, false, 2000);
  EXPECT_EQ(r.queue_delay, occ + kBusDataCycles);
}

TEST(BusModelTest, BusClockSurvivesWarmupResetStats) {
  const HierarchyConfig hc = BusConfig(8);
  const uint64_t occ = kBusAddrCycles + kBusDataCycles;
  PrivateL2Hierarchy h(hc);
  for (uint32_t i = 0; i < 8; ++i) {
    h.AccessData(i, 0x100000 + static_cast<uint64_t>(i) * 64, false, 0);
  }
  h.ResetStats();
  EXPECT_EQ(h.stats().bus_transactions, 0u);
  EXPECT_EQ(h.stats().bus_busy_cycles, 0u);
  EXPECT_EQ(h.stats().queue_delay.count(), 0u);
  // Like the CMP port clocks, the bus stays busy across the measurement
  // boundary: a post-reset arrival at t=0 still waits for the full burst.
  const AccessResult r = h.AccessData(0, 0x300000, false, 0);
  EXPECT_EQ(r.queue_delay, 8 * occ);
}

// Overlapping requesters must queue in the same deterministic order on
// both coherence arms: identical per-access latencies and queue delays,
// identical bus counters, across a randomized contended stream.
TEST(BusModelTest, OverlappingRequestersIdenticalAcrossReplayArms) {
  HierarchyConfig hc = BusConfig(16);
  hc.l1i = CacheConfig{2 * 1024, 2, 64};
  hc.l1d = CacheConfig{2 * 1024, 2, 64};
  hc.l2 = CacheConfig{32 * 1024, 8, 64};
  PrivateL2Hierarchy dir(hc);
  PrivateL2SnoopHierarchy sno(hc);

  Rng rng(4242);
  uint64_t now = 0;
  for (int i = 0; i < 200'000; ++i) {
    const uint32_t node = static_cast<uint32_t>(rng.Next() % 16);
    const bool instr = (rng.Next() % 8) == 0;
    const bool is_write = !instr && (rng.Next() % 5) == 0;
    const uint64_t addr = 0x100000 + (rng.Next() % (256ull << 10));
    AccessResult a, b;
    if (instr) {
      a = dir.AccessInstr(node, addr, now);
      b = sno.AccessInstr(node, addr, now);
    } else {
      a = dir.AccessData(node, addr, is_write, now);
      b = sno.AccessData(node, addr, is_write, now);
    }
    ASSERT_EQ(a.latency, b.latency) << "access " << i;
    ASSERT_EQ(a.queue_delay, b.queue_delay) << "access " << i;
    // Tight arrivals (now advances slower than the bus drains) keep the
    // bus contended so most samples really exercise the queue.
    now += rng.Next() % 4;
  }
  EXPECT_EQ(dir.stats().bus_transactions, sno.stats().bus_transactions);
  EXPECT_EQ(dir.stats().bus_busy_cycles, sno.stats().bus_busy_cycles);
  EXPECT_EQ(dir.stats().bus_peak_queue, sno.stats().bus_peak_queue);
  EXPECT_EQ(dir.stats().queue_delay.count(),
            sno.stats().queue_delay.count());
  EXPECT_EQ(dir.stats().queue_delay.sum(), sno.stats().queue_delay.sum());
  EXPECT_GT(dir.stats().queue_delay.sum(), 0u);
  EXPECT_EQ(dir.CheckDirectoryInvariants(), "");
}

}  // namespace
}  // namespace stagedcmp::memsim
