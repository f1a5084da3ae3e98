// Tests for the CMP discrete-event core timing models, driven by synthetic
// hand-built traces so expected cycle counts are analyzable.
#include <gtest/gtest.h>

#include "coresim/cmp.h"
#include "memsim/hierarchy.h"
#include "trace/events.h"

namespace stagedcmp::coresim {
namespace {

using trace::ClientTrace;
using trace::EncodeEvents;
using trace::EventKind;
using trace::PackEvent;
using trace::PackMemEvent;

memsim::HierarchyConfig BigFastConfig() {
  memsim::HierarchyConfig h;
  h.num_cores = 4;
  h.l2 = memsim::CacheConfig{4ull << 20, 8, 64};
  h.lat.l2_hit = 14;
  h.lat.memory = 400;
  return h;
}

ClientTrace ComputeOnlyTrace(uint64_t instrs) {
  ClientTrace t;
  std::vector<uint64_t> events;
  uint64_t pc = 0x400000000000ULL;
  for (uint64_t done = 0; done < instrs; done += 128) {
    events.push_back(PackEvent(EventKind::kCompute, pc, 128));
    pc += 128 * 4;
    if (pc > 0x400000000000ULL + 4096) pc = 0x400000000000ULL;  // small loop
  }
  t.total_instructions = instrs;
  events.push_back(PackEvent(EventKind::kMarker, 0, 0));
  EncodeEvents(events, &t);
  t.requests = 1;
  return t;
}

/// Trace alternating compute and dependent loads. With wrap_bytes == 0 the
/// addresses never repeat (always cold); otherwise the chase cycles within
/// a wrap_bytes-sized footprint.
ClientTrace PointerChaseTrace(uint64_t accesses, uint32_t instrs_per,
                              uint64_t wrap_bytes = 0,
                              uint64_t addr_offset = 0) {
  ClientTrace t;
  std::vector<uint64_t> events;
  for (uint64_t i = 0; i < accesses; ++i) {
    uint64_t addr = 0x100000 + i * 4096;
    if (wrap_bytes != 0) addr = 0x100000 + (i * 4096) % wrap_bytes;
    events.push_back(PackMemEvent(EventKind::kRead, addr + addr_offset,
                                  instrs_per, true));
    t.total_instructions += instrs_per;
  }
  events.push_back(PackEvent(EventKind::kMarker, 0, 0));
  EncodeEvents(events, &t);
  t.requests = 1;
  return t;
}

SimConfig UnsatConfig(Camp camp) {
  SimConfig sc;
  sc.core = camp == Camp::kFat ? CoreParams::Fat() : CoreParams::Lean();
  sc.num_cores = 4;
  sc.loop_traces = false;
  sc.max_instructions = 0;
  return sc;
}

TEST(FcCoreTest, ComputeOnlyMatchesIpc) {
  ClientTrace t = ComputeOnlyTrace(100000);
  auto h = memsim::MakeCmpHierarchy(BigFastConfig());
  CmpSimulator sim(UnsatConfig(Camp::kFat), h.get(), {&t});
  SimResult r = sim.Run();
  // Pure compute: UIPC ~= compute_ipc modulo branch tax and I-fetch.
  EXPECT_NEAR(r.uipc(), CoreParams::Fat().compute_ipc, 0.25);
  EXPECT_GT(r.breakdown.Fraction(Bucket::kComputation), 0.85);
}

TEST(LcCoreTest, SingleContextComputeMatchesIpc) {
  ClientTrace t = ComputeOnlyTrace(100000);
  auto h = memsim::MakeCmpHierarchy(BigFastConfig());
  CmpSimulator sim(UnsatConfig(Camp::kLean), h.get(), {&t});
  SimResult r = sim.Run();
  EXPECT_NEAR(r.uipc(), CoreParams::Lean().compute_ipc, 0.2);
}

TEST(FcCoreTest, DependentMissesExposeLatency) {
  ClientTrace t = PointerChaseTrace(2000, 4);
  auto h = memsim::MakeCmpHierarchy(BigFastConfig());
  CmpSimulator sim(UnsatConfig(Camp::kFat), h.get(), {&t});
  SimResult r = sim.Run();
  // ~400-cycle misses every 4 instructions: CPI must be huge and
  // dominated by off-chip data stalls.
  EXPECT_GT(r.cpi(), 50.0);
  EXPECT_GT(r.breakdown.Fraction(Bucket::kDStallMem), 0.9);
}

TEST(LcCoreTest, MultithreadingHidesStalls) {
  // Four pointer-chase clients on ONE lean core vs one client alone:
  // aggregate throughput must rise markedly (stalls overlap).
  auto run = [](uint32_t nclients) {
    std::vector<ClientTrace> traces;
    for (uint32_t i = 0; i < nclients; ++i) {
      // Different address streams per client.
      traces.push_back(PointerChaseTrace(3000, 40, 0, uint64_t(i) << 33));
    }
    memsim::HierarchyConfig hc = BigFastConfig();
    hc.num_cores = 1;
    auto h = memsim::MakeCmpHierarchy(hc);
    SimConfig sc;
    sc.core = CoreParams::Lean();
    sc.num_cores = 1;
    sc.loop_traces = false;
    std::vector<const ClientTrace*> ptrs;
    for (auto& t : traces) ptrs.push_back(&t);
    CmpSimulator sim(sc, h.get(), ptrs);
    return sim.Run();
  };
  SimResult one = run(1);
  SimResult four = run(4);
  EXPECT_GT(four.uipc(), one.uipc() * 2.5);
}

TEST(CmpSimTest, BreakdownAccountsAllCycles) {
  ClientTrace t = PointerChaseTrace(1000, 20);
  auto h = memsim::MakeCmpHierarchy(BigFastConfig());
  CmpSimulator sim(UnsatConfig(Camp::kFat), h.get(), {&t});
  SimResult r = sim.Run();
  // One active core: attributed cycles == elapsed cycles (within rounding).
  EXPECT_NEAR(r.breakdown.total(),
              static_cast<double>(r.elapsed_cycles),
              r.breakdown.total() * 0.01 + 2.0);
}

TEST(CmpSimTest, MarkersCountRequests) {
  ClientTrace t = ComputeOnlyTrace(10000);
  auto h = memsim::MakeCmpHierarchy(BigFastConfig());
  CmpSimulator sim(UnsatConfig(Camp::kFat), h.get(), {&t});
  SimResult r = sim.Run();
  EXPECT_EQ(r.requests_completed, 1u);
  EXPECT_GT(r.avg_response_cycles, 0.0);
}

TEST(CmpSimTest, SaturatedLoopRespectsInstructionBudget) {
  ClientTrace t = ComputeOnlyTrace(5000);
  auto h = memsim::MakeCmpHierarchy(BigFastConfig());
  SimConfig sc = UnsatConfig(Camp::kFat);
  sc.loop_traces = true;
  sc.max_instructions = 200000;
  CmpSimulator sim(sc, h.get(), {&t, &t, &t, &t});
  SimResult r = sim.Run();
  EXPECT_GE(r.instructions, 200000u);
  EXPECT_LT(r.instructions, 260000u);  // small overshoot allowed
}

TEST(CmpSimTest, WarmupExcludedFromMeasurement) {
  // Chase cycles within 1MB: fits the 4MB L2, so a warmed run must hit.
  ClientTrace t = PointerChaseTrace(5000, 20, 1 << 20);
  auto run = [&](uint64_t warmup) {
    auto h = memsim::MakeCmpHierarchy(BigFastConfig());
    SimConfig sc = UnsatConfig(Camp::kFat);
    sc.loop_traces = true;
    sc.max_instructions = 50000;
    sc.warmup_instructions = warmup;
    CmpSimulator sim(sc, h.get(), {&t});
    return sim.Run();
  };
  SimResult cold = run(0);
  SimResult warm = run(100000);  // the whole chase fits in 4MB L2
  EXPECT_GT(warm.uipc(), cold.uipc());
  EXPECT_GT(warm.l2_hit_rate, 0.8);
}

TEST(CmpSimTest, MoreCoresMoreSaturatedThroughput) {
  std::vector<ClientTrace> traces;
  for (int i = 0; i < 16; ++i) traces.push_back(ComputeOnlyTrace(20000));
  std::vector<const ClientTrace*> ptrs;
  for (auto& t : traces) ptrs.push_back(&t);
  auto run = [&](uint32_t cores) {
    memsim::HierarchyConfig hc = BigFastConfig();
    hc.num_cores = cores;
    auto h = memsim::MakeCmpHierarchy(hc);
    SimConfig sc;
    sc.core = CoreParams::Fat();
    sc.num_cores = cores;
    sc.loop_traces = true;
    sc.max_instructions = 500000;
    CmpSimulator sim(sc, h.get(), ptrs);
    return sim.Run().uipc();
  };
  const double u4 = run(4);
  const double u8 = run(8);
  EXPECT_GT(u8, u4 * 1.5);  // compute-bound: near-linear scaling
}

TEST(CmpSimTest, DeterministicAcrossRuns) {
  ClientTrace t = PointerChaseTrace(2000, 10);
  auto run = [&] {
    auto h = memsim::MakeCmpHierarchy(BigFastConfig());
    CmpSimulator sim(UnsatConfig(Camp::kLean), h.get(), {&t, &t});
    SimResult r = sim.Run();
    return std::make_pair(r.elapsed_cycles, r.instructions);
  };
  EXPECT_EQ(run(), run());
}

TEST(CmpSimTest, FatBeatsLeanOnSingleThreadCompute) {
  ClientTrace t = ComputeOnlyTrace(50000);
  auto runcamp = [&](Camp c) {
    auto h = memsim::MakeCmpHierarchy(BigFastConfig());
    CmpSimulator sim(UnsatConfig(c), h.get(), {&t});
    return sim.Run().avg_response_cycles;
  };
  EXPECT_LT(runcamp(Camp::kFat), runcamp(Camp::kLean));
}

// Property sweep over camps x miss-intensity: total attributed cycles must
// stay positive and UIPC bounded by peak issue width.
class CampSweepTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

TEST_P(CampSweepTest, UipcBoundedByWidth) {
  const Camp camp = std::get<0>(GetParam()) == 0 ? Camp::kFat : Camp::kLean;
  const uint32_t instrs_per = std::get<1>(GetParam());
  ClientTrace t = PointerChaseTrace(2000, instrs_per);
  auto h = memsim::MakeCmpHierarchy(BigFastConfig());
  CmpSimulator sim(UnsatConfig(camp), h.get(), {&t});
  SimResult r = sim.Run();
  EXPECT_GT(r.elapsed_cycles, 0u);
  const CoreParams p =
      camp == Camp::kFat ? CoreParams::Fat() : CoreParams::Lean();
  EXPECT_LE(r.uipc(), p.issue_width * 1.001);
  EXPECT_GT(r.uipc(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CampSweepTest,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(1u, 8u, 64u,
                                                              512u)));

}  // namespace
}  // namespace stagedcmp::coresim
