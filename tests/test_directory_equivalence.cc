// Directory-vs-reference equivalence for the SMP private-L2 hierarchy.
//
// The product SMP hierarchy resolves coherence through a sharers-bitmap
// directory that visits only a line's actual holders. This suite holds it
// bit-identical — every HierarchyStats counter, every latency, every
// breakdown double — to tests/reference_smp.h, a naive broadcast model of
// the same MESI protocol written independently from docs/COHERENCE.md,
// on randomized synthetic traces across the paper's fig8-style core-count
// range:
//
//   * full replay-engine fingerprints (both camps, looped/warmup mode) at
//     2, 8, 16 and 64 nodes, where any bookkeeping drift compounds over
//     a million events;
//   * a direct per-access drive with deliberately tiny caches at 2..64
//     nodes and at 96 (the BitSet<1024> wide directory, two sharer
//     words), where the first diverging access fails with its index —
//     eviction churn is the classic way a directory bitmap goes stale.
//
// Every case also runs the directory's own invariant oracle. The wide
// shootout machines (256 and 1024 nodes), where the O(nodes) reference
// would dominate the suite's run time, replay the directory alone against
// literal fingerprints (tests/wide_directory_pins.h).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "memsim/hierarchy.h"
#include "reference_smp.h"
#include "synthetic_trace.h"
#include "wide_directory_pins.h"

namespace stagedcmp {
namespace {

using memsim::AccessResult;
using memsim::HierarchyConfig;
using memsim::HierarchyStats;

// The fig8-style core-count axis the reference runs live on; 64 is the
// single-word sharers width. The lockstep drive adds one wide machine.
constexpr uint32_t kLiveCounts[] = {2, 8, 16, 64};
constexpr uint32_t kLockstepCounts[] = {2, 8, 16, 64, 96};

// Sanitizer builds run the same node axes (the wide-directory paths are
// exactly what ASan should see) over proportionally fewer events, so the
// suite stays short at ~7x per-event cost.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr size_t kSanScale = 8;
#else
constexpr size_t kSanScale = 1;
#endif

HierarchyConfig SmpConfig(uint32_t cores, uint64_t l2_bytes) {
  HierarchyConfig hc;
  hc.num_cores = cores;
  // Modest per-node L2, shrunk further on the wide machines: 1024 nodes
  // x multi-MB arrays would dominate test memory without adding coverage.
  if (cores > 64 && l2_bytes > 256 * 1024) l2_bytes = 256 * 1024;
  hc.l2 = memsim::CacheConfig{l2_bytes, 8, 64};
  return hc;
}

std::string DirInvariants(memsim::MemoryHierarchy* h) {
  if (auto* n = dynamic_cast<memsim::PrivateL2Hierarchy*>(h)) {
    return n->CheckDirectoryInvariants();
  }
  if (auto* w = dynamic_cast<memsim::PrivateL2HierarchyWide*>(h)) {
    return w->CheckDirectoryInvariants();
  }
  return "not a directory hierarchy";
}

/// Serializes every HierarchyStats counter (and the per-level hit rates,
/// hexfloat so doubles compare bit-for-bit) into one comparable string.
std::string StatsFingerprint(const memsim::MemoryHierarchy& h) {
  const HierarchyStats& s = h.stats();
  std::string out;
  char buf[128];  // the three hexfloat hit rates overflow 64
  auto num = [&](const char* k, uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%s=%llu\n", k,
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  for (int i = 0; i < static_cast<int>(memsim::AccessClass::kCount); ++i) {
    const auto cls = static_cast<memsim::AccessClass>(i);
    num((std::string("data_") + memsim::AccessClassName(cls)).c_str(),
        s.data_count[i]);
    num((std::string("instr_") + memsim::AccessClassName(cls)).c_str(),
        s.instr_count[i]);
  }
  num("invalidations", s.invalidations);
  num("writebacks", s.writebacks);
  std::snprintf(buf, sizeof(buf), "l1d=%a\nl1i=%a\nl2=%a\n", h.L1DHitRate(),
                h.L1IHitRate(), h.L2HitRate());
  out += buf;
  return out;
}

// ---------------------------------------------------------------------------
// Replay-engine fingerprints: full simulation, both camps, looped mode.
// ---------------------------------------------------------------------------

coresim::SimResult RunReplay(memsim::MemoryHierarchy* h, uint32_t cores,
                             const std::vector<trace::ClientTrace>& traces,
                             bool lean, bool looped) {
  std::vector<const trace::ClientTrace*> ptrs;
  for (const auto& t : traces) ptrs.push_back(&t);
  coresim::SimConfig sc;
  sc.core = lean ? coresim::CoreParams::Lean() : coresim::CoreParams::Fat();
  sc.num_cores = cores;
  sc.loop_traces = looped;
  // Looped cost is bounded by the instruction budget, not the trace
  // length, so the sanitizer scale applies here too.
  sc.max_instructions = looped ? 2'000'000 / kSanScale : 0;
  sc.warmup_instructions = looped ? 500'000 / kSanScale : 0;
  coresim::CmpSimulator sim(sc, h, ptrs);
  return sim.Run();
}

/// ~1M events total, spread over one client per node so every node
/// participates in the coherence traffic.
std::vector<trace::ClientTrace> ReplayTraces(uint32_t cores) {
  return synthetic::MakeTraces(
      /*seed=*/17, /*clients=*/cores,
      /*events_per_client=*/1'000'000 / kSanScale / cores);
}

/// Shorter traces for looped mode, which rotates through them.
std::vector<trace::ClientTrace> LoopedTraces(uint32_t cores) {
  return synthetic::MakeTraces(
      /*seed=*/29, /*clients=*/cores,
      /*events_per_client=*/250'000 / kSanScale / cores);
}

class DirectoryEquivalenceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DirectoryEquivalenceTest, ReplayFingerprintsBitIdentical) {
  const uint32_t cores = GetParam();
  const std::vector<trace::ClientTrace> traces = ReplayTraces(cores);
  const HierarchyConfig hc = SmpConfig(cores, 1ull << 20);

  for (const bool lean : {false, true}) {
    auto dir = memsim::MakeSmpHierarchy(hc);
    reference::ReferenceSmpHierarchy ref(hc);
    const coresim::SimResult rd =
        RunReplay(dir.get(), cores, traces, lean, false);
    const coresim::SimResult rr = RunReplay(&ref, cores, traces, lean, false);
    EXPECT_EQ(synthetic::Fingerprint(rd), synthetic::Fingerprint(rr))
        << cores << " cores, " << (lean ? "LC" : "FC");
    EXPECT_EQ(DirInvariants(dir.get()), "");
  }
}

// Looped steady-state mode exercises warmup ResetStats (which must keep
// cache contents AND directory contents) and trace rotation.
TEST_P(DirectoryEquivalenceTest, LoopedReplayBitIdentical) {
  const uint32_t cores = GetParam();
  const std::vector<trace::ClientTrace> traces = LoopedTraces(cores);
  const HierarchyConfig hc = SmpConfig(cores, 1ull << 20);
  auto dir = memsim::MakeSmpHierarchy(hc);
  reference::ReferenceSmpHierarchy ref(hc);
  const coresim::SimResult rd =
      RunReplay(dir.get(), cores, traces, false, true);
  const coresim::SimResult rr = RunReplay(&ref, cores, traces, false, true);
  EXPECT_EQ(synthetic::Fingerprint(rd), synthetic::Fingerprint(rr))
      << cores << " cores, looped";
  EXPECT_EQ(DirInvariants(dir.get()), "");
}

// ---------------------------------------------------------------------------
// Direct drive: per-access lockstep with tiny caches (eviction churn).
// ---------------------------------------------------------------------------

/// Tiny L1s and L2s: the shared and per-node footprints below are far
/// larger than every cache, so fills evict constantly.
HierarchyConfig ChurnConfig(uint32_t cores) {
  HierarchyConfig hc = SmpConfig(cores, 32 * 1024);
  hc.l1i = memsim::CacheConfig{2 * 1024, 2, 64};
  hc.l1d = memsim::CacheConfig{2 * 1024, 2, 64};
  return hc;
}

/// Drives `dir` with a randomized eviction-churn access stream and, when
/// `ref` is non-null, `ref` in lockstep, failing at the first access
/// whose class, latency or queue delay differs between the two.
void DriveChurn(uint32_t cores, memsim::MemoryHierarchy* dir,
                memsim::MemoryHierarchy* ref) {
  Rng rng(1234 + cores);
  uint64_t now = 0;
  // Scale the drive down as the machine widens, so the widest machines
  // stay CI-sized.
  const size_t steps =
      1'000'000 / kSanScale / (cores >= 256 ? 16 : cores >= 16 ? 4 : 1);
  for (size_t i = 0; i < steps; ++i) {
    const uint32_t node = static_cast<uint32_t>(rng.Next() % cores);
    const bool instr = (rng.Next() % 8) == 0;
    const bool is_write = !instr && (rng.Next() % 5) == 0;
    // Shared hot region (coherence) vs per-node region (capacity churn),
    // both far larger than the 32KB L2s.
    const uint64_t addr =
        (rng.Next() & 1)
            ? 0x100000 + (rng.Next() % (256ull << 10))
            : 0x4000000 + node * (1ull << 24) + (rng.Next() % (128ull << 10));
    const AccessResult a = instr ? dir->AccessInstr(node, addr, now)
                                 : dir->AccessData(node, addr, is_write, now);
    if (ref != nullptr) {
      const AccessResult b = instr
                                 ? ref->AccessInstr(node, addr, now)
                                 : ref->AccessData(node, addr, is_write, now);
      if (a.cls != b.cls || a.latency != b.latency ||
          a.queue_delay != b.queue_delay) {
        FAIL() << "arms diverged at access " << i << " (node " << node
               << ", addr " << std::hex << addr << std::dec
               << (instr ? ", instr" : is_write ? ", write" : ", read")
               << "): directory {cls=" << memsim::AccessClassName(a.cls)
               << ", lat=" << a.latency
               << "} vs reference {cls=" << memsim::AccessClassName(b.cls)
               << ", lat=" << b.latency << "}";
      }
    }
    ++now;
  }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, DirectoryEquivalenceTest,
                         ::testing::ValuesIn(kLiveCounts));

class DirectoryLockstepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DirectoryLockstepTest, DirectDriveLockstepUnderEvictionChurn) {
  const uint32_t cores = GetParam();
  const HierarchyConfig hc = ChurnConfig(cores);
  auto dir = memsim::MakeSmpHierarchy(hc);
  reference::ReferenceSmpHierarchy ref(hc);
  DriveChurn(cores, dir.get(), &ref);
  if (HasFatalFailure()) return;
  EXPECT_EQ(StatsFingerprint(*dir), StatsFingerprint(ref));
  EXPECT_EQ(DirInvariants(dir.get()), "");
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, DirectoryLockstepTest,
                         ::testing::ValuesIn(kLockstepCounts));

// ---------------------------------------------------------------------------
// Wide machines (256 and 1024 nodes): literal pins.
// ---------------------------------------------------------------------------

void SkipIfNativeTuned() {
#ifdef STAGEDCMP_NATIVE_TUNED
  GTEST_SKIP() << "fingerprints are pinned at default Release flags; "
                  "STAGEDCMP_NATIVE builds may contract FP differently";
#endif
}

/// The pins for one node count at the build's event scale.
const WideDirectoryPins& PinsFor(uint32_t cores) {
  for (const WideDirectoryPins& p : kSanScale == 1 ? kWidePinsRelease
                                                   : kWidePinsSanitizer) {
    if (p.cores == cores) return p;
  }
  std::abort();
}

class WideDirectoryPinTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(WideDirectoryPinTest, ReplayFingerprintsMatchPins) {
  SkipIfNativeTuned();
  const uint32_t cores = GetParam();
  const WideDirectoryPins& pins = PinsFor(cores);
  const std::vector<trace::ClientTrace> traces = ReplayTraces(cores);
  const HierarchyConfig hc = SmpConfig(cores, 1ull << 20);
  for (const bool lean : {false, true}) {
    auto dir = memsim::MakeSmpHierarchy(hc);
    EXPECT_EQ(lean ? pins.replay_lc : pins.replay_fc,
              synthetic::Fingerprint(
                  RunReplay(dir.get(), cores, traces, lean, false)))
        << cores << " cores, " << (lean ? "LC" : "FC");
    EXPECT_EQ(DirInvariants(dir.get()), "");
  }
}

TEST_P(WideDirectoryPinTest, LoopedReplayMatchesPin) {
  SkipIfNativeTuned();
  const uint32_t cores = GetParam();
  auto dir = memsim::MakeSmpHierarchy(SmpConfig(cores, 1ull << 20));
  EXPECT_EQ(PinsFor(cores).looped,
            synthetic::Fingerprint(
                RunReplay(dir.get(), cores, LoopedTraces(cores), false, true)));
  EXPECT_EQ(DirInvariants(dir.get()), "");
}

TEST_P(WideDirectoryPinTest, DirectDriveStatsMatchPin) {
  SkipIfNativeTuned();
  const uint32_t cores = GetParam();
  auto dir = memsim::MakeSmpHierarchy(ChurnConfig(cores));
  DriveChurn(cores, dir.get(), nullptr);
  EXPECT_EQ(PinsFor(cores).drive_stats, StatsFingerprint(*dir));
  EXPECT_EQ(DirInvariants(dir.get()), "");
}

INSTANTIATE_TEST_SUITE_P(Nodes, WideDirectoryPinTest,
                         ::testing::Values(256u, 1024u));

}  // namespace
}  // namespace stagedcmp
