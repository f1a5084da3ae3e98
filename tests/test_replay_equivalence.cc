// Old-vs-new equivalence pins for the rebuilt replay hot path.
//
// The fingerprints below were captured from the pre-rebuild implementation
// (virtual per-event dispatch, two-scan Cache API, unordered_map L1
// directory) replaying randomized 1M-event synthetic traces whose
// addresses are process-independent (tests/synthetic_trace.h). The
// rebuilt path — devirtualized replay core, single-probe SoA cache, flat
// open-addressed directory — must reproduce every counter and every
// breakdown double bit-for-bit, for both CMP and SMP hierarchies, both
// camps, and both full-replay and looped/warmup modes.
//
// A second axis compares the devirtualized fast path against the generic
// MemoryHierarchy fallback the facade keeps for external hierarchy
// implementations: both dispatch routes must be indistinguishable.
//
// Note: the fingerprints hold on default Release/Debug flags. A
// STAGEDCMP_NATIVE build may legally contract FP operations (FMA) and
// drift the double-typed fields; the devirtualized-vs-generic comparison
// still must hold there.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "memsim/hierarchy.h"
#include "synthetic_trace.h"

namespace stagedcmp {
namespace {

constexpr const char* kCmpFatFull = R"fp(instructions=15434485
elapsed_cycles=21359956
requests_completed=29941
avg_response_cycles=0x1.63ffe1fe10c43p+11
data_L1-hit=156211
instr_L1-hit=942203
data_L2-hit=181938
instr_L2-hit=266155
data_off-chip=332495
instr_off-chip=37153
data_coherence=0
instr_coherence=0
l1_to_l1_transfers=21221
invalidations=25903
writebacks=59063
queue_delay_count=817741
queue_delay_mean=0x1.bfba588fe616cp+3
l1d_hit_rate=0x1.dd08c1b83babcp-3
l1i_hit_rate=0x1.fc249339ae62ap-6
l2_hit_rate=0x1.1264456421306p-1
computation=0x1.5071f04924952p+23
i-stall-L2=0x1.5d6p+22
i-stall-mem=0x1.cc83e2p+23
d-stall-L1=0x0p+0
d-stall-L2hit=0x1.3ac43b58e2d29p+19
d-stall-mem=0x1.72e3600f990ecp+25
d-stall-coh=0x0p+0
other=0x1.ff62361ba5294p+21
)fp";

constexpr const char* kCmpLeanFull = R"fp(instructions=15434485
elapsed_cycles=34065264
requests_completed=29941
avg_response_cycles=0x1.1bdc632944d52p+12
data_L1-hit=156245
instr_L1-hit=942203
data_L2-hit=181920
instr_L2-hit=266147
data_off-chip=332479
instr_off-chip=37161
data_coherence=0
instr_coherence=0
l1_to_l1_transfers=21251
invalidations=25778
writebacks=59095
queue_delay_count=817707
queue_delay_mean=0x1.8161e28ca8d39p-4
l1d_hit_rate=0x1.dd23563a642f7p-3
l1i_hit_rate=0x1.fc249339ae62ap-6
l2_hit_rate=0x1.1260b3222690dp-1
computation=0x1.78d187ffffcbcp+23
i-stall-L2=0x1.1350ep+19
i-stall-mem=0x1.0f584fp+24
d-stall-L1=0x0p+0
d-stall-L2hit=0x1.f4b2dp+20
d-stall-mem=0x1.89ec93p+26
d-stall-coh=0x0p+0
other=0x0p+0
)fp";

constexpr const char* kSmpFatFull = R"fp(instructions=15434485
elapsed_cycles=24826262
requests_completed=29941
avg_response_cycles=0x1.9d43bf66e85fbp+11
data_L1-hit=149276
instr_L1-hit=942203
data_L2-hit=117107
instr_L2-hit=231581
data_off-chip=350302
instr_off-chip=71727
data_coherence=53959
instr_coherence=0
l1_to_l1_transfers=0
invalidations=66324
writebacks=25977
queue_delay_count=0
queue_delay_mean=0x0p+0
l1d_hit_rate=0x1.dcfb77772769ep-3
l1i_hit_rate=0x1.fc249339ae62ap-6
l2_hit_rate=0x1.c904ce7ea2d07p-2
computation=0x1.5071f04924952p+23
i-stall-L2=0x1.1ab11p+21
i-stall-mem=0x1.b168b4p+24
d-stall-L1=0x0p+0
d-stall-L2hit=0x1.8f19199998ef1p+18
d-stall-mem=0x1.86495ffffe38bp+25
d-stall-coh=0x1.0c81eb3333213p+22
other=0x1.3c870bd70a3fdp+20
)fp";

constexpr const char* kSmpLeanFull = R"fp(instructions=15434485
elapsed_cycles=40985467
requests_completed=29941
avg_response_cycles=0x1.55461b52a6917p+12
data_L1-hit=149225
instr_L1-hit=942203
data_L2-hit=117106
instr_L2-hit=231581
data_off-chip=350303
instr_off-chip=71727
data_coherence=54010
instr_coherence=0
l1_to_l1_transfers=0
invalidations=66337
writebacks=25980
queue_delay_count=0
queue_delay_mean=0x0p+0
l1d_hit_rate=0x1.dce33b5ad54c2p-3
l1i_hit_rate=0x1.fc249339ae62ap-6
l2_hit_rate=0x1.c904e1e321622p-2
computation=0x1.78d187ffffcbcp+23
i-stall-L2=0x1.e6388p+18
i-stall-mem=0x1.daadbd0000001p+24
d-stall-L1=0x0p+0
d-stall-L2hit=0x1.580e5fffffffp+20
d-stall-mem=0x1.9edd78p+26
d-stall-coh=0x1.1edd1cp+23
other=0x0p+0
)fp";

constexpr const char* kCmpFatLooped = R"fp(instructions=2000028
elapsed_cycles=3140798
requests_completed=3864
avg_response_cycles=0x1.96be60bbe2bfdp+11
data_L1-hit=20100
instr_L1-hit=122119
data_L2-hit=23578
instr_L2-hit=30445
data_off-chip=43253
instr_off-chip=8889
data_coherence=0
instr_coherence=0
l1_to_l1_transfers=2761
invalidations=3427
writebacks=2199
queue_delay_count=106165
queue_delay_mean=0x1.8cc98f24f91c6p+3
l1d_hit_rate=0x1.d988c02b89709p-3
l1i_hit_rate=0x1.e920499f63ac2p-6
l2_hit_rate=0x1.fba48969a772cp-2
computation=0x1.5cc6f6db6db58p+20
i-stall-L2=0x1.2b25ap+19
i-stall-mem=0x1.b7e33p+21
d-stall-L1=0x0p+0
d-stall-L2hit=0x1.41dddf3c98938p+16
d-stall-mem=0x1.82634ded96bap+22
d-stall-coh=0x0p+0
other=0x1.ebb2e64501c69p+18
)fp";

constexpr const char* kSmpFatLooped = R"fp(instructions=2000003
elapsed_cycles=4841553
requests_completed=3861
avg_response_cycles=0x1.39c052a60e6bbp+12
data_L1-hit=19208
instr_L1-hit=122117
data_L2-hit=13391
instr_L2-hit=13836
data_off-chip=47297
instr_off-chip=25497
data_coherence=7042
instr_coherence=0
l1_to_l1_transfers=0
invalidations=8692
writebacks=7
queue_delay_count=0
queue_delay_mean=0x0p+0
l1d_hit_rate=0x1.d9af3c198f328p-3
l1i_hit_rate=0x1.e9d87791b75bfp-6
l2_hit_rate=0x1.1c70026905c78p-2
computation=0x1.5cc5d9249247ep+20
i-stall-L2=0x1.0e3cp+17
i-stall-mem=0x1.342158p+23
d-stall-L1=0x0p+0
d-stall-L2hit=0x1.6da9999999a5p+15
d-stall-mem=0x1.a5d61b33336cap+22
d-stall-coh=0x1.18ce5999999e2p+19
other=0x1.4820204189323p+17
)fp";

/// Forwards every call to `inner`. CmpSimulator does not know this type,
/// so it replays through its generic virtual-dispatch engine.
class ForwardingHierarchy final : public memsim::MemoryHierarchy {
 public:
  explicit ForwardingHierarchy(memsim::MemoryHierarchy* inner)
      : inner_(inner) {}
  memsim::AccessResult AccessData(uint32_t core, uint64_t addr,
                                  bool is_write, uint64_t now) override {
    return inner_->AccessData(core, addr, is_write, now);
  }
  memsim::AccessResult AccessInstr(uint32_t core, uint64_t addr,
                                   uint64_t now) override {
    return inner_->AccessInstr(core, addr, now);
  }
  const memsim::HierarchyStats& stats() const override {
    return inner_->stats();
  }
  const memsim::HierarchyConfig& config() const override {
    return inner_->config();
  }
  void ResetStats() override { inner_->ResetStats(); }
  double L1DHitRate() const override { return inner_->L1DHitRate(); }
  double L1IHitRate() const override { return inner_->L1IHitRate(); }
  double L2HitRate() const override { return inner_->L2HitRate(); }

 private:
  memsim::MemoryHierarchy* inner_;
};

class ReplayEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    traces_ = new std::vector<trace::ClientTrace>(
        synthetic::MakeTraces(/*seed=*/17, /*clients=*/4,
                              /*events_per_client=*/250'000));
  }
  static void TearDownTestSuite() {
    delete traces_;
    traces_ = nullptr;
  }

  /// `generic` replays through a ForwardingHierarchy, i.e. the generic
  /// virtual-dispatch engine, instead of the devirtualized one.
  static coresim::SimResult RunSim(bool smp, bool lean, bool looped,
                                   bool generic) {
    std::vector<const trace::ClientTrace*> ptrs;
    for (const auto& t : *traces_) ptrs.push_back(&t);
    memsim::HierarchyConfig hc;
    hc.num_cores = 4;
    hc.l2 = memsim::CacheConfig{4ull << 20, 8, 64};
    auto h = smp ? memsim::MakeSmpHierarchy(hc) : memsim::MakeCmpHierarchy(hc);
    ForwardingHierarchy forward(h.get());
    coresim::SimConfig sc;
    sc.core = lean ? coresim::CoreParams::Lean() : coresim::CoreParams::Fat();
    sc.num_cores = 4;
    sc.loop_traces = looped;
    sc.max_instructions = looped ? 2'000'000 : 0;
    sc.warmup_instructions = looped ? 500'000 : 0;
    coresim::CmpSimulator sim(
        sc, generic ? static_cast<memsim::MemoryHierarchy*>(&forward)
                    : h.get(),
        ptrs);
    return sim.Run();
  }

  static std::string Replay(bool smp, bool lean, bool looped) {
    return synthetic::Fingerprint(RunSim(smp, lean, looped, false));
  }

  // The k*Full fingerprints were captured at default Release flags;
  // host-tuned builds may contract FP differently and legitimately shift
  // the double-typed timing bits. (GenericDispatchBitEqual still runs:
  // both arms share whatever flags this binary was built with.)
  static void SkipIfNativeTuned() {
#ifdef STAGEDCMP_NATIVE_TUNED
    GTEST_SKIP() << "fingerprints are pinned at default Release flags; "
                    "STAGEDCMP_NATIVE builds may contract FP differently";
#endif
  }

  static std::vector<trace::ClientTrace>* traces_;
};

std::vector<trace::ClientTrace>* ReplayEquivalenceTest::traces_ = nullptr;

// The rebuilt hot path reproduces the pre-rebuild implementation
// bit-for-bit on full 1M-event replays, per topology and camp.
TEST_F(ReplayEquivalenceTest, CmpFatMatchesOldImplementation) {
  SkipIfNativeTuned();
  EXPECT_EQ(kCmpFatFull, Replay(false, false, false));
}
TEST_F(ReplayEquivalenceTest, CmpLeanMatchesOldImplementation) {
  SkipIfNativeTuned();
  EXPECT_EQ(kCmpLeanFull, Replay(false, true, false));
}
TEST_F(ReplayEquivalenceTest, SmpFatMatchesOldImplementation) {
  SkipIfNativeTuned();
  EXPECT_EQ(kSmpFatFull, Replay(true, false, false));
}
TEST_F(ReplayEquivalenceTest, SmpLeanMatchesOldImplementation) {
  SkipIfNativeTuned();
  EXPECT_EQ(kSmpLeanFull, Replay(true, true, false));
}

// Looped steady-state mode exercises warmup ResetStats and trace rotation.
TEST_F(ReplayEquivalenceTest, CmpFatLoopedMatchesOldImplementation) {
  SkipIfNativeTuned();
  EXPECT_EQ(kCmpFatLooped, Replay(false, false, true));
}
TEST_F(ReplayEquivalenceTest, SmpFatLoopedMatchesOldImplementation) {
  SkipIfNativeTuned();
  EXPECT_EQ(kSmpFatLooped, Replay(true, false, true));
}

// The devirtualized per-type replay core and the generic virtual-dispatch
// fallback must be indistinguishable, including replayed-event counts.
TEST_F(ReplayEquivalenceTest, GenericDispatchBitEqual) {
  for (bool smp : {false, true}) {
    for (bool looped : {false, true}) {
      const coresim::SimResult devirt = RunSim(smp, false, looped, false);
      const coresim::SimResult generic = RunSim(smp, false, looped, true);
      EXPECT_EQ(synthetic::Fingerprint(devirt),
                synthetic::Fingerprint(generic))
          << (smp ? "SMP" : "CMP") << (looped ? " looped" : " full");
      EXPECT_EQ(devirt.events_replayed, generic.events_replayed);
      EXPECT_GT(devirt.events_replayed, 0u);
    }
  }
}

}  // namespace
}  // namespace stagedcmp
