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
#include <gtest/gtest.h>

#include <map>
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

  static std::vector<trace::ClientTrace>* traces_;
};

std::vector<trace::ClientTrace>* ReplayEquivalenceTest::traces_ = nullptr;

// The rebuilt hot path reproduces the pre-rebuild implementation
// bit-for-bit on full 1M-event replays, per topology and camp.
TEST_F(ReplayEquivalenceTest, CmpFatMatchesOldImplementation) {
  EXPECT_EQ(kCmpFatFull, Replay(false, false, false));
}
TEST_F(ReplayEquivalenceTest, CmpLeanMatchesOldImplementation) {
  EXPECT_EQ(kCmpLeanFull, Replay(false, true, false));
}
TEST_F(ReplayEquivalenceTest, SmpFatMatchesOldImplementation) {
  EXPECT_EQ(kSmpFatFull, Replay(true, false, false));
}
TEST_F(ReplayEquivalenceTest, SmpLeanMatchesOldImplementation) {
  EXPECT_EQ(kSmpLeanFull, Replay(true, true, false));
}

// Looped steady-state mode exercises warmup ResetStats and trace rotation.
TEST_F(ReplayEquivalenceTest, CmpFatLoopedMatchesOldImplementation) {
  EXPECT_EQ(kCmpFatLooped, Replay(false, false, true));
}
TEST_F(ReplayEquivalenceTest, SmpFatLoopedMatchesOldImplementation) {
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

// Many-core scheduling pins: one client per core at 64 and 1024 cores,
// about 250k synthetic events in total. The replay loop picks the core
// with the smallest local clock (lowest index on ties) before every step;
// these fingerprints were captured from the linear-scan picker, so any
// other picker must reproduce its exact order. Together they cover the
// all-clocks-zero start, cores draining at different times, the warmup
// reset and trace rotation at the machine sizes where the pick matters.
constexpr const char* kCmpFat64 = R"fp(instructions=3867746
elapsed_cycles=969243
requests_completed=7477
avg_response_cycles=0x1.f7ff95c8ddf22p+12
data_L1-hit=26262
instr_L1-hit=236076
data_L2-hit=38218
instr_L2-hit=56744
data_off-chip=102831
instr_off-chip=19500
data_coherence=0
instr_coherence=0
l1_to_l1_transfers=9196
invalidations=34117
writebacks=12189
queue_delay_count=217293
queue_delay_mean=0x1.20e28299c9504p+8
l1d_hit_rate=0x1.4176f4d8e2ee1p-3
l1i_hit_rate=0x1.dda3ac10c9715p-6
l2_hit_rate=0x1.a6092a3a9aa35p-2
computation=0x1.513d9db6db6dbp+21
i-stall-L2=0x1.a59a26p+23
i-stall-mem=0x1.6914c8p+23
d-stall-L1=0x0p+0
d-stall-L2hit=0x1.8a40efe83ec61p+17
d-stall-mem=0x1.cbf233d87faf2p+23
d-stall-coh=0x0p+0
other=0x1.02db05111ec76p+24
)fp";
constexpr const char* kCmpLean64 = R"fp(instructions=3867746
elapsed_cycles=721111
requests_completed=7477
avg_response_cycles=0x1.6ebc8d95149d5p+12
data_L1-hit=26267
instr_L1-hit=236076
data_L2-hit=38187
instr_L2-hit=56755
data_off-chip=102857
instr_off-chip=19489
data_coherence=0
instr_coherence=0
l1_to_l1_transfers=9200
invalidations=34089
writebacks=12217
queue_delay_count=217288
queue_delay_mean=0x1.0b145490483c4p+0
l1d_hit_rate=0x1.41869fdf5784fp-3
l1i_hit_rate=0x1.dda3ac10c9715p-6
l2_hit_rate=0x1.a5ef9a6e3ffe2p-2
computation=0x1.79b5a66666675p+21
i-stall-L2=0x1.05d5p+17
i-stall-mem=0x1.025f94p+23
d-stall-L1=0x0p+0
d-stall-L2hit=0x1.ccbd3fffffffep+18
d-stall-mem=0x1.e87e31p+24
d-stall-coh=0x0p+0
other=0x0p+0
)fp";
constexpr const char* kSmpFat64 = R"fp(instructions=3867746
elapsed_cycles=853145
requests_completed=7477
avg_response_cycles=0x1.b25c520a69a41p+12
data_L1-hit=25810
instr_L1-hit=236076
data_L2-hit=2838
instr_L2-hit=2178
data_off-chip=128969
instr_off-chip=74066
data_coherence=9694
instr_coherence=0
l1_to_l1_transfers=0
invalidations=35169
writebacks=512
queue_delay_count=0
queue_delay_mean=0x0p+0
l1d_hit_rate=0x1.41f12ad809ed6p-3
l1i_hit_rate=0x1.dda3ac10c9715p-6
l2_hit_rate=0x1.9f6c086027039p-6
computation=0x1.513d9db6db6dbp+21
i-stall-L2=0x1.545p+14
i-stall-mem=0x1.bf8ad8p+24
d-stall-L1=0x0p+0
d-stall-L2hit=0x1.1b4cccccccccfp+13
d-stall-mem=0x1.1e9cea000001bp+24
d-stall-coh=0x1.1a2e200000001p+20
other=0x1.3d46aa7ef9dadp+18
)fp";
constexpr const char* kSmpLean64 = R"fp(instructions=3867746
elapsed_cycles=1214237
requests_completed=7477
avg_response_cycles=0x1.3771e755af50ap+13
data_L1-hit=25812
instr_L1-hit=236076
data_L2-hit=2836
instr_L2-hit=2178
data_off-chip=128965
instr_off-chip=74066
data_coherence=9698
instr_coherence=0
l1_to_l1_transfers=0
invalidations=35148
writebacks=511
queue_delay_count=0
queue_delay_mean=0x0p+0
l1d_hit_rate=0x1.41eae66f0e7ddp-3
l1i_hit_rate=0x1.dda3ac10c9715p-6
l2_hit_rate=0x1.9f0cb244cb776p-6
computation=0x1.79b5a66666675p+21
i-stall-L2=0x1.c9ap+12
i-stall-mem=0x1.c1dfbfp+24
d-stall-L1=0x0p+0
d-stall-L2hit=0x1.e5d8p+14
d-stall-mem=0x1.3146c8p+25
d-stall-coh=0x1.2fa4dp+21
other=0x0p+0
)fp";
constexpr const char* kCmpFat1024 = R"fp(instructions=3878473
elapsed_cycles=857180
requests_completed=7401
avg_response_cycles=0x1.8db60e9dd7c43p+16
data_L1-hit=3391
instr_L1-hit=236428
data_L2-hit=39505
instr_L2-hit=57169
data_off-chip=125456
instr_off-chip=19480
data_coherence=0
instr_coherence=0
l1_to_l1_transfers=9215
invalidations=37589
writebacks=16275
queue_delay_count=241610
queue_delay_mean=0x1.8f320749183fcp+12
l1d_hit_rate=0x1.4a030454ab16ap-6
l1i_hit_rate=0x1.1bd986aa8d5c5p-7
l2_hit_rate=0x1.815eab966bbd9p-2
computation=0x1.522d0edb6db5ep+21
i-stall-L2=0x1.0d3f3f8p+28
i-stall-mem=0x1.b4978bp+26
d-stall-L1=0x0p+0
d-stall-L2hit=0x1.a99b696e132f5p+17
d-stall-mem=0x1.1c5d307d029fp+24
d-stall-coh=0x0p+0
other=0x1.a02f6619eb8c1p+28
)fp";
constexpr const char* kCmpLean1024 = R"fp(instructions=3878473
elapsed_cycles=248815
requests_completed=7401
avg_response_cycles=0x1.bc52be9e3df24p+14
data_L1-hit=3404
instr_L1-hit=236428
data_L2-hit=39499
instr_L2-hit=57128
data_off-chip=125449
instr_off-chip=19521
data_coherence=0
instr_coherence=0
l1_to_l1_transfers=9208
invalidations=37717
writebacks=16201
queue_delay_count=241597
queue_delay_mean=0x1.cbdafedd7a912p+9
l1d_hit_rate=0x1.4b46e5c5b493cp-6
l1i_hit_rate=0x1.1bd986aa8d5c5p-7
l2_hit_rate=0x1.81341887cbecdp-2
computation=0x1.7ac1d33333341p+21
i-stall-L2=0x1.18af2p+23
i-stall-mem=0x1.0bc8e58p+26
d-stall-L1=0x0p+0
d-stall-L2hit=0x1.b327f6p+24
d-stall-mem=0x1.e861874p+26
d-stall-coh=0x0p+0
other=0x0p+0
)fp";
constexpr const char* kSmpFat1024 = R"fp(instructions=3878473
elapsed_cycles=62735
requests_completed=7401
avg_response_cycles=0x1.a161b5a42d588p+12
data_L1-hit=3370
instr_L1-hit=236428
data_L2-hit=0
instr_L2-hit=3
data_off-chip=155747
instr_off-chip=76646
data_coherence=9235
instr_coherence=0
l1_to_l1_transfers=0
invalidations=37617
writebacks=0
queue_delay_count=0
queue_delay_mean=0x0p+0
l1d_hit_rate=0x1.4ae33df1b1a85p-6
l1i_hit_rate=0x1.1bd986aa8d5c5p-7
l2_hit_rate=0x1.1e69784c11d88p-13
computation=0x1.522d0edb6db5ep+21
i-stall-L2=0x1.ep+4
i-stall-mem=0x1.cf21c8p+24
d-stall-L1=0x0p+0
d-stall-L2hit=0x0p+0
d-stall-mem=0x1.5c67ab999999dp+24
d-stall-coh=0x1.1b2ae66666665p+20
other=0x1.3e27eed91686ep+18
)fp";
constexpr const char* kSmpLean1024 = R"fp(instructions=3878473
elapsed_cycles=90984
requests_completed=7401
avg_response_cycles=0x1.32d5018aef117p+13
data_L1-hit=3359
instr_L1-hit=236428
data_L2-hit=0
instr_L2-hit=3
data_off-chip=155736
instr_off-chip=76646
data_coherence=9257
instr_coherence=0
l1_to_l1_transfers=0
invalidations=37625
writebacks=0
queue_delay_count=0
queue_delay_mean=0x0p+0
l1d_hit_rate=0x1.4a7f961daebcep-6
l1i_hit_rate=0x1.1bd986aa8d5c5p-7
l2_hit_rate=0x1.5b2676975fbb3p-13
computation=0x1.7ac1d33333341p+21
i-stall-L2=0x1.8p+3
i-stall-mem=0x1.d29fe1p+24
d-stall-L1=0x0p+0
d-stall-L2hit=0x0p+0
d-stall-mem=0x1.70c3e8p+25
d-stall-coh=0x1.303dfp+21
other=0x0p+0
)fp";
constexpr const char* kCmpFatLooped1024 = R"fp(instructions=4000031
elapsed_cycles=640149
requests_completed=7757
avg_response_cycles=0x1.372b8468c671ep+16
data_L1-hit=40683
instr_L1-hit=257642
data_L2-hit=42610
instr_L2-hit=56064
data_off-chip=91844
instr_off-chip=8544
data_coherence=0
instr_coherence=0
l1_to_l1_transfers=9862
invalidations=43458
writebacks=13935
queue_delay_count=199062
queue_delay_mean=0x1.7222975867854p+12
l1d_hit_rate=0x1.dbbc22b677326p-3
l1i_hit_rate=0x1.df8f2e32c83a3p-3
l2_hit_rate=0x1.e0ac7fe70f6f9p-2
computation=0x1.5cc6680000005p+21
i-stall-L2=0x1.fe8127p+27
i-stall-mem=0x1.5b4259p+25
d-stall-L1=0x0p+0
d-stall-L2hit=0x1.d60ae8f5e6d34p+17
d-stall-mem=0x1.9c0f64426f26fp+23
d-stall-coh=0x0p+0
other=0x1.32910f274491fp+28
)fp";
constexpr const char* kCmpFatPartial1024 = R"fp(instructions=2651275
elapsed_cycles=577249
requests_completed=5045
avg_response_cycles=0x1.0e20881bd178p+16
data_L1-hit=2372
instr_L1-hit=161578
data_L2-hit=26696
instr_L2-hit=35400
data_off-chip=85933
instr_off-chip=17111
data_coherence=0
instr_coherence=0
l1_to_l1_transfers=6222
invalidations=24336
writebacks=8651
queue_delay_count=165140
queue_delay_mean=0x1.06d888844cdd7p+12
l1d_hit_rate=0x1.51ef53a621133p-6
l1i_hit_rate=0x1.1247972554036p-7
l2_hit_rate=0x1.68073e1996622p-2
computation=0x1.ce587db6db6ccp+20
i-stall-L2=0x1.b597a8cp+26
i-stall-mem=0x1.ff736f8p+25
d-stall-L1=0x0p+0
d-stall-L2hit=0x1.1e52a9f681f31p+17
d-stall-mem=0x1.8519dafe1ca3fp+23
d-stall-coh=0x0p+0
other=0x1.76508035a0957p+27
)fp";

constexpr size_t kManyCoreEvents = 250'000;

class ManyCoreReplayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (uint32_t cores : {64u, 1024u}) {
      traces_[cores] = synthetic::MakeTraces(
          /*seed=*/23, /*clients=*/cores,
          /*events_per_client=*/(kManyCoreEvents + cores - 1) / cores);
    }
  }
  static void TearDownTestSuite() { traces_.clear(); }

  /// Replays the first `clients` traces of the `cores`-client set on a
  /// `cores`-core machine. CMP tiles share a 4MB L2; SMP nodes each own a
  /// 256KB L2, which keeps the 1024-node machine small.
  static std::string Replay(bool smp, bool lean, uint32_t cores,
                            bool looped = false, uint32_t clients = 0) {
    const std::vector<trace::ClientTrace>& traces = traces_.at(cores);
    std::vector<const trace::ClientTrace*> ptrs;
    for (const auto& t : traces) ptrs.push_back(&t);
    if (clients > 0) ptrs.resize(clients);
    memsim::HierarchyConfig hc;
    hc.num_cores = cores;
    hc.l2 = smp ? memsim::CacheConfig{256ull << 10, 8, 64}
                : memsim::CacheConfig{4ull << 20, 8, 64};
    auto h = smp ? memsim::MakeSmpHierarchy(hc) : memsim::MakeCmpHierarchy(hc);
    coresim::SimConfig sc;
    sc.core = lean ? coresim::CoreParams::Lean() : coresim::CoreParams::Fat();
    sc.num_cores = cores;
    sc.loop_traces = looped;
    // The looped run asks for more instructions than one pass holds
    // (~3.9M), so every context rotates back to its trace start.
    sc.max_instructions = looped ? 4'000'000 : 0;
    sc.warmup_instructions = looped ? 1'000'000 : 0;
    coresim::CmpSimulator sim(sc, h.get(), ptrs);
    return synthetic::Fingerprint(sim.Run());
  }

  static std::map<uint32_t, std::vector<trace::ClientTrace>> traces_;
};

std::map<uint32_t, std::vector<trace::ClientTrace>>
    ManyCoreReplayTest::traces_;

TEST_F(ManyCoreReplayTest, Cmp64) {
  EXPECT_EQ(kCmpFat64, Replay(false, false, 64));
  EXPECT_EQ(kCmpLean64, Replay(false, true, 64));
}
TEST_F(ManyCoreReplayTest, Smp64) {
  EXPECT_EQ(kSmpFat64, Replay(true, false, 64));
  EXPECT_EQ(kSmpLean64, Replay(true, true, 64));
}
TEST_F(ManyCoreReplayTest, Cmp1024) {
  EXPECT_EQ(kCmpFat1024, Replay(false, false, 1024));
  EXPECT_EQ(kCmpLean1024, Replay(false, true, 1024));
}
TEST_F(ManyCoreReplayTest, Smp1024) {
  EXPECT_EQ(kSmpFat1024, Replay(true, false, 1024));
  EXPECT_EQ(kSmpLean1024, Replay(true, true, 1024));
}
TEST_F(ManyCoreReplayTest, CmpFatLooped1024) {
  EXPECT_EQ(kCmpFatLooped1024, Replay(false, false, 1024, /*looped=*/true));
}
// Fewer clients than cores: the idle tail of the chip never runs.
TEST_F(ManyCoreReplayTest, CmpFatPartiallyPopulated1024) {
  EXPECT_EQ(kCmpFatPartial1024,
            Replay(false, false, 1024, /*looped=*/false, /*clients=*/700));
}

}  // namespace
}  // namespace stagedcmp
