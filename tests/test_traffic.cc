// Traffic-shaper unit tests: the Zipfian popularity law behaves like a
// popularity law (rank-ordered frequencies, theta-controlled head mass,
// theta=0 collapsing to uniform), hot-set rotation remaps keys without
// changing the law's shape, arrival shaping injects exactly the idle
// instructions it promises, and every draw sequence is a pure function of
// (config, seed) — the purity the sweep's cold-build contract extends to
// shaped traffic.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "trace/tracer.h"
#include "workload/traffic.h"

namespace stagedcmp::workload {
namespace {

constexpr uint64_t kKeys = 1000;
constexpr uint64_t kDraws = 40000;

std::vector<uint64_t> Frequencies(const TrafficConfig& config, uint64_t seed,
                                  uint64_t draws = kDraws) {
  TrafficShaper shaper(config, kKeys, seed);
  std::vector<uint64_t> freq(kKeys, 0);
  for (uint64_t i = 0; i < draws; ++i) ++freq[shaper.NextKey()];
  return freq;
}

double HeadMass(const std::vector<uint64_t>& freq, uint64_t head) {
  uint64_t in_head = 0, total = 0;
  for (uint64_t k = 0; k < freq.size(); ++k) {
    total += freq[k];
    if (k < head) in_head += freq[k];
  }
  return static_cast<double>(in_head) / static_cast<double>(total);
}

TEST(ZipfTraffic, FrequenciesFollowPopularityRank) {
  TrafficConfig config;
  config.key_dist = KeyDist::kZipfian;
  config.zipf_theta = 0.99;
  const std::vector<uint64_t> freq = Frequencies(config, 42);
  // Under kZipfian (no rotation) the drawn key IS the popularity rank, so
  // frequencies must fall as rank rises — sampled at decade spacing where
  // the law's gaps dwarf sampling noise.
  EXPECT_GT(freq[0], freq[10]);
  EXPECT_GT(freq[10], freq[100]);
  EXPECT_GT(freq[100], freq[999]);
  // Rank 0 of a theta=0.99 law owns a double-digit share of all draws.
  EXPECT_GT(static_cast<double>(freq[0]) / kDraws, 0.10);
}

TEST(ZipfTraffic, ThetaControlsHeadMass) {
  const uint64_t head = kKeys / 64;  // the shaper's hot-set size
  double mass[3] = {0, 0, 0};
  const double thetas[3] = {0.0, 0.6, 0.99};
  for (int i = 0; i < 3; ++i) {
    TrafficConfig config;
    config.key_dist = KeyDist::kZipfian;
    config.zipf_theta = thetas[i];
    mass[i] = HeadMass(Frequencies(config, 7), head);
  }
  EXPECT_LT(mass[0], mass[1]);
  EXPECT_LT(mass[1], mass[2]);
  // theta=0 is uniform: the head holds roughly its population share.
  EXPECT_NEAR(mass[0], static_cast<double>(head) / kKeys, 0.02);
  // theta=0.99 concentrates a large share of traffic on ~1.5% of keys.
  EXPECT_GT(mass[2], 0.30);
}

TEST(ZipfTraffic, HotSetHitAccountingMatchesHeadMass) {
  TrafficConfig config;
  config.key_dist = KeyDist::kZipfian;
  config.zipf_theta = 0.99;
  TrafficShaper shaper(config, kKeys, 11);
  for (uint64_t i = 0; i < kDraws; ++i) shaper.NextKey();
  EXPECT_EQ(shaper.stats().keys_generated, kDraws);
  const double hot_frac =
      static_cast<double>(shaper.stats().hot_set_hits) / kDraws;
  EXPECT_GT(hot_frac, 0.30);
}

TEST(ZipfTraffic, DrawSequenceIsAPureFunctionOfSeed) {
  TrafficConfig config;
  config.key_dist = KeyDist::kZipfian;
  config.zipf_theta = 0.6;
  TrafficShaper a(config, kKeys, 123);
  TrafficShaper b(config, kKeys, 123);
  TrafficShaper c(config, kKeys, 124);
  bool c_differs = false;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t ka = a.NextKey();
    EXPECT_EQ(ka, b.NextKey()) << "draw " << i;
    if (c.NextKey() != ka) c_differs = true;
  }
  EXPECT_TRUE(c_differs);
}

TEST(ZipfTraffic, HotRotationRemapsKeysWithoutChangingTheLaw) {
  TrafficConfig rotating;
  rotating.key_dist = KeyDist::kHotRotate;
  rotating.zipf_theta = 0.99;
  rotating.hot_rotate_period = 4;
  TrafficConfig fixed = rotating;
  fixed.key_dist = KeyDist::kZipfian;

  TrafficShaper rot(rotating, kKeys, 5);
  TrafficShaper fix(fixed, kKeys, 5);
  // First rotation period: identical draws (offset still zero).
  for (int r = 0; r < 4; ++r) {
    rot.BeforeRequest(nullptr);
    fix.BeforeRequest(nullptr);
    EXPECT_EQ(rot.NextKey(), fix.NextKey()) << "request " << r;
  }
  // Request 4 triggers a rotation: same underlying rank stream, shifted by
  // the documented n/8 offset — the law's shape is untouched.
  rot.BeforeRequest(nullptr);
  fix.BeforeRequest(nullptr);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rot.NextKey(), (fix.NextKey() + kKeys / 8) % kKeys);
  }
}

TEST(ArrivalTraffic, SteadyInjectsNothing) {
  TrafficConfig config;  // defaults: kSteady
  TrafficShaper shaper(config, kKeys, 3);
  const trace::RegionSet regions;
  trace::Tracer tracer(&regions);
  for (int r = 0; r < 8; ++r) shaper.BeforeRequest(&tracer);
  tracer.FlushCompute();
  EXPECT_EQ(tracer.events_size(), 0u);
  EXPECT_EQ(tracer.TakeTrace().total_instructions, 0u);
  EXPECT_EQ(shaper.stats().idle_instructions, 0u);
}

TEST(ArrivalTraffic, BurstInjectsGapEveryOnPhase) {
  TrafficConfig config;
  config.arrival = ArrivalShape::kOnOffBurst;
  config.burst_on = 2;
  config.burst_off = 3;
  config.think_instructions = 1000;
  TrafficShaper shaper(config, kKeys, 3);
  const trace::RegionSet regions;
  trace::Tracer tracer(&regions);
  for (int r = 0; r < 6; ++r) shaper.BeforeRequest(&tracer);
  tracer.FlushCompute();
  // Requests 0, 2, 4 begin an ON phase: three gaps of 3*1000 idle
  // instructions each.
  EXPECT_EQ(shaper.stats().burst_gaps, 3u);
  EXPECT_EQ(shaper.stats().idle_instructions, 9000u);
  EXPECT_GE(tracer.TakeTrace().total_instructions, 9000u);
}

TEST(ArrivalTraffic, ThinkTimePausesEveryRequest) {
  TrafficConfig config;
  config.arrival = ArrivalShape::kThinkTime;
  config.think_instructions = 500;
  TrafficShaper shaper(config, kKeys, 3);
  const trace::RegionSet regions;
  trace::Tracer tracer(&regions);
  for (int r = 0; r < 10; ++r) shaper.BeforeRequest(&tracer);
  tracer.FlushCompute();
  EXPECT_EQ(shaper.stats().think_events, 10u);
  EXPECT_EQ(shaper.stats().idle_instructions, 5000u);
  EXPECT_GE(tracer.TakeTrace().total_instructions, 5000u);
}

TEST(ArrivalTraffic, IdleInstructionsLandInTheIdleRegion) {
  TrafficConfig config;
  config.arrival = ArrivalShape::kThinkTime;
  config.think_instructions = 600;
  TrafficShaper shaper(config, kKeys, 9);
  const trace::RegionSet regions;
  trace::Tracer tracer(&regions);
  shaper.BeforeRequest(&tracer);
  tracer.FlushCompute();
  const trace::CodeRegion& idle = regions[trace::RegionId::kIdle];
  uint64_t idle_instrs = 0;
  for (uint64_t e : trace::DecodeEvents(tracer.TakeTrace())) {
    ASSERT_EQ(trace::UnpackKind(e), trace::EventKind::kCompute);
    const uint64_t pc = trace::UnpackAddr(e);
    if (pc >= idle.base && pc < idle.base + idle.size) {
      idle_instrs += trace::UnpackCount(e);
    }
  }
  // Everything but the region-entry prologue executes in kIdle.
  EXPECT_GE(idle_instrs, 600u);
}

}  // namespace
}  // namespace stagedcmp::workload
