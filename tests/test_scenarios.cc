// Scenario-matrix tests: drive harness/experiment through the cross
// product of {OLTP, DSS, mixed} workloads x {SMP few-fat-core,
// CMP many-lean-core} machines x {unstaged, staged-cohort} executors, and
// pin the paper's qualitative claims as executable invariants:
//   * staged cohort execution slashes operator code-region switches and
//     L2 misses relative to tuple-at-a-time plans (Section 6.3),
//   * DSS scans saturate the memory system where OLTP saturates compute
//     (Sections 4-5), with the mixed consolidation between the extremes,
//   * coherence stalls exist only on the private-L2 SMP (Figure 7),
//   * every configuration is deterministic for a fixed Rng seed.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "scenario_util.h"

namespace stagedcmp::scenario {
namespace {

struct ScenarioResult {
  coresim::SimResult sim;
  double region_switches_per_ki = 0.0;
  double offchip_per_ki = 0.0;
};

/// Runs (and memoizes) one cell of the matrix.
const ScenarioResult& RunScenario(Mix mix, Hardware hw, Executor ex) {
  static std::map<std::tuple<int, int, int>, ScenarioResult> cache;
  const auto key = std::make_tuple(static_cast<int>(mix),
                                   static_cast<int>(hw),
                                   static_cast<int>(ex));
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  const harness::TraceSet& traces = TraceCache::Get(mix, ex);
  ScenarioResult r;
  r.sim = harness::RunExperiment(HardwareConfig(hw), traces);
  r.region_switches_per_ki = RegionSwitchesPerKiloInstr(traces);
  r.offchip_per_ki =
      1000.0 *
      static_cast<double>(
          r.sim.mem.data_count[static_cast<int>(memsim::AccessClass::kOffChip)]) /
      static_cast<double>(r.sim.instructions);
  return cache.emplace(key, std::move(r)).first->second;
}

constexpr Mix kMixes[] = {Mix::kOltp, Mix::kDss, Mix::kMixed};
constexpr Hardware kHardware[] = {Hardware::kSmpFewFat,
                                  Hardware::kCmpManyLean};
constexpr Executor kExecutors[] = {Executor::kUnstaged,
                                   Executor::kStagedCohort};

class ScenarioMatrixTest
    : public ::testing::TestWithParam<std::tuple<Mix, Hardware, Executor>> {};

std::string ScenarioName(
    const ::testing::TestParamInfo<std::tuple<Mix, Hardware, Executor>>& info) {
  auto [mix, hw, ex] = info.param;
  std::string s = std::string(MixName(mix)) + "_" + HardwareName(hw) + "_" +
                  ExecutorName(ex);
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

// Per-cell sanity: every scenario simulates to completion, attributes every
// cycle to exactly one bucket, and reaches its measurement target.
TEST_P(ScenarioMatrixTest, RunsAndAccountsEveryCycle) {
  auto [mix, hw, ex] = GetParam();
  const ScenarioResult& r = RunScenario(mix, hw, ex);
  EXPECT_GT(r.sim.uipc(), 0.0);
  EXPECT_GT(r.sim.elapsed_cycles, 0u);
  const auto& ec = HardwareConfig(hw);
  EXPECT_GE(r.sim.instructions, ec.measure_instructions * 9 / 10);
  double sum = 0.0;
  for (int b = 0; b < static_cast<int>(coresim::Bucket::kCount); ++b) {
    const double f = r.sim.breakdown.Fraction(static_cast<coresim::Bucket>(b));
    EXPECT_GE(f, 0.0);
    sum += f;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// Coherence misses are an SMP-only phenomenon: the shared-L2 CMP turns
// them into on-chip hits by construction (Figure 7's mechanism).
TEST_P(ScenarioMatrixTest, CoherenceOnlyOnPrivateL2) {
  auto [mix, hw, ex] = GetParam();
  const ScenarioResult& r = RunScenario(mix, hw, ex);
  const uint64_t coh =
      r.sim.mem.data_count[static_cast<int>(memsim::AccessClass::kCoherence)];
  if (hw == Hardware::kCmpManyLean) {
    EXPECT_EQ(coh, 0u);
    EXPECT_EQ(r.sim.breakdown.Get(coresim::Bucket::kDStallCoh), 0.0);
  } else if (mix != Mix::kDss) {
    // OLTP's lock buckets and log tail are write-shared by design, so any
    // OLTP-bearing mix must ping-pong lines between private L2s. (DSS is
    // read-mostly: its coherence traffic is incidental, so no claim.)
    EXPECT_GT(coh, 0u);
  }
}

// Fixed seed => bit-identical replay, cell by cell.
TEST_P(ScenarioMatrixTest, DeterministicForFixedSeed) {
  auto [mix, hw, ex] = GetParam();
  const ScenarioResult& first = RunScenario(mix, hw, ex);
  coresim::SimResult again =
      harness::RunExperiment(HardwareConfig(hw), TraceCache::Get(mix, ex));
  EXPECT_EQ(StatTable(first.sim), StatTable(again));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ScenarioMatrixTest,
    ::testing::Combine(::testing::ValuesIn(kMixes),
                       ::testing::ValuesIn(kHardware),
                       ::testing::ValuesIn(kExecutors)),
    ScenarioName);

// --- Cross-scenario invariants -------------------------------------------

// Staged cohort scheduling runs one operator over a whole packet, so the
// trace shows orders of magnitude fewer operator-region switches than the
// per-tuple Volcano interleaving.
TEST(ScenarioInvariants, StagedCohortSlashesRegionSwitches) {
  const double volcano =
      RunScenario(Mix::kDss, Hardware::kCmpManyLean, Executor::kUnstaged)
          .region_switches_per_ki;
  const double staged =
      RunScenario(Mix::kDss, Hardware::kCmpManyLean, Executor::kStagedCohort)
          .region_switches_per_ki;
  EXPECT_GT(volcano, 10.0 * staged);

  const double mixed_volcano =
      RunScenario(Mix::kMixed, Hardware::kCmpManyLean, Executor::kUnstaged)
          .region_switches_per_ki;
  const double mixed_staged =
      RunScenario(Mix::kMixed, Hardware::kCmpManyLean, Executor::kStagedCohort)
          .region_switches_per_ki;
  EXPECT_GT(mixed_volcano, 5.0 * mixed_staged);
}

// Staging bounds producer->consumer reuse distance to one packet, so fewer
// accesses fall off-chip and the shared L2 serves a larger miss fraction.
TEST(ScenarioInvariants, StagedCohortReducesL2Misses) {
  // Scoped to the shared-L2 CMP, where the paper locates the benefit: on
  // the small private SMP L2s the staged working set straddles capacity.
  const ScenarioResult& cmp_volcano =
      RunScenario(Mix::kDss, Hardware::kCmpManyLean, Executor::kUnstaged);
  const ScenarioResult& cmp_staged =
      RunScenario(Mix::kDss, Hardware::kCmpManyLean, Executor::kStagedCohort);
  EXPECT_LT(cmp_staged.offchip_per_ki, cmp_volcano.offchip_per_ki);
  // The saved misses become shared-L2 hits and throughput.
  EXPECT_GT(cmp_staged.sim.l2_hit_rate, cmp_volcano.sim.l2_hit_rate);
  EXPECT_GT(cmp_staged.sim.uipc(), cmp_volcano.sim.uipc());
}

// DSS scans stream through memory (data-stall bound) while OLTP's skewed
// working set leaves lean multithreaded cores compute-saturated — the two
// workloads hit different walls (Sections 4-5).
TEST(ScenarioInvariants, DssSaturatesMemoryOltpSaturatesCompute) {
  for (Hardware hw : kHardware) {
    const ScenarioResult& oltp =
        RunScenario(Mix::kOltp, hw, Executor::kUnstaged);
    const ScenarioResult& dss = RunScenario(Mix::kDss, hw, Executor::kUnstaged);
    const double oltp_d =
        oltp.sim.breakdown.d_stalls() / oltp.sim.breakdown.total();
    const double dss_d =
        dss.sim.breakdown.d_stalls() / dss.sim.breakdown.total();
    EXPECT_GT(dss_d, oltp_d) << HardwareName(hw);
    EXPECT_GT(dss.offchip_per_ki, 2.0 * oltp.offchip_per_ki)
        << HardwareName(hw);
    // OLTP's big instruction footprint makes it the I-stall workload.
    const double oltp_i =
        oltp.sim.breakdown.i_stalls() / oltp.sim.breakdown.total();
    const double dss_i =
        dss.sim.breakdown.i_stalls() / dss.sim.breakdown.total();
    EXPECT_GT(oltp_i, dss_i) << HardwareName(hw);
    EXPECT_GT(oltp.sim.uipc(), dss.sim.uipc()) << HardwareName(hw);
  }
}

// Consolidating both workloads on one chip lands memory pressure between
// the pure extremes.
TEST(ScenarioInvariants, MixedWorkloadLandsBetweenExtremes) {
  for (Hardware hw : kHardware) {
    const double oltp =
        RunScenario(Mix::kOltp, hw, Executor::kUnstaged).offchip_per_ki;
    const double mixed =
        RunScenario(Mix::kMixed, hw, Executor::kUnstaged).offchip_per_ki;
    const double dss =
        RunScenario(Mix::kDss, hw, Executor::kUnstaged).offchip_per_ki;
    EXPECT_GT(mixed, oltp) << HardwareName(hw);
    EXPECT_LT(mixed, dss) << HardwareName(hw);
  }
}

// The headline: the many-lean-core CMP outruns the few-fat-core SMP on
// every workload/executor combination once the server is saturated.
TEST(ScenarioInvariants, CmpManyLeanOutrunsSmpFewFatSaturated) {
  for (Mix mix : kMixes) {
    for (Executor ex : kExecutors) {
      const double smp = RunScenario(mix, Hardware::kSmpFewFat, ex).sim.uipc();
      const double cmp =
          RunScenario(mix, Hardware::kCmpManyLean, ex).sim.uipc();
      EXPECT_GT(cmp, smp) << MixName(mix) << "/" << ExecutorName(ex);
    }
  }
}

// --- Traffic & tenancy invariants ----------------------------------------

/// Off-chip + coherence share of all data accesses — the same ratio
/// TenantStats::data_offchip_rate reports per tenant, over the aggregate.
double AggregateDataOffchipRate(const coresim::SimResult& r) {
  uint64_t total = 0;
  for (int c = 0; c < static_cast<int>(memsim::AccessClass::kCount); ++c) {
    total += r.mem.data_count[c];
  }
  const uint64_t off =
      r.mem.data_count[static_cast<int>(memsim::AccessClass::kOffChip)] +
      r.mem.data_count[static_cast<int>(memsim::AccessClass::kCoherence)];
  return total ? static_cast<double>(off) / static_cast<double>(total) : 0.0;
}

/// CMP preset with an L2 small enough that the tiny-scale working sets do
/// not simply fit — the regime where popularity skew and co-tenant
/// pressure are visible at all.
harness::ExperimentConfig SmallL2Cmp() {
  harness::ExperimentConfig ec = HardwareConfig(Hardware::kCmpManyLean);
  ec.l2_bytes = 1ull << 20;
  return ec;
}

// Zipfian concentration turns L2 data misses into hits: the hotter the
// head of the popularity law, the smaller the effective working set, so
// the off-chip data rate must not rise with theta (the skew grid's
// monotonicity claim, pinned at its endpoints and midpoint).
TEST(TrafficInvariants, SkewConcentrationDoesNotRaiseOffchipMisses) {
  // Enough requests that uniform draws sweep most of the record space,
  // against an L2 well under the table size — the hot-set-dominated
  // regime where popularity concentration is the difference between
  // streaming off-chip and hitting on-chip.
  harness::ExperimentConfig ec = SmallL2Cmp();
  ec.l2_bytes = 512u << 10;
  const double thetas[3] = {0.0, 0.6, 0.99};
  double rate[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    harness::TraceSetConfig tc;
    tc.workload = harness::WorkloadKind::kYcsb;
    tc.clients = 8;
    tc.requests_per_client = 48;
    tc.seed = 23;
    tc.traffic.key_dist = workload::KeyDist::kZipfian;
    tc.traffic.zipf_theta = thetas[i];
    const harness::TraceSet traces = TraceCache::Factory()->Build(tc);
    rate[i] = AggregateDataOffchipRate(harness::RunExperiment(ec, traces));
  }
  EXPECT_LE(rate[1], rate[0]) << "theta 0.6 vs 0.0";
  EXPECT_LE(rate[2], rate[1]) << "theta 0.99 vs 0.6";
  EXPECT_LT(rate[2], rate[0]) << "endpoints must strictly order";
}

// Sharing the chip is never free: with a co-tenant contending for the
// same L2, each tenant's off-chip data rate is at least what it pays
// running the machine alone.
TEST(TrafficInvariants, CoTenantInterferenceNeverImprovesMissRates) {
  harness::TraceSetConfig oltp_alone;
  oltp_alone.workload = harness::WorkloadKind::kOltp;
  oltp_alone.clients = 8;
  oltp_alone.requests_per_client = 6;
  oltp_alone.seed = 29;

  harness::TraceSetConfig ycsb_alone;
  ycsb_alone.workload = harness::WorkloadKind::kYcsb;
  ycsb_alone.clients = 8;
  ycsb_alone.requests_per_client = 6;
  ycsb_alone.seed = 29;

  harness::TraceSetConfig corun = oltp_alone;
  corun.tenant2_workload = harness::WorkloadKind::kYcsb;
  corun.tenant2_clients = 8;

  harness::WorkloadFactory* f = TraceCache::Factory();
  const harness::ExperimentConfig ec = SmallL2Cmp();
  const double alone_oltp =
      AggregateDataOffchipRate(harness::RunExperiment(ec, f->Build(oltp_alone)));
  const double alone_ycsb =
      AggregateDataOffchipRate(harness::RunExperiment(ec, f->Build(ycsb_alone)));

  const coresim::SimResult co = harness::RunExperiment(ec, f->Build(corun));
  ASSERT_EQ(co.num_tenants, 2u);
  EXPECT_GT(co.tenants[0].instructions, 0u);
  EXPECT_GT(co.tenants[1].instructions, 0u);
  EXPECT_GE(co.tenants[0].data_offchip_rate(), alone_oltp) << "tenant A";
  EXPECT_GE(co.tenants[1].data_offchip_rate(), alone_ycsb) << "tenant B";
}

// --- Shared-bus scaling invariants ----------------------------------------

// The shootout grid's central claim, scaled to test size: with the
// shared-bus occupancy model on, the SMP's mean queue delay rises
// monotonically and super-linearly with node count (the coherence-limited
// knee), the matched CMP's banked-fabric queueing stays far below it at
// every node count, and the flat-latency reference arm still reports the
// historical constant-zero SMP queue delays.
TEST(BusScalingInvariants, SmpQueueDelayKneeGrowsWhileCmpStaysFlat) {
  constexpr uint32_t kNodes[] = {8, 32, 128};
  double smp_queue[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    const uint32_t n = kNodes[i];
    // One client per node (an idle node would dilute the offered load),
    // windows scaled with the machine — the shootout cells in miniature.
    harness::TraceSetConfig tc;
    tc.workload = harness::WorkloadKind::kOltp;
    tc.clients = n;
    tc.requests_per_client = 2;
    tc.seed = 13;
    const harness::TraceSet traces = TraceCache::Factory()->Build(tc);

    harness::ExperimentConfig smp;
    smp.camp = coresim::Camp::kFat;
    smp.cores = n;
    smp.topology = harness::Topology::kSmpPrivate;
    smp.l2_bytes = 256ull << 10;  // per node
    smp.smp_bus_model = true;
    smp.measure_instructions = 50'000ull * n;
    smp.warmup_instructions = 25'000ull * n;
    const coresim::SimResult rs = harness::RunExperiment(smp, traces);
    smp_queue[i] = rs.mem.queue_delay.mean();
    EXPECT_GT(rs.mem.bus_transactions, 0u) << n << " nodes";
    EXPECT_GT(rs.mem.queue_delay.sum(), 0u) << n << " nodes";

    harness::ExperimentConfig cmp = smp;
    cmp.topology = harness::Topology::kCmpShared;
    cmp.l2_bytes = 16ull << 20;  // one shared L2
    cmp.l2_ports = n / 4 < 8 ? 8 : n / 4;  // ports scale with the tiles
    const coresim::SimResult rc = harness::RunExperiment(cmp, traces);
    EXPECT_EQ(rc.mem.bus_transactions, 0u) << n << " nodes";
    // Matched node counts: the CMP's (port-model) queueing stays far
    // under the serialized bus at every point of the grid.
    EXPECT_LT(rc.mem.queue_delay.mean() * 3, smp_queue[i]) << n << " nodes";

    // Reference arm: same machine, bus model off — queue delays are the
    // historical constant zero and the bus counters never move.
    harness::ExperimentConfig flat = smp;
    flat.smp_bus_model = false;
    const coresim::SimResult rf = harness::RunExperiment(flat, traces);
    EXPECT_EQ(rf.mem.queue_delay.count(), 0u) << n << " nodes";
    EXPECT_EQ(rf.mem.bus_transactions, 0u) << n << " nodes";
    EXPECT_EQ(rf.mem.bus_busy_cycles, 0u) << n << " nodes";
  }
  // Monotone and super-linear: 16x the nodes must cost well over 16x the
  // mean queue delay (the full shootout observes ~50x over this span).
  EXPECT_GT(smp_queue[1], smp_queue[0] * 2) << "8 -> 32 nodes";
  EXPECT_GT(smp_queue[2], smp_queue[1] * 2) << "32 -> 128 nodes";
  EXPECT_GT(smp_queue[2], smp_queue[0] * 16) << "8 -> 128 nodes";
}

}  // namespace
}  // namespace stagedcmp::scenario
