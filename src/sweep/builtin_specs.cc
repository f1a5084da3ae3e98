#include "sweep/builtin_specs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace stagedcmp::sweep {

harness::TraceSetConfig OltpSaturatedConfig(uint32_t clients) {
  harness::TraceSetConfig tc;
  tc.workload = harness::WorkloadKind::kOltp;
  tc.clients = clients;
  // Long traces: one loop over the trace set must touch far more unique
  // data than the largest L2, or steady-state replay becomes artificially
  // cache-resident.
  tc.requests_per_client = 64;
  tc.seed = 11;
  return tc;
}

harness::TraceSetConfig DssSaturatedConfig(uint32_t clients) {
  harness::TraceSetConfig tc;
  tc.workload = harness::WorkloadKind::kDss;
  tc.clients = clients;
  tc.requests_per_client = 1;
  tc.seed = 23;
  return tc;
}

harness::TraceSetConfig OltpUnsaturatedConfig() {
  harness::TraceSetConfig tc;
  tc.workload = harness::WorkloadKind::kOltp;
  tc.clients = 1;
  tc.requests_per_client = 40;
  tc.seed = 31;
  return tc;
}

harness::TraceSetConfig DssUnsaturatedConfig() {
  harness::TraceSetConfig tc;
  tc.workload = harness::WorkloadKind::kDss;
  tc.clients = 1;
  tc.requests_per_client = 2;
  tc.seed = 41;
  return tc;
}

namespace {

using AxisValue = SweepSpec::AxisValue;

/// Workload axis over the saturated trace sets (fig6/fig7 shape).
std::vector<AxisValue> SaturatedWorkloadAxis() {
  return {
      {"OLTP", [](Cell& c) { c.trace = OltpSaturatedConfig(); }},
      {"DSS", [](Cell& c) { c.trace = DssSaturatedConfig(); }},
  };
}

SweepSpec MakeSmoke() {
  SweepSpec spec("smoke",
                 "tiny 2x2 {OLTP,DSS} x {FC,LC} grid for CI and perf "
                 "trajectories — small traces, short measurement window");
  spec.base_exp.cores = 2;
  spec.base_exp.l2_bytes = 4ull << 20;
  spec.base_exp.saturated = true;
  spec.base_exp.measure_instructions = 1'500'000;
  spec.base_exp.warmup_instructions = 500'000;
  spec.AddAxis("workload",
               {{"OLTP",
                 [](Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kOltp;
                   c.trace.clients = 4;
                   c.trace.requests_per_client = 8;
                   c.trace.seed = 7;
                 }},
                {"DSS",
                 [](Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kDss;
                   c.trace.clients = 4;
                   c.trace.requests_per_client = 1;
                   c.trace.seed = 7;
                 }}});
  spec.AddAxis("camp",
               {{"FC", [](Cell& c) { c.exp.camp = coresim::Camp::kFat; }},
                {"LC", [](Cell& c) { c.exp.camp = coresim::Camp::kLean; }}});
  return spec;
}

SweepSpec MakeSmokeSmp() {
  SweepSpec spec("smokesmp",
                 "tiny {OLTP,DSS} grid on the SMP private-L2 machine — "
                 "CI golden diff of the coherence directory; ctest "
                 "holds it equal to the broadcast reference model");
  spec.base_exp.cores = 4;
  spec.base_exp.topology = harness::Topology::kSmpPrivate;
  spec.base_exp.l2_bytes = 1ull << 20;  // per node; small => real churn
  spec.base_exp.saturated = true;
  spec.base_exp.measure_instructions = 1'500'000;
  spec.base_exp.warmup_instructions = 500'000;
  spec.AddAxis("workload",
               {{"OLTP",
                 [](Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kOltp;
                   c.trace.clients = 4;
                   c.trace.requests_per_client = 8;
                   c.trace.seed = 7;
                 }},
                {"DSS",
                 [](Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kDss;
                   c.trace.clients = 4;
                   c.trace.requests_per_client = 1;
                   c.trace.seed = 7;
                 }}});
  return spec;
}

SweepSpec MakeFig2() {
  SweepSpec spec("fig2",
                 "Figure 2: throughput vs concurrent clients (DSS, 4-core "
                 "FC CMP, 16MB L2, closed loop); paper: peak ~3-4x the "
                 "1-client throughput, slight decline past saturation");
  spec.base_trace.workload = harness::WorkloadKind::kDss;
  spec.base_trace.requests_per_client = 1;
  spec.base_trace.seed = 51;
  spec.base_exp.camp = coresim::Camp::kFat;
  spec.base_exp.cores = 4;
  spec.base_exp.l2_bytes = 16ull << 20;
  spec.base_exp.saturated = true;
  spec.base_exp.measure_instructions = 8'000'000;
  spec.base_exp.warmup_instructions = 2'000'000;
  std::vector<AxisValue> clients;
  for (uint32_t n : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    clients.push_back(
        {std::to_string(n), [n](Cell& c) { c.trace.clients = n; }});
  }
  spec.AddAxis("clients", std::move(clients));
  spec.baseline = {{"clients", "1"}};
  return spec;
}

SweepSpec MakeFig3() {
  SweepSpec spec("fig3",
                 "Figure 3: saturated DSS on a Power5-like CMP (4-core FC, "
                 "2MB L2, 140-cycle off-chip L3); paper (OpenPower720 "
                 "counters): CPI 1.45 = 0.55 comp + 0.10 I + 0.60 D + "
                 "0.20 other, simulated CPI within ~5-15%");
  spec.base_trace = DssSaturatedConfig();
  spec.base_exp.camp = coresim::Camp::kFat;
  spec.base_exp.cores = 4;
  spec.base_exp.l2_bytes = 2ull << 20;  // Power5's 1.9MB on-chip L2
  // Power5 L2 misses mostly hit the 36MB off-chip L3, not DRAM.
  spec.base_exp.memory_latency = 140;
  spec.base_exp.saturated = true;
  return spec;
}

SweepSpec MakeFig4() {
  SweepSpec spec("fig4",
                 "Figures 4 and 5: LC vs FC ({unsat,sat} x {OLTP,DSS} x "
                 "{FC,LC}, 26MB L2); paper: LC/FC response time unsat "
                 "OLTP ~1.12, DSS ~1.7, LC/FC throughput sat ~1.7; FC "
                 "D-stalls 46-64%, sat-LC D-stalls <=13%");
  spec.base_exp.cores = 4;
  spec.base_exp.l2_bytes = 26ull << 20;
  spec.AddAxis("load",
               {{"unsat", [](Cell& c) { c.exp.saturated = false; }},
                {"sat", [](Cell& c) { c.exp.saturated = true; }}});
  // The workload mutator branches on the load axis (set above it).
  spec.AddAxis(
      "workload",
      {{"OLTP",
        [](Cell& c) {
          c.trace = c.exp.saturated ? OltpSaturatedConfig()
                                    : OltpUnsaturatedConfig();
        }},
       {"DSS",
        [](Cell& c) {
          c.trace = c.exp.saturated ? DssSaturatedConfig()
                                    : DssUnsaturatedConfig();
        }}});
  spec.AddAxis("camp",
               {{"FC", [](Cell& c) { c.exp.camp = coresim::Camp::kFat; }},
                {"LC", [](Cell& c) { c.exp.camp = coresim::Camp::kLean; }}});
  spec.baseline = {{"camp", "FC"}};
  return spec;
}

SweepSpec MakeFig6() {
  SweepSpec spec("fig6",
                 "Figure 6: throughput and CPI contributions vs L2 size "
                 "({OLTP,DSS} x {fixed4,realistic} x {1..26MB}); paper: "
                 "real-latency penalty at 26MB up to 2.2x OLTP / 2x DSS, "
                 "L2-hit stall CPI ~12x from 1MB to 26MB");
  spec.base_exp.camp = coresim::Camp::kFat;
  spec.base_exp.cores = 4;
  spec.base_exp.saturated = true;
  spec.AddAxis("workload", SaturatedWorkloadAxis());
  spec.AddAxis(
      "latency",
      {{"const4",
        [](Cell& c) { c.exp.latency = harness::LatencyMode::kFixed4; }},
       {"real",
        [](Cell& c) { c.exp.latency = harness::LatencyMode::kRealistic; }}});
  std::vector<AxisValue> sizes;
  for (uint64_t mb : {1, 2, 4, 8, 16, 26}) {
    sizes.push_back({std::to_string(mb) + "MB",
                     [mb](Cell& c) { c.exp.l2_bytes = mb << 20; }});
  }
  spec.AddAxis("l2", std::move(sizes));
  spec.baseline = {{"latency", "real"}, {"l2", "1MB"}};
  return spec;
}

SweepSpec MakeFig7() {
  SweepSpec spec("fig7",
                 "Figure 7: SMP (4x private 4MB L2, MESI) vs CMP (shared "
                 "16MB L2), saturated, FC cores; paper: CPI OLTP 1.40 -> "
                 "1.01, DSS 1.95 -> 1.46, L2-hit CPI ~7x");
  spec.base_exp.camp = coresim::Camp::kFat;
  spec.base_exp.cores = 4;
  spec.base_exp.saturated = true;
  spec.AddAxis("workload", SaturatedWorkloadAxis());
  spec.AddAxis("system",
               {{"SMP",
                 [](Cell& c) {
                   c.exp.topology = harness::Topology::kSmpPrivate;
                   c.exp.l2_bytes = 4ull << 20;  // per node
                 }},
                {"CMP",
                 [](Cell& c) {
                   c.exp.topology = harness::Topology::kCmpShared;
                   c.exp.l2_bytes = 16ull << 20;
                 }}});
  spec.baseline = {{"system", "SMP"}};
  return spec;
}

SweepSpec MakeFig8() {
  SweepSpec spec("fig8",
                 "Figure 8: throughput vs core count (FC CMP, shared 16MB "
                 "L2), offered load scales with the machine; paper: DSS "
                 "~+9% superlinear at 8 cores, OLTP ~74% of linear at 16 "
                 "(L2 port queueing, not misses)");
  spec.base_exp.camp = coresim::Camp::kFat;
  spec.base_exp.l2_bytes = 16ull << 20;
  spec.base_exp.saturated = true;
  spec.AddAxis("workload", SaturatedWorkloadAxis());
  std::vector<AxisValue> cores;
  for (uint32_t n : {4u, 8u, 12u, 16u}) {
    cores.push_back({std::to_string(n), [n](Cell& c) {
                       // Saturated condition: idle contexts always find a
                       // thread, constant multiprogramming per context.
                       c.exp.cores = n;
                       c.exp.measure_instructions = 12'000'000ull * n / 4;
                       c.trace.clients = 3 * n;
                     }});
  }
  spec.AddAxis("cores", std::move(cores));
  spec.baseline = {{"cores", "4"}};
  return spec;
}

SweepSpec MakeFig8Smp() {
  SweepSpec spec("fig8smp",
                 "throughput vs node count on the SMP private-L2 machine "
                 "(FC, MESI over 4MB private L2s), offered load scales "
                 "with the machine");
  spec.base_exp.camp = coresim::Camp::kFat;
  spec.base_exp.topology = harness::Topology::kSmpPrivate;
  spec.base_exp.l2_bytes = 4ull << 20;  // per node (fig7's SMP arm)
  spec.base_exp.saturated = true;
  spec.AddAxis("workload", SaturatedWorkloadAxis());
  std::vector<AxisValue> nodes;
  for (uint32_t n : {4u, 8u, 16u, 32u}) {
    nodes.push_back({std::to_string(n), [n](Cell& c) {
                       c.exp.cores = n;
                       c.exp.measure_instructions = 12'000'000ull * n / 4;
                       c.trace.clients = 3 * n;
                     }});
  }
  spec.AddAxis("nodes", std::move(nodes));
  spec.baseline = {{"nodes", "4"}};
  return spec;
}

SweepSpec MakeCohort() {
  SweepSpec spec("cohort",
                 "Ablation (Sections 6.2/6.3): engine {volcano, "
                 "staged-tuple, staged-cohort} on DSS scans, 4-core FC, "
                 "8MB L2, every query run to completion; expect cohorts to "
                 "cut the D-stall fraction. UIPC counts the staged "
                 "engine's own bookkeeping, so the headline is "
                 "queries/Gcycle = 1e9 / avg_response_cycles (csv/json); "
                 "the paper proposes staging without a measured win");
  // One client per core, so every query completes and the response-time
  // metric is exact.
  spec.base_trace.workload = harness::WorkloadKind::kDss;
  spec.base_trace.clients = 4;
  spec.base_trace.requests_per_client = 2;
  spec.base_trace.seed = 61;
  spec.base_exp.camp = coresim::Camp::kFat;
  spec.base_exp.cores = 4;
  spec.base_exp.l2_bytes = 8ull << 20;
  spec.base_exp.saturated = false;
  spec.AddAxis(
      "engine",
      {{"volcano",
        [](Cell& c) { c.trace.engine = harness::EngineMode::kVolcano; }},
       {"staged-tuple",
        [](Cell& c) { c.trace.engine = harness::EngineMode::kStagedTuple; }},
       {"staged-cohort", [](Cell& c) {
          c.trace.engine = harness::EngineMode::kStagedCohort;
        }}});
  spec.baseline = {{"engine", "volcano"}};
  return spec;
}

SweepSpec MakeSbuf() {
  SweepSpec spec("sbuf",
                 "Ablation (Section 4): instruction stream buffers {on,off} "
                 "on saturated OLTP, 4-core FC, 16MB L2; paper: stream "
                 "buffers make I-stalls secondary in every breakdown");
  spec.base_trace = OltpSaturatedConfig();
  spec.base_exp.camp = coresim::Camp::kFat;
  spec.base_exp.cores = 4;
  spec.base_exp.l2_bytes = 16ull << 20;
  spec.base_exp.saturated = true;
  spec.AddAxis("sbuf",
               {{"on", [](Cell& c) { c.exp.stream_buffers = true; }},
                {"off", [](Cell& c) { c.exp.stream_buffers = false; }}});
  spec.baseline = {{"sbuf", "off"}};
  return spec;
}

/// Smoke-scale trace config (the smoke grid's shape) for workload `w` —
/// the traffic/tenant grids reuse it so their cold builds stay CI-cheap.
harness::TraceSetConfig SmokeTrace(harness::WorkloadKind w) {
  harness::TraceSetConfig tc;
  tc.workload = w;
  tc.clients = 4;
  tc.requests_per_client = w == harness::WorkloadKind::kDss ? 1 : 8;
  tc.seed = 7;
  return tc;
}

/// Smoke-scale machine: small L2 so skew/interference effects register
/// inside a short measurement window.
void SmokeScaleExp(harness::ExperimentConfig& e) {
  e.cores = 2;
  e.l2_bytes = 4ull << 20;
  e.saturated = true;
  e.measure_instructions = 1'500'000;
  e.warmup_instructions = 500'000;
}

SweepSpec MakeSkew() {
  SweepSpec spec("skew",
                 "key-popularity skew: {OLTP,YCSB} x Zipf theta "
                 "{0,0.6,0.99} x {volcano,staged} x L2 {1,4MB}; OLTP runs "
                 "volcano only (its driver has no staged path)");
  SmokeScaleExp(spec.base_exp);
  spec.AddAxis("workload",
               {{"OLTP",
                 [](Cell& c) {
                   c.trace = SmokeTrace(harness::WorkloadKind::kOltp);
                 }},
                {"YCSB",
                 [](Cell& c) {
                   c.trace = SmokeTrace(harness::WorkloadKind::kYcsb);
                 }}});
  // Every theta value routes key selection through the Zipf shaper —
  // theta 0 IS the uniform law — so the axis varies only the skew
  // exponent, never the selection mechanism.
  std::vector<AxisValue> thetas;
  for (double th : {0.0, 0.6, 0.99}) {
    char name[16];
    std::snprintf(name, sizeof(name), "t%.2f", th);
    thetas.push_back({name, [th](Cell& c) {
                        c.trace.traffic.key_dist =
                            workload::KeyDist::kZipfian;
                        c.trace.traffic.zipf_theta = th;
                      }});
  }
  spec.AddAxis("theta", std::move(thetas));
  spec.AddAxis(
      "engine",
      {{"volcano",
        [](Cell& c) { c.trace.engine = harness::EngineMode::kVolcano; }},
       {"staged", [](Cell& c) {
          c.trace.engine = harness::EngineMode::kStagedCohort;
        }}});
  std::vector<AxisValue> sizes;
  for (uint64_t mb : {1, 4}) {
    sizes.push_back({std::to_string(mb) + "MB",
                     [mb](Cell& c) { c.exp.l2_bytes = mb << 20; }});
  }
  spec.AddAxis("l2", std::move(sizes));
  spec.AddFilter([](const Cell& c) {
    return c.trace.workload != harness::WorkloadKind::kOltp ||
           c.trace.engine == harness::EngineMode::kVolcano;
  });
  return spec;
}

SweepSpec MakeBurst() {
  SweepSpec spec("burst",
                 "arrival shaping: {OLTP,YCSB} x {steady,burst,think} — "
                 "idle gaps recorded as kIdle-region compute events");
  SmokeScaleExp(spec.base_exp);
  spec.AddAxis("workload",
               {{"OLTP",
                 [](Cell& c) {
                   c.trace = SmokeTrace(harness::WorkloadKind::kOltp);
                 }},
                {"YCSB",
                 [](Cell& c) {
                   c.trace = SmokeTrace(harness::WorkloadKind::kYcsb);
                 }}});
  spec.AddAxis(
      "arrival",
      {{"steady", [](Cell&) { /* historical back-to-back default */ }},
       {"burst",
        [](Cell& c) {
          c.trace.traffic.arrival = workload::ArrivalShape::kOnOffBurst;
        }},
       {"think", [](Cell& c) {
          c.trace.traffic.arrival = workload::ArrivalShape::kThinkTime;
        }}});
  return spec;
}

SweepSpec MakeTenants() {
  SweepSpec spec("tenants",
                 "multi-tenant interference: {oltp-alone, ycsb-alone, "
                 "corun} x L2 {1,4MB} — co-run interleaves both tenants' "
                 "clients on one hierarchy with per-tenant attribution");
  SmokeScaleExp(spec.base_exp);
  spec.AddAxis(
      "mix",
      {{"oltp",
        [](Cell& c) { c.trace = SmokeTrace(harness::WorkloadKind::kOltp); }},
       {"ycsb",
        [](Cell& c) { c.trace = SmokeTrace(harness::WorkloadKind::kYcsb); }},
       {"corun", [](Cell& c) {
          // Tenant A: the OLTP smoke config; tenant B: the same number of
          // YCSB clients against a separate database instance.
          c.trace = SmokeTrace(harness::WorkloadKind::kOltp);
          c.trace.tenant2_workload = harness::WorkloadKind::kYcsb;
          c.trace.tenant2_clients = 4;
        }}});
  std::vector<AxisValue> sizes;
  for (uint64_t mb : {1, 4}) {
    sizes.push_back({std::to_string(mb) + "MB",
                     [mb](Cell& c) { c.exp.l2_bytes = mb << 20; }});
  }
  spec.AddAxis("l2", std::move(sizes));
  return spec;
}

SweepSpec MakeShootout() {
  SweepSpec spec(
      "shootout",
      "CMP vs SMP at matched node counts {16,64,256,1024} x {OLTP,DSS}: "
      "the SMP charges the shared-bus occupancy model (queue-delay knee) "
      "while the CMP's banked on-chip fabric scales with the tile count "
      "and stays near-flat; short per-node windows and shrunk DSS tables "
      "(ConfigureFactoryForSpec) keep 1024 nodes CI-sized");
  spec.base_exp.camp = coresim::Camp::kFat;
  spec.base_exp.saturated = true;
  // The point of the grid: SMP coherence rides one bus. No effect on the
  // CMP cells; the flat-latency reference arm stays available by
  // clearing this knob (every other SMP spec does).
  spec.base_exp.smp_bus_model = true;
  spec.AddAxis("workload",
               {{"OLTP",
                 [](Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kOltp;
                   // Two transactions per client: at 1024 clients the
                   // cross-client write sharing (warehouse/district rows)
                   // supplies the coherence traffic, so per-client traces
                   // can stay tiny.
                   c.trace.requests_per_client = 2;
                   c.trace.seed = 13;
                 }},
                {"DSS",
                 [](Cell& c) {
                   c.trace.workload = harness::WorkloadKind::kDss;
                   c.trace.requests_per_client = 1;
                   c.trace.seed = 13;
                 }}});
  spec.AddAxis("system",
               {{"SMP",
                 [](Cell& c) {
                   c.exp.topology = harness::Topology::kSmpPrivate;
                   // Small private L2s: the per-node working set must
                   // outrun the node's cache or steady state goes quiet.
                   c.exp.l2_bytes = 256ull << 10;  // per node
                 }},
                {"CMP",
                 [](Cell& c) {
                   c.exp.topology = harness::Topology::kCmpShared;
                   c.exp.l2_bytes = 16ull << 20;  // shared
                 }}});
  std::vector<AxisValue> nodes;
  for (uint32_t n : {16u, 64u, 256u, 1024u}) {
    nodes.push_back({std::to_string(n), [n](Cell& c) {
                       c.exp.cores = n;
                       c.trace.clients = n;  // one client per node
                       // Grid-constant per-node window (these are
                       // aggregate budgets).
                       c.exp.measure_instructions = 50'000ull * n;
                       c.exp.warmup_instructions = 25'000ull * n;
                       // The CMP's banked L2 fabric scales with the tile
                       // count (the on-chip-bandwidth half of the paper's
                       // argument); the SMP bus deliberately does not.
                       if (c.exp.topology == harness::Topology::kCmpShared) {
                         c.exp.l2_ports = std::max(8u, n / 4);
                       }
                     }});
  }
  spec.AddAxis("nodes", std::move(nodes));
  return spec;
}

}  // namespace

void ConfigureFactoryForSpec(const std::string& name,
                             harness::WorkloadFactory* factory) {
  if (name == "shootout") {
    // 1/40th-scale TPC-H: a 1024-client DSS set at default scale would
    // be ~1B trace events. The shrunk lineitem (~0.5MB) still outruns
    // the shootout's 256KB per-node SMP L2s (streaming misses feed the
    // bus) while fitting the CMP's shared 16MB L2 — the contrast the
    // grid exists to show.
    factory->tpch_config.orders = 1000;
    factory->tpch_config.customers = 100;
    factory->tpch_config.parts = 150;
    factory->tpch_config.suppliers = 10;
  }
}

std::vector<std::string> BuiltinSpecNames() {
  return {"smoke",   "smokesmp", "fig2", "fig3",  "fig4",
          "fig6",    "fig7",     "fig8", "fig8smp", "cohort",
          "sbuf",    "skew",     "burst", "tenants", "shootout"};
}

bool HasBuiltinSpec(const std::string& name) {
  for (const std::string& n : BuiltinSpecNames()) {
    if (n == name) return true;
  }
  return false;
}

SweepSpec BuiltinSpec(const std::string& name) {
  if (name == "smoke") return MakeSmoke();
  if (name == "smokesmp") return MakeSmokeSmp();
  if (name == "fig2") return MakeFig2();
  if (name == "fig3") return MakeFig3();
  if (name == "fig4") return MakeFig4();
  if (name == "fig6") return MakeFig6();
  if (name == "fig7") return MakeFig7();
  if (name == "fig8") return MakeFig8();
  if (name == "fig8smp") return MakeFig8Smp();
  if (name == "cohort") return MakeCohort();
  if (name == "sbuf") return MakeSbuf();
  if (name == "skew") return MakeSkew();
  if (name == "burst") return MakeBurst();
  if (name == "tenants") return MakeTenants();
  if (name == "shootout") return MakeShootout();
  std::fprintf(stderr, "unknown builtin sweep spec '%s'\n", name.c_str());
  std::abort();
}

}  // namespace stagedcmp::sweep
