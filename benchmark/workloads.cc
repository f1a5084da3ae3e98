#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <sstream>

#include "sweep/sinks.h"
#include "sweep/trace_cache.h"

namespace stagedcmp::bench {

namespace {

using harness::WorkloadKind;
using AxisValue = sweep::SweepSpec::AxisValue;

std::vector<AxisValue> CampAxis() {
  return {{"FC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kFat; }},
          {"LC", [](sweep::Cell& c) { c.exp.camp = coresim::Camp::kLean; }}};
}

/// {OLTP, DSS} over saturated trace sets: OLTP `oltp_txns` transactions
/// per client, DSS one query per client.
std::vector<AxisValue> OltpDssAxis(uint64_t seed, uint32_t oltp_txns) {
  return {{"OLTP",
           [seed, oltp_txns](sweep::Cell& c) {
             c.trace.workload = WorkloadKind::kOltp;
             c.trace.requests_per_client = oltp_txns;
             c.trace.seed = seed;
           }},
          {"DSS", [seed](sweep::Cell& c) {
             c.trace.workload = WorkloadKind::kDss;
             c.trace.requests_per_client = 1;
             c.trace.seed = seed;
           }}};
}

/// Machine-size axis under the fig8 saturation rule: `clients_per_node`
/// clients per core/node and a measured window that grows with the
/// machine, so every node commits about the same work.
std::vector<AxisValue> NodesAxis(std::vector<uint32_t> sizes,
                                 uint32_t clients_per_node,
                                 uint64_t instr_per_node) {
  std::vector<AxisValue> out;
  for (uint32_t n : sizes) {
    out.push_back({std::to_string(n), [=](sweep::Cell& c) {
                     c.exp.cores = n;
                     c.exp.measure_instructions = instr_per_node * n;
                     c.trace.clients = clients_per_node * n;
                   }});
  }
  return out;
}

// The paper's fat-vs-lean CMP comparison. Replay host time splits about
// 60/40 between coresim and the CMP memsim (L1s, shared L2, L1
// directory); the core-pick scan is trivial at <= 16 cores.
Workload CmpReplay(uint64_t seed) {
  Workload w;
  w.name = "cmp-replay";
  sweep::SweepSpec& s = w.spec;
  s = sweep::SweepSpec(w.name, "{OLTP,DSS} x {FC,LC} x cores {4,8,16}, "
                               "shared 16MB L2");
  s.base_exp.topology = harness::Topology::kCmpShared;
  s.base_exp.l2_bytes = 16ull << 20;
  s.base_exp.saturated = true;
  s.base_exp.warmup_instructions = 1'000'000;
  s.AddAxis("workload", OltpDssAxis(seed, 16));
  s.AddAxis("camp", CampAxis());
  s.AddAxis("cores", NodesAxis({4, 8, 16}, 3, 750'000));
  return w;
}

// The shootout's CMP-OLTP column: one client per tile. coresim
// scheduling (the per-step core pick) dominates at hundreds of tiles and
// memsim is a few percent, so a scheduler change shows here and should
// leave cmp-replay flat.
Workload ManycoreReplay(uint64_t seed) {
  Workload w;
  w.name = "manycore-replay";
  sweep::SweepSpec& s = w.spec;
  s = sweep::SweepSpec(w.name, "OLTP on a shared-L2 CMP, tiles "
                               "{64,256,1024}, one client per tile");
  s.base_exp.camp = coresim::Camp::kFat;
  s.base_exp.topology = harness::Topology::kCmpShared;
  s.base_exp.l2_bytes = 16ull << 20;
  s.base_exp.saturated = true;
  s.base_trace.workload = WorkloadKind::kOltp;
  s.base_trace.requests_per_client = 2;
  s.base_trace.seed = seed;
  std::vector<AxisValue> tiles;
  for (uint32_t n : {64u, 256u, 1024u}) {
    tiles.push_back({std::to_string(n), [n](sweep::Cell& c) {
                       c.exp.cores = n;
                       c.trace.clients = n;
                       c.exp.measure_instructions = 6'000ull * n;
                       c.exp.warmup_instructions = 3'000ull * n;
                       c.exp.l2_ports = std::max(8u, n / 4);
                     }});
  }
  s.AddAxis("tiles", std::move(tiles));
  return w;
}

// memsim's SMP side: OLTP write sharing drives directory upgrades,
// invalidations, writebacks and bus queueing next to DSS streaming
// reads. A CMP-only memsim change should leave it flat.
Workload SmpCoherence(uint64_t seed) {
  Workload w;
  w.name = "smp-coherence";
  sweep::SweepSpec& s = w.spec;
  s = sweep::SweepSpec(w.name, "{OLTP,DSS} x nodes {8,32} on the SMP, 1MB "
                               "private L2 per node, shared-bus model on");
  s.base_exp.camp = coresim::Camp::kFat;
  s.base_exp.topology = harness::Topology::kSmpPrivate;
  s.base_exp.l2_bytes = 1ull << 20;  // per node
  s.base_exp.smp_bus_model = true;
  s.base_exp.saturated = true;
  s.base_exp.warmup_instructions = 1'000'000;
  s.AddAxis("workload", OltpDssAxis(seed, 16));
  s.AddAxis("nodes", NodesAxis({8, 32}, 3, 750'000));
  return w;
}

// The build side: database load, engine execution, tracer and bundle
// write, across every engine and workload kind. Replay is a tiny window;
// the warm workloads see this side only in setup_s.
Workload ColdBuild(uint64_t seed) {
  Workload w;
  w.name = "cold-build";
  w.warm = false;
  sweep::SweepSpec& s = w.spec;
  s = sweep::SweepSpec(w.name, "{OLTP, DSS volcano, DSS staged, YCSB "
                               "zipf0.99} x clients {half,full}, built "
                               "cold every rep");
  s.base_exp.camp = coresim::Camp::kFat;
  s.base_exp.cores = 4;
  s.base_exp.l2_bytes = 4ull << 20;
  s.base_exp.saturated = true;
  s.base_exp.measure_instructions = 1'000'000;
  s.base_exp.warmup_instructions = 500'000;
  s.base_trace.seed = seed;
  struct Set {
    const char* name;
    WorkloadKind kind;
    harness::EngineMode engine;
    uint32_t requests;
    uint32_t full_clients;
  };
  static const Set kSets[] = {
      {"OLTP", WorkloadKind::kOltp, harness::EngineMode::kVolcano, 128, 64},
      {"DSS-volcano", WorkloadKind::kDss, harness::EngineMode::kVolcano, 1,
       24},
      {"DSS-staged", WorkloadKind::kDss, harness::EngineMode::kStagedCohort,
       1, 8},
      {"YCSB-zipf", WorkloadKind::kYcsb, harness::EngineMode::kVolcano, 256,
       64},
  };
  std::vector<AxisValue> sets;
  for (const Set& set : kSets) {
    sets.push_back({set.name, [set](sweep::Cell& c) {
                      c.trace.workload = set.kind;
                      c.trace.engine = set.engine;
                      c.trace.requests_per_client = set.requests;
                      c.trace.clients = set.full_clients;
                      if (set.kind == WorkloadKind::kYcsb) {
                        c.trace.traffic.key_dist = workload::KeyDist::kZipfian;
                        c.trace.traffic.zipf_theta = 0.99;
                      }
                    }});
  }
  s.AddAxis("set", std::move(sets));
  s.AddAxis("clients",
            {{"half", [](sweep::Cell& c) { c.trace.clients /= 2; }},
             {"full", [](sweep::Cell&) {}}});
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "cmp-replay", "manycore-replay", "smp-coherence", "cold-build"};
  return kNames;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  if (name == "cmp-replay") {
    *out = CmpReplay(seed);
  } else if (name == "manycore-replay") {
    *out = ManycoreReplay(seed);
  } else if (name == "smp-coherence") {
    *out = SmpCoherence(seed);
  } else if (name == "cold-build") {
    *out = ColdBuild(seed);
  } else {
    return false;
  }
  // Quarter-scale TPC-H (lineitem ~5MB): one default-scale DSS query
  // records ~750k events, of which a saturated replay window reads a few
  // percent, so full scale would spend the setup runs writing bundle
  // bytes nobody replays. Lineitem still outruns the SMP's 1MB private
  // L2s and stays primary-set resident in the CMP's shared L2 (the
  // paper's DSS-on-CMP regime).
  workload::TpchConfig& tpch = out->factory.tpch_config;
  tpch.orders /= 4;
  tpch.customers /= 4;
  tpch.parts /= 4;
  tpch.suppliers /= 4;
  return true;
}

std::vector<harness::TraceSetConfig> DistinctConfigs(
    const std::vector<sweep::Cell>& cells, std::vector<size_t>* cfg_of) {
  std::vector<harness::TraceSetConfig> out;
  cfg_of->assign(cells.size(), 0);
  for (size_t i = 0; i < cells.size(); ++i) {
    const auto key = sweep::TraceSetCache::MakeKey(cells[i].trace);
    size_t j = 0;
    while (j < out.size() && sweep::TraceSetCache::MakeKey(out[j]) != key) ++j;
    if (j == out.size()) out.push_back(cells[i].trace);
    (*cfg_of)[i] = j;
  }
  return out;
}

void Checks::Expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
}

sweep::SweepReport RunGrid(Workload& w, const std::string& bundle,
                           Checks* checks) {
  sweep::RunnerOptions options;
  options.threads = 1;
  options.trace_bundle = bundle;
  sweep::SweepRunner runner(&w.factory, options);
  sweep::SweepReport report;
  try {
    report = runner.Run(w.spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: sweep failed: %s\n", w.name.c_str(), e.what());
    const uint64_t cells = w.spec.Expand().size();
    checks->attempted += cells;
    checks->failed += cells;
    return sweep::SweepReport();
  }
  for (const sweep::CellResult& c : report.cells) {
    checks->Expect(c.result.events_replayed > 0 && c.result.instructions > 0,
                   w.name + " cell " + std::to_string(c.cell.index) +
                       " replayed work");
  }
  return report;
}

void SimTotals::Add(const coresim::SimResult& r) {
  const memsim::HierarchyStats& m = r.mem;
  events += r.events_replayed;
  instructions += r.instructions;
  cycles += r.elapsed_cycles;
  attributed_cycles += r.breakdown.total();
  for (int k = 0; k < kClasses; ++k) {
    data[k] += m.data_count[k];
    instr[k] += m.instr_count[k];
  }
  invalidations += m.invalidations;
  writebacks += m.writebacks;
  l1_to_l1 += m.l1_to_l1_transfers;
  bus_transactions += m.bus_transactions;
  bus_busy_cycles += m.bus_busy_cycles;
  queue_count += m.queue_delay.count();
  queue_sum += m.queue_delay.sum();
}

std::string SinkJson(const sweep::SweepReport& report) {
  std::ostringstream os;
  sweep::MakeSink("json", /*include_timing=*/false)->Emit(report, os);
  return os.str();
}

}  // namespace stagedcmp::bench
