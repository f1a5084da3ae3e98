// Shared fixtures for the scenario-matrix and determinism tests: a
// tiny-scale workload factory with cached trace sets, mixed-workload
// composition, hardware-camp presets, and trace-level analysis helpers.
#ifndef STAGEDCMP_TESTS_SCENARIO_UTIL_H_
#define STAGEDCMP_TESTS_SCENARIO_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/table_printer.h"
#include "harness/experiment.h"
#include "trace/cost_model.h"

namespace stagedcmp::scenario {

/// Workload axis of the matrix. kMixed interleaves OLTP and DSS clients on
/// the same chip — the consolidation case the paper motivates CMPs with.
enum class Mix : uint8_t { kOltp, kDss, kMixed };

/// Hardware axis: the paper's two camps as whole-machine presets.
enum class Hardware : uint8_t {
  kSmpFewFat,   ///< 4 fat OoO cores, private per-node L2s, MESI
  kCmpManyLean  ///< 8 lean multithreaded cores, one shared on-chip L2
};

/// Executor axis: Volcano tuple-at-a-time vs staged cohort scheduling.
/// (Only DSS traces are regenerated per engine; OLTP always runs the
/// native transaction path.)
enum class Executor : uint8_t { kUnstaged, kStagedCohort };

inline const char* MixName(Mix m) {
  switch (m) {
    case Mix::kOltp: return "oltp";
    case Mix::kDss: return "dss";
    case Mix::kMixed: return "mixed";
  }
  return "?";
}

inline const char* HardwareName(Hardware h) {
  return h == Hardware::kSmpFewFat ? "smp-few-fat" : "cmp-many-lean";
}

inline const char* ExecutorName(Executor e) {
  return e == Executor::kUnstaged ? "unstaged" : "staged-cohort";
}

/// Process-wide tiny-scale factory; databases load once, traces are cached
/// per (mix, executor), so the full matrix costs one build per distinct
/// trace set rather than one per scenario.
/// Tiny test scale: keeps per-suite database loads in the tens of
/// milliseconds while preserving the big-code / small-primary-working-set
/// shape the invariants depend on. Shared by the scenario matrix and the
/// from-scratch determinism goldens (which need two identical factories).
inline void ApplyTinyScale(harness::WorkloadFactory* f) {
  f->tpcc_config.warehouses = 4;
  f->tpcc_config.customers_per_district = 120;
  f->tpcc_config.items = 1000;
  f->tpcc_config.initial_orders_per_district = 30;
  f->tpch_config.orders = 4000;
  f->tpch_config.customers = 400;
  f->tpch_config.parts = 600;
  f->ycsb_config.records = 3000;
}

class TraceCache {
 public:
  static harness::WorkloadFactory* Factory() {
    static harness::WorkloadFactory* f = [] {
      auto* ff = new harness::WorkloadFactory();
      ApplyTinyScale(ff);
      return ff;
    }();
    return f;
  }

  static const harness::TraceSet& Get(Mix mix, Executor exec) {
    static std::map<std::pair<int, int>, harness::TraceSet> cache;
    auto key = std::make_pair(static_cast<int>(mix), static_cast<int>(exec));
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
    return cache.emplace(key, Build(mix, exec)).first->second;
  }

 private:
  static harness::TraceSetConfig Config(Mix mix, Executor exec) {
    harness::TraceSetConfig tc;
    if (mix != Mix::kOltp && exec == Executor::kStagedCohort) {
      tc.engine = harness::EngineMode::kStagedCohort;
    }
    if (mix == Mix::kDss) {
      tc.workload = harness::WorkloadKind::kDss;
      tc.clients = 8;
      tc.requests_per_client = 1;
      tc.seed = 19;
      return tc;
    }
    tc.workload = harness::WorkloadKind::kOltp;
    tc.clients = 16;
    tc.requests_per_client = 12;
    tc.seed = 17;
    if (mix == Mix::kMixed) {
      // DSS as tenant B of the same build, so both workloads record into
      // one world's address space (harness/world.h): two separately built
      // sets would alias there. Tenant B shares requests_per_client, so
      // its clients run 12 queries each.
      tc.tenant2_workload = harness::WorkloadKind::kDss;
      tc.tenant2_clients = 8;
    }
    return tc;
  }

  static harness::TraceSet Build(Mix mix, Executor exec) {
    if (mix != Mix::kMixed) return Factory()->Build(Config(mix, exec));
    // Mixed: alternate OLTP and DSS clients so the round-robin context
    // placement lands both workloads on every core. Its traces view the
    // two-tenant set, which lives as long as this cache.
    static std::map<int, harness::TraceSet> tenants;
    const harness::TraceSet& both =
        tenants
            .emplace(static_cast<int>(exec),
                     Factory()->Build(Config(Mix::kMixed, exec)))
            .first->second;
    const size_t a = both.tenant_a_clients;
    const size_t b = both.traces.size() - a;
    harness::TraceSet out;
    out.config = both.config;
    for (size_t i = 0; i < std::max(a, b); ++i) {
      if (i < a) out.traces.emplace_back().ViewOf(both.traces[i]);
      if (i < b) out.traces.emplace_back().ViewOf(both.traces[a + i]);
    }
    out.total_instructions = both.total_instructions;
    out.total_events = both.total_events;
    return out;
  }
};

/// Whole-machine preset for one hardware camp, sized for fast ctest runs.
inline harness::ExperimentConfig HardwareConfig(Hardware hw) {
  harness::ExperimentConfig ec;
  ec.measure_instructions = 2'000'000;
  ec.warmup_instructions = 500'000;
  ec.saturated = true;
  if (hw == Hardware::kSmpFewFat) {
    ec.camp = coresim::Camp::kFat;
    ec.cores = 4;
    ec.topology = harness::Topology::kSmpPrivate;
    ec.l2_bytes = 4ull << 20;  // per node
  } else {
    ec.camp = coresim::Camp::kLean;
    ec.cores = 8;
    ec.topology = harness::Topology::kCmpShared;
    ec.l2_bytes = 8ull << 20;  // shared
  }
  return ec;
}

/// The engine code regions (every RegionId up to kStageRuntime, in id
/// order), at the canonical geometry every world records with.
inline const std::vector<trace::CodeRegion>& AllRegions() {
  static const std::vector<trace::CodeRegion> regions = [] {
    const trace::RegionSet set;
    std::vector<trace::CodeRegion> v;
    for (size_t i = 0;
         i <= static_cast<size_t>(trace::RegionId::kStageRuntime); ++i) {
      v.push_back(set[static_cast<trace::RegionId>(i)]);
    }
    return v;
  }();
  return regions;
}

inline int RegionIndexOf(uint64_t pc) {
  const auto& regions = AllRegions();
  for (size_t i = 0; i < regions.size(); ++i) {
    if (pc >= regions[i].base && pc < regions[i].base + regions[i].size) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Number of operator-code-region transitions in a recorded trace — the
/// trace-level view of I-cache thrash that staging is meant to remove.
inline uint64_t CountRegionSwitches(const trace::ClientTrace& t) {
  int cur = -1;
  uint64_t switches = 0;
  for (uint64_t e : trace::DecodeEvents(t)) {
    if (trace::UnpackKind(e) != trace::EventKind::kCompute) continue;
    const int r = RegionIndexOf(trace::UnpackAddr(e));
    if (r < 0 || r == cur) continue;
    if (cur >= 0) ++switches;
    cur = r;
  }
  return switches;
}

/// Region switches per kilo-instruction over a whole trace set.
inline double RegionSwitchesPerKiloInstr(const harness::TraceSet& ts) {
  uint64_t switches = 0;
  for (const auto& t : ts.traces) switches += CountRegionSwitches(t);
  return ts.total_instructions
             ? 1000.0 * static_cast<double>(switches) /
                   static_cast<double>(ts.total_instructions)
             : 0.0;
}

/// Every event word of a trace, then its instruction and request totals:
/// two traces are the same recording exactly when these are equal.
inline std::vector<uint64_t> TraceWords(const trace::ClientTrace& t) {
  std::vector<uint64_t> out = trace::DecodeEvents(t);
  out.push_back(t.total_instructions);
  out.push_back(t.requests);
  return out;
}

/// TraceWords of every client of a set, in client order.
inline std::vector<uint64_t> SetWords(const harness::TraceSet& ts) {
  std::vector<uint64_t> out;
  for (const auto& t : ts.traces) {
    const std::vector<uint64_t> w = TraceWords(t);
    out.insert(out.end(), w.begin(), w.end());
  }
  return out;
}

/// Renders every counter of a SimResult into one stat table. Doubles are
/// printed as hexfloats so two runs compare byte-identical only if they are
/// bit-identical — the golden-determinism contract.
inline std::string StatTable(const coresim::SimResult& r) {
  std::ostringstream os;
  TablePrinter table({"stat", "value"});
  auto num = [](double v) {
    std::ostringstream s;
    s << std::hexfloat << v;
    return s.str();
  };
  table.AddRow({"instructions", std::to_string(r.instructions)});
  table.AddRow({"elapsed_cycles", std::to_string(r.elapsed_cycles)});
  table.AddRow({"requests_completed", std::to_string(r.requests_completed)});
  table.AddRow({"avg_response_cycles", num(r.avg_response_cycles)});
  table.AddRow({"l1d_hit_rate", num(r.l1d_hit_rate)});
  table.AddRow({"l1i_hit_rate", num(r.l1i_hit_rate)});
  table.AddRow({"l2_hit_rate", num(r.l2_hit_rate)});
  for (int b = 0; b < static_cast<int>(coresim::Bucket::kCount); ++b) {
    const auto bucket = static_cast<coresim::Bucket>(b);
    table.AddRow({std::string("cycles_") + coresim::BucketName(bucket),
                  num(r.breakdown.Get(bucket))});
  }
  for (int c = 0; c < static_cast<int>(memsim::AccessClass::kCount); ++c) {
    const auto cls = static_cast<memsim::AccessClass>(c);
    table.AddRow({std::string("data_") + memsim::AccessClassName(cls),
                  std::to_string(r.mem.data_count[c])});
    table.AddRow({std::string("instr_") + memsim::AccessClassName(cls),
                  std::to_string(r.mem.instr_count[c])});
  }
  table.AddRow({"l1_to_l1_transfers", std::to_string(r.mem.l1_to_l1_transfers)});
  table.AddRow({"invalidations", std::to_string(r.mem.invalidations)});
  table.AddRow({"writebacks", std::to_string(r.mem.writebacks)});
  table.Print(os);
  return os.str();
}

}  // namespace stagedcmp::scenario

#endif  // STAGEDCMP_TESTS_SCENARIO_UTIL_H_
