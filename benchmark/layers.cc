// The traced run: splits host time across StagedCMP's modules from the
// outside, by timing calls into their public functions. Nothing inside
// src/ is instrumented, so this file depends only on public APIs:
// WorkloadWorld, the workload drivers, SaveTraceBundle / OpenTraceBundle
// / VerifyBundleSet, RunExperiment, MakeHierarchyConfig, the hierarchy
// factories and concrete types, and CmpSimulator's generic-dispatch
// fallback for hierarchy types it does not know.
//
// Build side, per distinct trace set, each in fresh WorkloadWorlds:
//   db.load              WorkloadWorld::{oltp,dss,ycsb}_db()
//   workload.record      WorkloadWorld::Build with the database loaded
//   trace.exec_untraced  the same driver request sequence, tracer off
// then sweep.bundle_save / sweep.bundle_open / sweep.bundle_verify over
// the grid's sets.
//
// Replay side, per cell, on the sets the mapped bundle serves:
//   harness.run_experiment  RunExperiment: coresim and memsim together
//   bench.record            the same replay through CmpSimulator over a
//                           forwarding hierarchy that logs every call
//   memsim.drive            the logged calls driven into a fresh
//                           hierarchy through its final type (inlined)
// coresim self time = run_experiment - drive.
//
// Spans nest workload -> set|cell -> layer; layer spans are leaves, so
// their duration is their self time. Per-layer metrics are sums of span
// durations by name.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/arena.h"
#include "common/rng.h"
#include "common/trace_span.h"
#include "coresim/cmp.h"
#include "harness/world.h"
#include "sweep/trace_bundle.h"

namespace stagedcmp::bench {
namespace {

using harness::WorkloadKind;

constexpr int kL1 = static_cast<int>(memsim::AccessClass::kL1Hit);
constexpr int kL2 = static_cast<int>(memsim::AccessClass::kL2Hit);
constexpr int kOff = static_cast<int>(memsim::AccessClass::kOffChip);
constexpr int kCoh = static_cast<int>(memsim::AccessClass::kCoherence);
constexpr int kClasses = SimTotals::kClasses;

workload::Database* LoadDb(harness::WorkloadWorld* world, WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kOltp: return world->oltp_db();
    case WorkloadKind::kDss: return world->dss_db();
    case WorkloadKind::kYcsb: return world->ycsb_db();
  }
  return nullptr;
}

/// WorkloadWorld::Build's per-client driver loop (harness/world.cc) with
/// the tracer disabled: the engine work a build does, minus recording.
/// It must issue the same requests as world.cc; keep the two in step.
void RunUntraced(harness::WorkloadWorld* world,
                 const harness::TraceSetConfig& cfg,
                 const harness::WorkloadFactory& f) {
  workload::Database* db = LoadDb(world, cfg.workload);
  for (uint32_t c = 0; c < cfg.clients; ++c) {
    trace::Tracer tracer(&world->regions());
    tracer.set_enabled(false);
    const uint64_t seed = cfg.seed * 7919 + c * 104729 + 13;
    if (cfg.workload == WorkloadKind::kYcsb) {
      workload::YcsbDriver driver(db, f.ycsb_config, cfg.traffic, seed);
      for (uint32_t r = 0; r < cfg.requests_per_client; ++r) {
        driver.RunOne(&tracer, cfg.engine != harness::EngineMode::kVolcano);
      }
      continue;
    }
    workload::TrafficShaper shaper(
        cfg.traffic,
        cfg.workload == WorkloadKind::kOltp ? f.tpcc_config.warehouses : 1,
        seed * 31 + 7);
    if (cfg.workload == WorkloadKind::kOltp) {
      workload::TpccDriver driver(
          db, f.tpcc_config, 1 + (c / 2) % f.tpcc_config.warehouses, seed);
      for (uint32_t r = 0; r < cfg.requests_per_client; ++r) {
        shaper.BeforeRequest(&tracer);
        if (cfg.traffic.shapes_keys()) {
          driver.set_home_warehouse(
              1 + static_cast<uint32_t>(shaper.NextKey()));
        }
        driver.RunOne(&tracer);
      }
    } else if (cfg.engine == harness::EngineMode::kVolcano) {
      workload::TpchDriver driver(db, seed);
      for (uint32_t skip = 0; skip < c % 6; ++skip) driver.RunOne(nullptr);
      for (uint32_t r = 0; r < cfg.requests_per_client; ++r) {
        shaper.BeforeRequest(&tracer);
        driver.RunOne(&tracer);
      }
    } else {
      Rng rng(seed);
      Arena scratch(1 << 20);
      const uint32_t pt =
          cfg.engine == harness::EngineMode::kStagedTuple ? 1 : 0;
      for (uint32_t r = 0; r < cfg.requests_per_client; ++r) {
        shaper.BeforeRequest(&tracer);
        const workload::TpchQuery q = (r + c) % 2 == 0
                                          ? workload::TpchQuery::kQ1
                                          : workload::TpchQuery::kQ6;
        auto pipeline = workload::BuildTpchStagedPlan(db, q, &rng, pt);
        db::ExecContext ctx;
        ctx.tracer = &tracer;
        ctx.temp = &scratch;
        pipeline->Run(&ctx);
        tracer.EndRequest();
      }
    }
  }
}

/// One logged hierarchy call.
struct MemCall {
  enum Op : uint32_t { kRead, kWrite, kInstr, kReset };
  uint64_t addr;
  uint64_t now;
  uint32_t core;
  Op op;
};

/// Forwards every call to `inner` and logs the ones that change state.
/// CmpSimulator does not know this type, so it replays through its
/// generic virtual-dispatch engine.
class RecordingHierarchy final : public memsim::MemoryHierarchy {
 public:
  RecordingHierarchy(memsim::MemoryHierarchy* inner,
                     std::vector<MemCall>* log)
      : inner_(inner), log_(log) {}

  memsim::AccessResult AccessData(uint32_t core, uint64_t addr,
                                  bool is_write, uint64_t now) override {
    log_->push_back(
        {addr, now, core, is_write ? MemCall::kWrite : MemCall::kRead});
    return inner_->AccessData(core, addr, is_write, now);
  }
  memsim::AccessResult AccessInstr(uint32_t core, uint64_t addr,
                                   uint64_t now) override {
    log_->push_back({addr, now, core, MemCall::kInstr});
    return inner_->AccessInstr(core, addr, now);
  }
  const memsim::HierarchyStats& stats() const override {
    return inner_->stats();
  }
  const memsim::HierarchyConfig& config() const override {
    return inner_->config();
  }
  void ResetStats() override {
    log_->push_back({0, 0, 0, MemCall::kReset});
    inner_->ResetStats();
  }
  double L1DHitRate() const override { return inner_->L1DHitRate(); }
  double L1IHitRate() const override { return inner_->L1IHitRate(); }
  double L2HitRate() const override { return inner_->L2HitRate(); }

 private:
  memsim::MemoryHierarchy* inner_;
  std::vector<MemCall>* log_;
};

/// The hierarchy RunExperiment builds for `e`.
std::unique_ptr<memsim::MemoryHierarchy> MakeHierarchy(
    const harness::ExperimentConfig& e) {
  const memsim::HierarchyConfig hc = harness::MakeHierarchyConfig(e);
  return e.topology == harness::Topology::kCmpShared
             ? memsim::MakeCmpHierarchy(hc)
             : memsim::MakeSmpHierarchy(hc);
}

/// RunExperiment's replay of one cell, over a RecordingHierarchy.
coresim::SimResult RecordReplay(const harness::ExperimentConfig& e,
                                const harness::TraceSet& set,
                                std::vector<MemCall>* log) {
  std::unique_ptr<memsim::MemoryHierarchy> inner = MakeHierarchy(e);
  RecordingHierarchy rec(inner.get(), log);
  coresim::SimConfig sc;
  sc.core = harness::MakeCoreParams(e.camp);
  sc.num_cores = e.cores;
  sc.loop_traces = e.saturated;
  sc.max_instructions = e.saturated ? e.measure_instructions : 0;
  sc.warmup_instructions = e.saturated ? e.warmup_instructions : 0;
  sc.tenant_a_clients = set.tenant_a_clients;
  return coresim::CmpSimulator(sc, &rec, set.Pointers()).Run();
}

template <typename H>
void Drive(H* h, const std::vector<MemCall>& log) {
  for (const MemCall& c : log) {
    switch (c.op) {
      case MemCall::kRead: h->AccessData(c.core, c.addr, false, c.now); break;
      case MemCall::kWrite: h->AccessData(c.core, c.addr, true, c.now); break;
      case MemCall::kInstr: h->AccessInstr(c.core, c.addr, c.now); break;
      case MemCall::kReset: h->ResetStats(); break;
    }
  }
}

/// Drives `log` into a fresh hierarchy for `e` through its concrete,
/// final type, so every call devirtualizes and inlines as in the
/// runner's replay. False for a hierarchy type not listed here.
bool DriveFresh(const harness::ExperimentConfig& e,
                const std::vector<MemCall>& log,
                memsim::HierarchyStats* stats) {
  std::unique_ptr<memsim::MemoryHierarchy> h = MakeHierarchy(e);
  if (auto* p = dynamic_cast<memsim::SharedL2Hierarchy*>(h.get())) {
    Drive(p, log);
  } else if (auto* p = dynamic_cast<memsim::SharedL2HierarchyWide*>(h.get())) {
    Drive(p, log);
  } else if (auto* p = dynamic_cast<memsim::PrivateL2Hierarchy*>(h.get())) {
    Drive(p, log);
  } else if (auto* p =
                 dynamic_cast<memsim::PrivateL2HierarchyWide*>(h.get())) {
    Drive(p, log);
  } else {
    return false;
  }
  *stats = h->stats();
  return true;
}

void AppendNum(std::string* s, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g,", v);
  *s += buf;
}

/// Every counter of a HierarchyStats, printed exactly.
std::string StatsKey(const memsim::HierarchyStats& m) {
  std::string s;
  for (int c = 0; c < kClasses; ++c) {
    AppendNum(&s, static_cast<double>(m.data_count[c]));
    AppendNum(&s, static_cast<double>(m.instr_count[c]));
  }
  for (uint64_t v : {m.l1_to_l1_transfers, m.invalidations, m.writebacks,
                     m.queue_delay.count(), m.queue_delay.sum(),
                     m.bus_transactions, m.bus_busy_cycles,
                     m.bus_peak_queue}) {
    AppendNum(&s, static_cast<double>(v));
  }
  return s;
}

/// Every field of a single-tenant SimResult, printed exactly.
std::string ResultKey(const coresim::SimResult& r) {
  std::string s;
  for (double v : {static_cast<double>(r.instructions),
                   static_cast<double>(r.elapsed_cycles),
                   static_cast<double>(r.requests_completed),
                   r.avg_response_cycles,
                   static_cast<double>(r.events_replayed), r.l1d_hit_rate,
                   r.l1i_hit_rate, r.l2_hit_rate}) {
    AppendNum(&s, v);
  }
  for (double v : r.breakdown.cycles) AppendNum(&s, v);
  return s + StatsKey(r.mem);
}

double FileMb(const std::string& path) {
  const int64_t bytes = sweep::BundleFileBytes(path);
  return bytes > 0 ? static_cast<double>(bytes) / (1 << 20) : 0.0;
}

}  // namespace

std::vector<Metric> RunTraced(Workload& w, const std::string& bundle,
                              const std::string& trace_out, Checks* checks,
                              Counts* exact) {
  TraceCollector tc;
  tc.NameThisThread("main");
  TraceSpan workload_span(&tc, "workload", w.name);
  auto cell_args = [](size_t i) {
    return "{\"cell\": " + std::to_string(i) + "}";
  };

  std::vector<size_t> cfg_of;
  const std::vector<sweep::Cell> cells = w.spec.Expand();
  const std::vector<harness::TraceSetConfig> configs =
      DistinctConfigs(cells, &cfg_of);

  // Build side.
  uint64_t events_recorded = 0;
  {
    std::vector<harness::TraceSet> built;
    for (size_t j = 0; j < configs.size(); ++j) {
      const harness::TraceSetConfig& cfg = configs[j];
      TraceSpan set_span(&tc, "set", "set", cell_args(j));
      {
        harness::WorkloadWorld world(w.factory.tpcc_config,
                                     w.factory.tpch_config,
                                     w.factory.ycsb_config);
        {
          TraceSpan span(&tc, "layer", "db.load");
          LoadDb(&world, cfg.workload);
        }
        TraceSpan span(&tc, "layer", "workload.record");
        built.push_back(world.Build(cfg));
      }
      events_recorded += built.back().total_events;
      harness::WorkloadWorld world(w.factory.tpcc_config,
                                   w.factory.tpch_config,
                                   w.factory.ycsb_config);
      LoadDb(&world, cfg.workload);
      TraceSpan span(&tc, "layer", "trace.exec_untraced");
      RunUntraced(&world, cfg, w.factory);
    }
    std::vector<const harness::TraceSet*> ptrs;
    for (const harness::TraceSet& s : built) ptrs.push_back(&s);
    TraceSpan span(&tc, "layer", "sweep.bundle_save");
    checks->Expect(sweep::SaveTraceBundle(bundle, w.factory, ptrs),
                   w.name + " bundle saved");
  }
  const double bundle_mb = FileMb(bundle);

  // One untraced Run for the runner's own overhead and the tracing
  // overhead base: warm from the bundle just saved, or cold.
  if (!w.warm) std::remove(bundle.c_str());
  sweep::SweepReport run;
  {
    TraceSpan span(&tc, "bench", "sweep.run");
    run = RunGrid(w, bundle, checks);
  }
  checks->Expect(run.bundle == (w.warm ? "warm" : "cold"),
                 w.name + " untraced run bundle state");
  double cells_sim_s = 0.0;
  for (const sweep::CellResult& c : run.cells) cells_sim_s += c.sim_wall_seconds;

  sweep::BundleOpenResult open;
  {
    TraceSpan span(&tc, "layer", "sweep.bundle_open");
    open = sweep::OpenTraceBundle(bundle, w.factory, configs);
  }
  checks->Expect(open.mode == "mmap" && open.sets.size() == configs.size(),
                 w.name + " bundle reopened through mmap");
  if (open.mode != "mmap" || open.sets.size() != configs.size()) return {};
  {
    TraceSpan span(&tc, "layer", "sweep.bundle_verify");
    for (size_t j = 0; j < configs.size(); ++j) {
      checks->Expect(sweep::VerifyBundleSet(open.sets[j], open.checksums[j]),
                     w.name + " bundle set " + std::to_string(j) +
                         " verified");
    }
  }

  // Replay side.
  SimTotals sim;
  uint64_t reads = 0, writes = 0, fetches = 0;
  std::vector<MemCall> log;
  for (size_t i = 0; i < cells.size(); ++i) {
    const harness::ExperimentConfig& e = cells[i].exp;
    const harness::TraceSet& set = open.sets[cfg_of[i]];
    const std::string cell = w.name + " cell " + std::to_string(i);
    TraceSpan cell_span(&tc, "cell", "cell", cell_args(i));
    coresim::SimResult direct;
    {
      TraceSpan span(&tc, "layer", "harness.run_experiment");
      direct = harness::RunExperiment(e, set);
    }
    log.clear();
    coresim::SimResult recorded;
    {
      TraceSpan span(&tc, "bench", "bench.record");
      recorded = RecordReplay(e, set, &log);
    }
    checks->Expect(ResultKey(recorded) == ResultKey(direct),
                   cell + ": recorded replay equals RunExperiment");
    memsim::HierarchyStats driven;
    bool drove = false;
    {
      TraceSpan span(&tc, "layer", "memsim.drive");
      drove = DriveFresh(e, log, &driven);
    }
    checks->Expect(drove && StatsKey(driven) == StatsKey(direct.mem),
                   cell + ": driven hierarchy stats equal SimResult.mem");
    sim.Add(direct);
    for (const MemCall& c : log) {
      reads += c.op == MemCall::kRead;
      writes += c.op == MemCall::kWrite;
      fetches += c.op == MemCall::kInstr;
    }
  }
  workload_span.End();

  std::map<std::string, double> total, longest;
  for (const TraceCollector::Event& ev : tc.SortedEvents()) {
    const double s = static_cast<double>(ev.dur) / 1e6;
    total[ev.name] += s;
    longest[ev.name] = std::max(longest[ev.name], s);
  }
  if (!trace_out.empty()) {
    std::ofstream os(trace_out);
    tc.WriteJson(os);
    checks->Expect(static_cast<bool>(os), "trace written to " + trace_out);
  }

  *exact = {{"memsim.coherence", sim.data[kCoh] + sim.instr[kCoh]},
            {"memsim.l1_to_l1_transfers", sim.l1_to_l1},
            {"memsim.writebacks", sim.writebacks},
            {"memsim.bus_transactions", sim.bus_transactions},
            {"memsim.bus_busy_cycles", sim.bus_busy_cycles}};

  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  const double record_s = total["workload.record"];
  const double replay_s = total["harness.run_experiment"];
  const double drive_s = total["memsim.drive"];
  const double self_s = replay_s - drive_s;
  const double events = d(sim.events);
  const double calls = d(reads + writes + fetches);
  const uint64_t data_past_l1 =
      sim.data[kL2] + sim.data[kOff] + sim.data[kCoh];
  return {
      {"db.load_s", "s", {total["db.load"]}},
      {"workload.record_s", "s", {record_s}},
      {"workload.events_recorded", "count", {d(events_recorded)}},
      {"workload.record_ns_per_event", "ns",
       {ratio(record_s * 1e9, d(events_recorded))}},
      {"trace.exec_untraced_s", "s", {total["trace.exec_untraced"]}},
      {"trace.overhead_ratio", "ratio",
       {ratio(record_s, total["trace.exec_untraced"])}},
      {"sweep.bundle_save_s", "s", {total["sweep.bundle_save"]}},
      {"sweep.bundle_mb", "MB", {bundle_mb}},
      {"sweep.bundle_open_s", "s", {total["sweep.bundle_open"]}},
      {"sweep.bundle_verify_s", "s", {total["sweep.bundle_verify"]}},
      {"sweep.pipeline_s", "s", {run.wall_seconds - cells_sim_s}},
      {"coresim.replay_s", "s", {replay_s}},
      {"coresim.events", "count", {events}},
      {"coresim.ns_per_event", "ns", {ratio(replay_s * 1e9, events)}},
      {"coresim.self_s", "s", {self_s}},
      {"coresim.self_ns_per_event", "ns", {ratio(self_s * 1e9, events)}},
      {"coresim.self_share", "ratio", {ratio(self_s, replay_s)}},
      {"coresim.cell_max_s", "s", {longest["harness.run_experiment"]}},
      {"memsim.drive_s", "s", {drive_s}},
      {"memsim.calls", "count", {calls}},
      {"memsim.data_reads", "count", {d(reads)}},
      {"memsim.data_writes", "count", {d(writes)}},
      {"memsim.instr_fetches", "count", {d(fetches)}},
      {"memsim.ns_per_call", "ns", {ratio(drive_s * 1e9, calls)}},
      {"memsim.share", "ratio", {ratio(drive_s, replay_s)}},
      {"memsim.l1d_hit_ratio", "ratio",
       {ratio(d(sim.data[kL1]), d(data_past_l1 + sim.data[kL1]))}},
      {"memsim.l1i_hit_ratio", "ratio",
       {ratio(d(sim.instr[kL1]),
              d(sim.instr[kL1] + sim.instr[kL2] + sim.instr[kOff]))}},
      {"memsim.l2_hit_ratio", "ratio",
       {ratio(d(sim.data[kL2]), d(data_past_l1))}},
      {"memsim.offchip", "count", {d(sim.data[kOff] + sim.instr[kOff])}},
      {"memsim.invalidations", "count", {d(sim.invalidations)}},
      {"memsim.queue_delay_mean_cycles", "cycles",
       {ratio(d(sim.queue_sum), d(sim.queue_count))}},
      {"sim.uipc", "instr/cycle",
       {ratio(d(sim.instructions), d(sim.cycles))}},
      {"sim.cpi", "cycles/instr",
       {ratio(sim.attributed_cycles, d(sim.instructions))}},
      {"sim.instructions", "count", {d(sim.instructions)}},
      {"sim.elapsed_cycles", "cycles", {d(sim.cycles)}},
      {"bench.tracing_overhead_ratio", "ratio",
       {ratio(total["cell"], run.wall_seconds)}},
  };
}

}  // namespace stagedcmp::bench
