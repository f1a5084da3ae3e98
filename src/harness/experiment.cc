#include "harness/experiment.h"

#include <cassert>

#include "cacti/cache_model.h"
#include "harness/world.h"

namespace stagedcmp::harness {

const char* WorkloadName(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kOltp: return "OLTP";
    case WorkloadKind::kDss: return "DSS";
    case WorkloadKind::kYcsb: return "YCSB";
  }
  return "?";
}

const char* EngineModeName(EngineMode e) {
  switch (e) {
    case EngineMode::kVolcano: return "volcano";
    case EngineMode::kStagedCohort: return "staged-cohort";
    case EngineMode::kStagedTuple: return "staged-tuple";
  }
  return "?";
}

const char* LatencyModeName(LatencyMode m) {
  return m == LatencyMode::kRealistic ? "realistic" : "fixed4";
}

const char* TopologyName(Topology t) {
  return t == Topology::kCmpShared ? "cmp-shared" : "smp-private";
}

TraceSet WorkloadFactory::Build(const TraceSetConfig& config,
                                const TraceSink& sink) const {
  // A fresh world per build: private databases, canonical code layout.
  // Builds are pure functions of (config, scale knobs), so they can run
  // concurrently, and the same config always yields the same traces
  // regardless of what built before it.
  WorkloadWorld world(tpcc_config, tpch_config, ycsb_config, metrics);
  return world.Build(config, sink);
}

memsim::HierarchyConfig MakeHierarchyConfig(const ExperimentConfig& config) {
  memsim::HierarchyConfig h;
  h.num_cores = config.cores;
  h.l1i = memsim::CacheConfig{32 * 1024, 4, 64};
  h.l1d = memsim::CacheConfig{64 * 1024, 4, 64};
  h.l2 = memsim::CacheConfig{config.l2_bytes, 8, 64};
  h.lat.l1_hit = 2;
  h.lat.memory = config.memory_latency;
  if (config.latency == LatencyMode::kRealistic) {
    h.lat.l2_hit = cacti::AccessLatencyCycles(config.l2_bytes);
  } else {
    h.lat.l2_hit = 4;
  }
  h.lat.l1_transfer = h.lat.l2_hit + 4;  // through the shared fabric
  h.lat.remote_l2 = config.memory_latency - 50;
  h.stream_buffers = config.stream_buffers;
  // L2 ports scale with banking: one port per 2MB bank, between 2 and 8
  // (physical ports/status registers do not scale with capacity — the
  // Section 5.3 pressure point).
  if (config.l2_ports > 0) {
    h.l2_ports = config.l2_ports;
  } else {
    uint32_t ports = static_cast<uint32_t>(config.l2_bytes / (2 << 20));
    if (ports < 2) ports = 2;
    if (ports > 8) ports = 8;
    h.l2_ports = ports;
  }
  h.l2_port_occupancy = 6;
  // SMP shared-bus occupancy model (no effect on CMP topologies).
  h.smp_bus = config.smp_bus_model;
  return h;
}

coresim::CoreParams MakeCoreParams(coresim::Camp camp) {
  return camp == coresim::Camp::kFat ? coresim::CoreParams::Fat()
                                     : coresim::CoreParams::Lean();
}

ResolvedHardware ResolveHardware(const ExperimentConfig& config) {
  ResolvedHardware hw;
  hw.l2_hit_cycles = MakeHierarchyConfig(config).lat.l2_hit;
  hw.cores = config.cores;
  hw.contexts_per_core = MakeCoreParams(config.camp).contexts;
  return hw;
}

coresim::SimConfig MakeSimConfig(const ExperimentConfig& config,
                                 const TraceSet& traces) {
  coresim::SimConfig sc;
  sc.core = MakeCoreParams(config.camp);
  sc.num_cores = config.cores;
  sc.loop_traces = config.saturated;
  sc.max_instructions = config.saturated ? config.measure_instructions : 0;
  sc.warmup_instructions = config.saturated ? config.warmup_instructions : 0;
  sc.tenant_a_clients = traces.tenant_a_clients;
  return sc;
}

coresim::SimResult RunExperiment(const ExperimentConfig& config,
                                 const TraceSet& traces,
                                 MetricsRegistry* metrics) {
  const memsim::HierarchyConfig hc = MakeHierarchyConfig(config);
  std::unique_ptr<memsim::MemoryHierarchy> hierarchy =
      config.topology == Topology::kCmpShared ? memsim::MakeCmpHierarchy(hc)
                                              : memsim::MakeSmpHierarchy(hc);
  coresim::SimConfig sc = MakeSimConfig(config, traces);
  sc.metrics = metrics;
  return coresim::CmpSimulator(sc, hierarchy.get(), traces.Pointers()).Run();
}

}  // namespace stagedcmp::harness
