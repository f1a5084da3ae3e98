#include "harness/world.h"

#include "workload/traffic.h"
#include "workload/ycsb.h"

namespace stagedcmp::harness {

workload::Database* WorkloadWorld::DbFor(WorkloadKind kind, bool tenant_b) {
  std::unique_ptr<workload::Database>& slot =
      dbs_[tenant_b ? 1 : 0][static_cast<size_t>(kind)];
  if (!slot) {
    slot = std::make_unique<workload::Database>(&space_);
    switch (kind) {
      case WorkloadKind::kOltp:
        workload::TpccLoad(slot.get(), tpcc_config_);
        break;
      case WorkloadKind::kDss:
        workload::TpchLoad(slot.get(), tpch_config_);
        break;
      case WorkloadKind::kYcsb:
        workload::YcsbLoad(slot.get(), ycsb_config_);
        break;
    }
  }
  return slot.get();
}

void WorkloadWorld::BuildClient(const TraceSetConfig& config,
                                WorkloadKind kind, bool tenant_b,
                                uint32_t c, trace::Tracer* tracer) {
  const uint64_t seed = config.seed * 7919 + c * 104729 + 13;
  workload::Database* db = DbFor(kind, tenant_b);

  if (kind == WorkloadKind::kYcsb) {
    // The YCSB driver owns its shaper (keys *and* arrival), since key
    // popularity addresses its record space directly.
    workload::YcsbDriver driver(db, ycsb_config_, config.traffic, seed);
    const bool staged = config.engine != EngineMode::kVolcano;
    for (uint32_t r = 0; r < config.requests_per_client; ++r) {
      driver.RunOne(tracer, staged);
    }
    workload::FoldYcsbMetrics(driver, metrics_);
    return;
  }

  // TPC drivers compose with an external shaper. The shaper's Rng is
  // derived from the client seed but separate from the driver's, so
  // enabling arrival shaping alone never perturbs the driver's draws —
  // and an unshaped config records the historical bytes exactly.
  workload::TrafficShaper shaper(
      config.traffic,
      kind == WorkloadKind::kOltp ? tpcc_config_.warehouses : 1,
      seed * 31 + 7);

  if (kind == WorkloadKind::kOltp) {
    // Adjacent clients share a home warehouse but land on different
    // cores/nodes in the simulator's round-robin placement, so warehouse
    // -local structures (districts, stock) are genuinely write-shared
    // across nodes — the coherence traffic Figure 7 depends on.
    workload::TpccDriver driver(db, tpcc_config_,
                                1 + (c / 2) % tpcc_config_.warehouses, seed);
    for (uint32_t r = 0; r < config.requests_per_client; ++r) {
      shaper.BeforeRequest(tracer);
      if (config.traffic.shapes_keys()) {
        // Skewed traffic: each transaction targets a shaper-drawn (hot)
        // warehouse instead of the fixed home terminal.
        driver.set_home_warehouse(
            1 + static_cast<uint32_t>(shaper.NextKey()));
      }
      driver.RunOne(tracer);
    }
  } else if (config.engine == EngineMode::kVolcano) {
    workload::TpchDriver driver(db, seed);
    // Rotate the starting point of the mix by client so a trace set
    // collectively covers Q1/Q6/Q13/Q16 like the paper's 16 clients.
    for (uint32_t skip = 0; skip < c % 6; ++skip) driver.RunOne(nullptr);
    for (uint32_t r = 0; r < config.requests_per_client; ++r) {
      shaper.BeforeRequest(tracer);
      driver.RunOne(tracer);
    }
  } else {
    // Staged engine path (scan queries; ablation A1).
    Rng rng(seed);
    Arena scratch(&space_, 1 << 20);  // per-client, bump-allocated (no reuse)
    const uint32_t pt = config.engine == EngineMode::kStagedTuple ? 1 : 0;
    for (uint32_t r = 0; r < config.requests_per_client; ++r) {
      shaper.BeforeRequest(tracer);
      const workload::TpchQuery q = (r + c) % 2 == 0
                                        ? workload::TpchQuery::kQ1
                                        : workload::TpchQuery::kQ6;
      auto pipeline = workload::BuildTpchStagedPlan(db, q, &rng, pt);
      db::ExecContext ctx;
      ctx.tracer = tracer;
      ctx.temp = &scratch;
      pipeline->Run(&ctx);
      tracer->EndRequest();
    }
  }
  workload::FoldTrafficMetrics(shaper.stats(), metrics_);
}

TraceSet WorkloadWorld::Build(const TraceSetConfig& config,
                              const TraceSink& sink) {
  TraceSet out;
  out.config = config;
  const uint32_t total_clients = TotalClients(config);
  out.tenant_a_clients = TenantAClients(config);
  out.traces.reserve(total_clients);

  // One tracer records every client, so the set's payloads pack into
  // shared chunks (trace/events.h) — or, with a sink, each client reuses
  // the storage of the one before it.
  trace::Tracer tracer(&regions_, &space_);
  for (uint32_t c = 0; c < total_clients; ++c) {
    const bool tenant_b = c >= config.clients;
    const WorkloadKind kind =
        tenant_b ? config.tenant2_workload : config.workload;
    BuildClient(config, kind, tenant_b, c, &tracer);
    trace::ClientTrace t = tracer.TakeTrace();
    out.total_instructions += t.total_instructions;
    out.total_events += t.events_size();
    if (sink) {
      sink(t);
      t.SetPayload(nullptr, t.events_size(), t.encoded_bytes());  // hollow
    }
    out.traces.push_back(std::move(t));
  }
  if (metrics_ != nullptr) {
    metrics_->counter("trace.unmapped_addresses")
        .Add(tracer.unmapped_addresses());
  }
  return out;
}

}  // namespace stagedcmp::harness
