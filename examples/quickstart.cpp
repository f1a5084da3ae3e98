// Quickstart: build a tiny database, run one TPC-H-style query through the
// engine while recording a memory trace, then replay that trace on a 4-core
// fat-camp CMP and print where the execution time goes.
//
//   $ ./build/examples/quickstart
//
// This touches the whole public API surface: workload loading, trace
// capture, hierarchy configuration, and the cycle-breakdown report.
#include <cstdio>

#include "common/table_printer.h"
#include "coresim/cmp.h"
#include "harness/world.h"

using namespace stagedcmp;

int main() {
  std::printf("StagedCMP quickstart\n====================\n\n");

  // 1. Build a small DSS database and record one client running Q1 + Q6.
  workload::TpchConfig tpch;
  tpch.orders = 8000;  // small demo scale
  harness::WorkloadWorld world(workload::TpccConfig{}, tpch);
  harness::TraceSetConfig tc;
  tc.workload = harness::WorkloadKind::kDss;
  tc.clients = 4;
  tc.requests_per_client = 2;
  harness::TraceSet traces = world.Build(tc);
  std::printf("database bytes : %zu\n", world.dss_db()->data_bytes());
  std::printf("trace events   : %llu\n",
              static_cast<unsigned long long>(traces.total_events));
  std::printf("instructions   : %llu\n\n",
              static_cast<unsigned long long>(traces.total_instructions));

  // 2. Replay on a 4-core fat-camp CMP with a 16MB shared L2.
  harness::ExperimentConfig ec;
  ec.camp = coresim::Camp::kFat;
  ec.cores = 4;
  ec.l2_bytes = 16ull << 20;
  ec.saturated = true;
  ec.measure_instructions = 4'000'000;
  ec.warmup_instructions = 1'000'000;
  const harness::ResolvedHardware hw = harness::ResolveHardware(ec);
  coresim::SimResult r = harness::RunExperiment(ec, traces);

  std::printf("L2 hit latency : %u cycles (Cacti model)\n", hw.l2_hit_cycles);
  std::printf("throughput     : %.3f user instructions/cycle\n", r.uipc());
  std::printf("CPI            : %.3f\n\n", r.cpi());

  TablePrinter table({"bucket", "cycles", "fraction"});
  for (int b = 0; b < static_cast<int>(coresim::Bucket::kCount); ++b) {
    const auto bucket = static_cast<coresim::Bucket>(b);
    table.AddRow({coresim::BucketName(bucket),
                  TablePrinter::Num(r.breakdown.Get(bucket), 0),
                  TablePrinter::Pct(r.breakdown.Fraction(bucket))});
  }
  table.Print();

  std::printf("\nL1D hit rate %.1f%% | L1I hit rate %.1f%% | L2 hit rate %.1f%%\n",
              r.l1d_hit_rate * 100, r.l1i_hit_rate * 100,
              r.l2_hit_rate * 100);
  return 0;
}
