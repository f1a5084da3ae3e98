// Cache design-space explorer: interactive use of the Cacti-like model and
// the hierarchy simulator to answer "how big should the L2 be for this
// workload?" — the design question Section 5.4 raises ("caches large
// enough to capture the primary working set but not larger").
//
//   $ ./build/examples/cache_explorer [workload: oltp|dss]
#include <cstdio>
#include <cstring>

#include "cacti/cache_model.h"
#include "common/table_printer.h"
#include "harness/experiment.h"

using namespace stagedcmp;

int main(int argc, char** argv) {
  const bool oltp = argc < 2 || std::strcmp(argv[1], "oltp") == 0;

  harness::WorkloadFactory factory;
  factory.tpcc_config.warehouses = 8;
  factory.tpcc_config.customers_per_district = 600;
  factory.tpch_config.orders = 20000;

  harness::TraceSetConfig tc;
  tc.workload = oltp ? harness::WorkloadKind::kOltp
                     : harness::WorkloadKind::kDss;
  tc.clients = 16;
  tc.requests_per_client = oltp ? 32 : 1;
  harness::TraceSet traces = factory.Build(tc);

  std::printf("cache explorer: %s workload, 4-core FC CMP\n\n",
              oltp ? "OLTP" : "DSS");
  TablePrinter table({"L2", "hit lat (Cacti)", "area mm^2", "UIPC",
                      "L2 hit rate", "d-stall:L2hit", "d-stall:mem",
                      "verdict"});

  double best = 0.0;
  uint64_t best_mb = 0;
  std::vector<std::vector<std::string>> rows;
  for (uint64_t mb : {1, 2, 4, 8, 16, 26}) {
    harness::ExperimentConfig ec;
    ec.camp = coresim::Camp::kFat;
    ec.cores = 4;
    ec.l2_bytes = mb << 20;
    ec.saturated = true;
    ec.measure_instructions = 6'000'000;
    const harness::ResolvedHardware hw = harness::ResolveHardware(ec);
    coresim::SimResult r = harness::RunExperiment(ec, traces);

    cacti::CacheGeometry g;
    g.size_bytes = mb << 20;
    g.banks = mb > 2 ? 8 : 1;
    cacti::CacheTiming t;
    (void)cacti::ComputeTiming(g, &t);

    if (r.uipc() > best) {
      best = r.uipc();
      best_mb = mb;
    }
    const double tot = r.breakdown.total();
    rows.push_back({std::to_string(mb) + "MB",
                    std::to_string(hw.l2_hit_cycles) + " cy",
                    TablePrinter::Num(t.area_mm2, 1),
                    TablePrinter::Num(r.uipc(), 3),
                    TablePrinter::Pct(r.l2_hit_rate),
                    TablePrinter::Pct(
                        r.breakdown.Get(coresim::Bucket::kDStallL2) / tot),
                    TablePrinter::Pct(
                        r.breakdown.Get(coresim::Bucket::kDStallMem) / tot),
                    ""});
  }
  const uint64_t sizes[] = {1, 2, 4, 8, 16, 26};
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i][7] = sizes[i] == best_mb ? "<== best throughput" : "";
    table.AddRow(rows[i]);
  }
  table.Print();
  std::printf("\nSection 5.4: 'the best design points might incorporate "
              "caches large enough to\ncapture the primary working set but "
              "not larger, so they maintain low hit latencies.'\n");
  return 0;
}
