// Figure 1: historic trends of on-chip caches — (a) capacity, (b) hit
// latency — plus the Cacti-model latency curve used by the L2 sweeps.
//
// Shape targets: exponential capacity growth over 1990-2007 and a >3x
// latency increase across the decade (e.g. 4 cycles in the Pentium III
// era to 14 cycles in Power5).
#include <cstdio>
#include <string>

#include "cacti/cache_model.h"
#include "common/table_printer.h"

using namespace stagedcmp;

int main() {
  std::printf("\n=== Figure 1 (a,b): historic on-chip cache size and "
              "latency ===\n");
  TablePrinter hist({"year", "processor", "on-chip cache (KB)",
                     "hit latency (cycles)"});
  for (const cacti::HistoricPoint& p : cacti::HistoricTrends()) {
    hist.AddRow({std::to_string(p.year), p.processor,
                 std::to_string(p.onchip_cache_kb),
                 std::to_string(p.l2_hit_cycles)});
  }
  hist.Print();

  std::printf("\n=== Cacti-model L2 hit latency vs size (65nm, the "
              "sweep's 'real' curve) ===\n");
  TablePrinter model({"L2 size (MB)", "cycles", "access ns", "area mm^2",
                      "energy nJ"});
  for (uint64_t mb : {1, 2, 4, 8, 16, 26}) {
    cacti::CacheGeometry g;
    g.size_bytes = mb << 20;
    g.associativity = 8;
    g.line_bytes = 64;
    uint32_t banks = 1;
    while ((g.size_bytes / banks) > (2ull << 20) && banks < 32) banks <<= 1;
    g.banks = banks;
    cacti::CacheTiming t;
    Status s = cacti::ComputeTiming(g, &t);
    if (!s.ok()) continue;
    model.AddRow({std::to_string(mb), std::to_string(t.cycles),
                  TablePrinter::Num(t.access_ns, 2),
                  TablePrinter::Num(t.area_mm2, 1),
                  TablePrinter::Num(t.dynamic_nj, 2)});
  }
  model.Print();

  // Shape checks the harness asserts on (also covered in tests/).
  const auto& pts = cacti::HistoricTrends();
  std::printf("\ncapacity growth 1990->2006: %.0fx | latency growth: %.1fx\n",
              static_cast<double>(pts[10].onchip_cache_kb) /
                  static_cast<double>(pts[0].onchip_cache_kb),
              static_cast<double>(pts[10].l2_hit_cycles) /
                  static_cast<double>(pts[2].l2_hit_cycles));
  return 0;
}
