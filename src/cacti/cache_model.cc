#include "cacti/cache_model.h"

#include <cmath>

namespace stagedcmp::cacti {

namespace {

bool IsPow2(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Nominal clock period (ns) per node; reflects frequency scaling of the
/// respective eras so that the same wire delay costs more cycles later.
double ClockNs(TechNode t) {
  switch (t) {
    case TechNode::k250nm: return 2.00;   // ~500 MHz
    case TechNode::k130nm: return 0.70;   // ~1.4 GHz
    case TechNode::k90nm:  return 0.50;   // ~2.0 GHz
    case TechNode::k65nm:  return 0.33;   // ~3.0 GHz
  }
  return 0.33;
}

/// Wire/logic speed factor relative to 65nm: older nodes have slower logic
/// but relatively faster wires (less resistive); net effect folded into one
/// scalar per node.
double NodeDelayScale(TechNode t) {
  switch (t) {
    case TechNode::k250nm: return 2.6;
    case TechNode::k130nm: return 1.5;
    case TechNode::k90nm:  return 1.2;
    case TechNode::k65nm:  return 1.0;
  }
  return 1.0;
}

}  // namespace

Status ComputeTiming(const CacheGeometry& geom, CacheTiming* out) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  if (!IsPow2(geom.line_bytes) || geom.line_bytes < 8 ||
      geom.line_bytes > 1024) {
    return Status::InvalidArgument("line size must be pow2 in [8,1024]");
  }
  if (geom.size_bytes < geom.line_bytes) {
    return Status::InvalidArgument("cache smaller than one line");
  }
  if (geom.associativity == 0 || geom.banks == 0 || !IsPow2(geom.banks)) {
    return Status::InvalidArgument("bad associativity/banking");
  }
  if (geom.size_bytes / geom.banks < geom.line_bytes) {
    return Status::InvalidArgument("bank smaller than one line");
  }

  const double kb = static_cast<double>(geom.size_bytes) / 1024.0;
  const double mb = kb / 1024.0;
  const double bank_kb = kb / static_cast<double>(geom.banks);
  const double bank_mb = bank_kb / 1024.0;

  // Delay model (ns at 65nm, scaled per node):
  //   decode     : grows with log2 of rows
  //   bit/word   : wire delay across the bank, ~ sqrt(bank area)
  //   global H-tree: wire delay to the farthest bank, ~ sqrt(total area)
  //   tag + mux  : grows mildly with associativity
  // Constants calibrated to era anchor points: ~5 cycles at 1MB, ~14 at
  // 8MB (Power5-class), ~23 at 26MB mega-caches, at a 3GHz clock.
  const double scale = NodeDelayScale(geom.tech);
  const double rows = bank_kb * 1024.0 /
                      (static_cast<double>(geom.line_bytes) *
                       static_cast<double>(geom.associativity));
  const double decode = 0.08 + 0.012 * std::log2(std::max(rows, 2.0));
  const double local_wire = 0.45 * std::sqrt(std::max(bank_mb, 1.0 / 64.0));
  const double global_wire =
      (geom.banks > 1 ? 0.62 : 0.40) * std::pow(mb, 0.6);
  const double tagmux =
      0.05 + 0.010 * std::log2(static_cast<double>(geom.associativity));
  const double sense = 0.10;

  const double access_ns =
      scale * (decode + local_wire + global_wire + tagmux + sense);

  out->access_ns = access_ns;
  const double clk = ClockNs(geom.tech);
  uint32_t cyc = static_cast<uint32_t>(std::ceil(access_ns / clk));
  if (cyc < 1) cyc = 1;
  out->cycles = cyc;

  // Area: ~0.45 mm^2 per MB at 65nm (SRAM density incl. overheads),
  // quadratic node scaling.
  const double node_area_scale = scale * scale;
  out->area_mm2 = 0.45 * (kb / 1024.0) * node_area_scale;

  // Energy: per-access dynamic energy grows with sqrt(size) (longer wires)
  // from a ~0.2 nJ base for a 64KB bank.
  out->dynamic_nj = 0.2 * std::sqrt(bank_kb / 64.0) *
                    static_cast<double>(geom.banks > 1 ? 1.2 : 1.0);
  return Status::Ok();
}

uint32_t AccessLatencyCycles(uint64_t size_bytes) {
  CacheGeometry g;
  g.size_bytes = size_bytes;
  g.associativity = 8;
  g.line_bytes = 64;
  // Larger caches are banked; pick the bank count that keeps banks <= 2MB.
  uint32_t banks = 1;
  while (size_bytes / banks > (2ULL << 20) && banks < 32) banks <<= 1;
  g.banks = banks;
  g.tech = TechNode::k65nm;
  CacheTiming t;
  Status s = ComputeTiming(g, &t);
  if (!s.ok()) return 4;
  return t.cycles;
}

const std::vector<HistoricPoint>& HistoricTrends() {
  // Capacity = largest on-chip cache; latency = load-to-use of that cache.
  // Matches the qualitative story of Figure 1: exponential size growth,
  // >3x latency growth over the decade.
  static const std::vector<HistoricPoint> kPoints = {
      {1990, "Intel i486",            8,     1},
      {1993, "Pentium",              16,     1},
      {1995, "Pentium Pro",         256,     4},
      {1997, "Pentium II",          512,     5},
      {1999, "Pentium III (Katmai)", 512,    4},
      {2001, "POWER4",             1440,     6},
      {2002, "Itanium 2 (McKinley)", 3072,   7},
      {2003, "Pentium M",          1024,     9},
      {2004, "POWER5",             1920,    14},
      {2005, "UltraSPARC T1",      3072,    21},
      {2006, "Xeon 7100 (Tulsa)", 16384,    31},
      {2006, "Itanium 2 (Montecito)", 24576, 14},
      {2007, "POWER6",             4096,    24},
  };
  return kPoints;
}

}  // namespace stagedcmp::cacti
