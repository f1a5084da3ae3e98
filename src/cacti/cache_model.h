// Analytic cache access-time model in the spirit of CACTI [29].
//
// The paper uses Cacti 4.2 to assign mutually-consistent hit latencies to
// every point of the 1–26 MB L2 sweep (Section 3), and purposefully also
// runs "fixed 4-cycle" counterfactual sweeps. This module provides:
//   * AccessLatencyCycles(size, assoc, tech) — the "real latency" curve,
//   * historic on-chip cache size / latency tables backing Figure 1.
//
// The model decomposes access time into decoder, wordline/bitline, and
// output-driver components that grow with the square root of the array area
// (wire delay dominated), plus a per-doubling tag/mux term. Constants are
// calibrated so the curve passes through the anchor points the paper cites:
// ~4 cycles for a ~1MB cache of the Pentium III era, ~14 cycles for the
// Power5's L2, and >=20 cycles for 24-26MB mega-caches.
#ifndef STAGEDCMP_CACTI_CACHE_MODEL_H_
#define STAGEDCMP_CACTI_CACHE_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace stagedcmp::cacti {

/// Technology node; affects the cycle-time normalization (deeper pipelines
/// at smaller nodes make the same wire delay cost more cycles).
enum class TechNode {
  k250nm,  // ~1997
  k130nm,  // ~2002
  k90nm,   // ~2004
  k65nm,   // ~2006 (paper's era; default)
};

struct CacheGeometry {
  uint64_t size_bytes = 0;
  uint32_t associativity = 8;
  uint32_t line_bytes = 64;
  uint32_t banks = 1;
  TechNode tech = TechNode::k65nm;
};

struct CacheTiming {
  double access_ns = 0.0;     ///< absolute access time
  uint32_t cycles = 0;        ///< at the tech node's nominal clock
  double area_mm2 = 0.0;      ///< estimated array area
  double dynamic_nj = 0.0;    ///< per-access dynamic energy estimate
};

/// Computes timing for a cache geometry. Returns InvalidArgument for
/// non-power-of-two sizes below one line or degenerate geometry.
Status ComputeTiming(const CacheGeometry& geom, CacheTiming* out);

/// Convenience wrapper: hit latency in cycles for a size at 65nm, 8-way,
/// 64B lines, with banking chosen automatically (what the benches use).
uint32_t AccessLatencyCycles(uint64_t size_bytes);

/// One processor generation's on-chip cache data point (Figure 1).
struct HistoricPoint {
  int year;
  const char* processor;
  uint64_t onchip_cache_kb;   ///< largest on-chip cache level capacity
  uint32_t l2_hit_cycles;     ///< reported/estimated L2 (or L3) hit latency
};

/// Historic trend table behind Figure 1 (a) and (b). Sorted by year.
const std::vector<HistoricPoint>& HistoricTrends();

}  // namespace stagedcmp::cacti

#endif  // STAGEDCMP_CACTI_CACHE_MODEL_H_
