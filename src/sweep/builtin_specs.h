// Built-in sweep specs: every simulated paper figure and ablation is one
// spec (sweep_main --spec NAME runs it), plus the canonical trace-set
// configurations those specs share. Each spec's description carries the
// paper's targets; its baseline drives the table's UIPC/base column.
#ifndef STAGEDCMP_SWEEP_BUILTIN_SPECS_H_
#define STAGEDCMP_SWEEP_BUILTIN_SPECS_H_

#include <string>
#include <vector>

#include "sweep/spec.h"

namespace stagedcmp::sweep {

/// Canonical saturated/unsaturated workload trace configs (the exact
/// client counts, request counts and seeds the figure specs use).
harness::TraceSetConfig OltpSaturatedConfig(uint32_t clients = 32);
harness::TraceSetConfig DssSaturatedConfig(uint32_t clients = 24);
harness::TraceSetConfig OltpUnsaturatedConfig();
harness::TraceSetConfig DssUnsaturatedConfig();

/// Names accepted by BuiltinSpec, in presentation order:
///   smoke    — tiny 2x2 grid for CI golden-diff and perf trajectory
///   smokesmp — tiny {OLTP,DSS} SMP grid: golden diff in
///              tests/test_goldens.cc, directory-vs-reference replay in
///              tests/test_smp_arms.cc
///   fig2     — DSS clients {1..128} on a 4-core FC CMP (saturation)
///   fig3     — one saturated-DSS cell on a Power5-like CMP (validation)
///   fig4     — {unsat,sat} x {OLTP,DSS} x {FC,LC} camp comparison
///              (Figures 4 and 5)
///   fig6     — {OLTP,DSS} x {fixed4,realistic} x L2 {1..26MB}
///   fig7     — {OLTP,DSS} x {SMP private 4MB, CMP shared 16MB}
///   fig8     — {OLTP,DSS} x cores {4,8,12,16} (load scales with cores)
///   fig8smp  — fig8's axis on the SMP private-L2 machine, extended to
///              {4,8,16,32} nodes (the sweep the sharers-bitmap
///              directory makes scale)
///   cohort   — DSS engine {volcano,staged-tuple,staged-cohort} ablation
///   sbuf     — instruction stream buffers {on,off} ablation on OLTP
///   skew, burst, tenants — traffic-shape and multi-tenant grids
///   shootout — CMP vs SMP at matched node counts {16,64,256,1024} x
///              {OLTP,DSS} with the SMP shared-bus occupancy model on
///              (the queue-delay knee grid)
std::vector<std::string> BuiltinSpecNames();

bool HasBuiltinSpec(const std::string& name);

/// Returns the named spec; aborts on unknown names (check
/// HasBuiltinSpec first when the name is user input).
SweepSpec BuiltinSpec(const std::string& name);

/// Applies the named spec's workload-scale overrides to `factory` (call
/// between construction and the first Build). Most specs run the default
/// DESIGN.md scale and are a no-op here; the large-n `shootout` grid
/// shrinks the TPC-H tables so a 1024-client DSS set stays CI-sized.
/// Runners that honor this for one spec name reproduce byte-identical
/// traces for it everywhere (bundles echo the factory scale, so a
/// mismatched bundle is detected and rebuilt cold).
void ConfigureFactoryForSpec(const std::string& name,
                             harness::WorkloadFactory* factory);

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_BUILTIN_SPECS_H_
