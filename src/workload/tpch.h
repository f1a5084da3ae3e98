// TPC-H-style DSS workload: schema, loader, and the paper's query mix —
// Q1 and Q6 (scan-dominated), Q16 (join-dominated), Q13 (mixed behaviour),
// each with random predicates per client [Section 3].
//
// Two derived columns (l_discprice, l_revenue) are precomputed at load so
// aggregates match the official queries' arithmetic without an expression
// evaluator in the hot loop; see EXPERIMENTS.md for the full mapping.
#ifndef STAGEDCMP_WORKLOAD_TPCH_H_
#define STAGEDCMP_WORKLOAD_TPCH_H_

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "db/exec.h"
#include "db/staged.h"
#include "trace/tracer.h"
#include "workload/database.h"

namespace stagedcmp::workload {

struct TpchConfig {
  // Default scale puts the DSS primary working set in the 8-16MB band of
  // the paper's L2 sweep: lineitem ~20MB streams, dimension tables and
  // join hash tables fit earlier (DESIGN.md §5.4).
  uint32_t orders = 40000;
  uint32_t customers = 4000;
  uint32_t parts = 6000;
  uint32_t suppliers = 400;
  uint32_t partsupp_per_part = 4;
  uint32_t max_lines_per_order = 7;
  uint64_t load_seed = 7;
};

/// Builds and loads the TPC-H schema (untraced bulk load).
void TpchLoad(Database* db, const TpchConfig& config);

/// Query identifiers in the paper's mix.
enum class TpchQuery : uint8_t { kQ1, kQ6, kQ13, kQ16 };

const char* TpchQueryName(TpchQuery q);

/// Builds a Volcano plan for `q` with predicates randomized from `rng`.
std::unique_ptr<db::Operator> BuildTpchPlan(Database* db, TpchQuery q,
                                            Rng* rng);

/// Builds the staged-pipeline equivalent (Q1/Q6; scan→filter→aggregate).
/// `packet_tuples`: 0 = L1D-sized cohort packets, 1 = tuple-at-a-time.
std::unique_ptr<db::StagedPipeline> BuildTpchStagedPlan(
    Database* db, TpchQuery q, Rng* rng, uint32_t packet_tuples);

/// One DSS client: runs the 4-query mix round-robin with random predicates.
class TpchDriver {
 public:
  TpchDriver(Database* db, uint64_t seed)
      : db_(db), rng_(seed), scratch_(db->space(), 1 << 20) {}

  /// Executes the next query of the mix; returns rows produced.
  uint64_t RunOne(trace::Tracer* tracer);

  /// Executes a specific query.
  uint64_t Run(TpchQuery q, trace::Tracer* tracer);

  uint64_t queries_executed() const { return executed_; }

 private:
  Database* db_;
  Rng rng_;
  // Per-driver scratch, carved from the database's space: bump-allocated
  // so consecutive queries never reuse addresses (address reuse would
  // alias distinct intermediates when the recorded traces are replayed
  // interleaved).
  Arena scratch_;
  uint64_t executed_ = 0;
  // Paper mix: scan-dominated queries dominate execution time; Q16's join
  // "contributes relatively little to total execution time" [Section 3].
  static constexpr TpchQuery kMix[6] = {TpchQuery::kQ1,  TpchQuery::kQ6,
                                        TpchQuery::kQ1,  TpchQuery::kQ6,
                                        TpchQuery::kQ13, TpchQuery::kQ16};
};

}  // namespace stagedcmp::workload

#endif  // STAGEDCMP_WORKLOAD_TPCH_H_
