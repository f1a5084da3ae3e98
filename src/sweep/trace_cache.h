// Trace-set identity and client-count families.
//
// TraceSetCache::MakeKey is THE definition of "same trace set": the
// runner's dedup and the bundle sequence match both go through it.
//
// Client-count families: configs that differ only in `clients` form a
// family (FamilyKey). By the factory's prefix property (see
// harness::WorkloadFactory) a family member with N clients equals the
// first N traces of a larger member, word for word. So the sweep runner
// builds only each family's largest member and cuts the others from it
// with PrefixSlice(): zero-copy views into the leader's first N traces,
// pinning the leader through TraceSet::leader, so dropping the leader's
// own owner never frees storage a live slice still views.
#ifndef STAGEDCMP_SWEEP_TRACE_CACHE_H_
#define STAGEDCMP_SWEEP_TRACE_CACHE_H_

#include <array>
#include <cstdint>
#include <memory>

#include "harness/config_fields.h"
#include "harness/experiment.h"

namespace stagedcmp::sweep {

/// Trace-set identity; static members only.
struct TraceSetCache {
  /// Canonical identity of a TraceSetConfig: every field of the config's
  /// field table as a word (harness/config_fields.h), traffic shaping and
  /// tenancy included. The theta double enters by bit pattern, so any
  /// distinct representable skew is a distinct trace set.
  using Key =
      std::array<uint64_t, harness::FieldCount<harness::TraceSetConfig>()>;
  static Key MakeKey(const harness::TraceSetConfig& c);
  /// Identity of `c`'s client-count family: MakeKey with `clients`
  /// zeroed, so members differ only in their client count. A two-tenant
  /// config keeps its clients (tenant B's seeds shift with them) and so
  /// forms a family of its own.
  static Key FamilyKey(const harness::TraceSetConfig& c);
};

/// The set for `config` as a prefix slice of `leader`: its traces view
/// the leader's first `config.clients` traces, its totals are recomputed
/// over them, and it pins the leader. Throws std::invalid_argument unless
/// `leader` is non-null and `config` is single-tenant and shares the
/// leader's FamilyKey with no more clients.
harness::TraceSet PrefixSlice(std::shared_ptr<const harness::TraceSet> leader,
                              const harness::TraceSetConfig& config);

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_TRACE_CACHE_H_
