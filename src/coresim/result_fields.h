// Field table for SimResult: every field a serialized cell carries, in
// record order. The shard format writes and reads cells through it
// (sweep/shard.cc), and equivalence tests compare two runs field by
// field through it, so a field added here is both persisted and checked.
#ifndef STAGEDCMP_CORESIM_RESULT_FIELDS_H_
#define STAGEDCMP_CORESIM_RESULT_FIELDS_H_

#include <cstdint>

#include "coresim/cmp.h"

namespace stagedcmp::coresim {

/// Visits every SimResult field the sinks read, in record order, as
/// v(field). One visitor serves writers (read each field), readers
/// (assign it) and comparisons.
template <typename V>
void VisitFields(SimResult& r, V& v) {
  v(r.instructions);
  v(r.elapsed_cycles);
  for (double& c : r.breakdown.cycles) v(c);
  v(r.requests_completed);
  v(r.avg_response_cycles);
  v(r.events_replayed);
  v(r.l1d_hit_rate);
  v(r.l1i_hit_rate);
  v(r.l2_hit_rate);
  for (uint64_t& c : r.mem.data_count) v(c);
  for (uint64_t& c : r.mem.instr_count) v(c);
  v(r.mem.l1_to_l1_transfers);
  v(r.mem.invalidations);
  v(r.mem.writebacks);
  // The queue-delay histogram travels as its aggregate (sinks read only
  // its mean); restoring it is a no-op on the writer's copy.
  uint64_t qd_count = r.mem.queue_delay.count();
  uint64_t qd_sum = r.mem.queue_delay.sum();
  v(qd_count);
  v(qd_sum);
  r.mem.queue_delay.RestoreAggregate(qd_count, qd_sum);
  v(r.mem.bus_transactions);
  v(r.mem.bus_busy_cycles);
  v(r.mem.bus_peak_queue);
  v(r.num_tenants);
  for (TenantStats& t : r.tenants) {
    v(t.instructions);
    v(t.requests);
    for (uint64_t& c : t.data_count) v(c);
    for (uint64_t& c : t.instr_count) v(c);
  }
}

}  // namespace stagedcmp::coresim

#endif  // STAGEDCMP_CORESIM_RESULT_FIELDS_H_
