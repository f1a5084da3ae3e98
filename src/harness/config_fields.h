// Field tables for the config structs that shape simulated results:
// TraceSetConfig (with its nested TrafficConfig) and ExperimentConfig.
// Each table visits every field once, in a fixed order, as
// v(echo_name, field, present), where `present` is the field's presence
// rule in the JSON config echo. Everything that enumerates a config
// derives from these tables: the trace-set key and the trace
// bundle's per-set config block (FieldWords, so the TraceSetConfig row
// order IS the bundle byte order), the shard spec fingerprint and
// per-cell config words (sweep/shard.cc), and the sinks' config echo and
// CSV/table config columns (sweep/sinks.cc).
//
// Adding a config knob means adding one row here; a TraceSetConfig row
// also needs its label tag in kLabelTags (sweep/runner.cc). The
// static_asserts after the tables stop the build when a struct gains a
// member the table does not list, and the one beside kLabelTags when the
// tags fall out of step with the TraceSetConfig rows.
#ifndef STAGEDCMP_HARNESS_CONFIG_FIELDS_H_
#define STAGEDCMP_HARNESS_CONFIG_FIELDS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/experiment.h"

namespace stagedcmp::harness {

template <typename C, typename T>
using IfConfig = std::enable_if_t<std::is_same_v<std::remove_const_t<C>, T>>;

/// The TraceSetConfig table. `C` is TraceSetConfig or const
/// TraceSetConfig. Rows with a false presence rule are the knobs a
/// default (unshaped, single-tenant) config leaves at their defaults, so
/// historical configs keep their historical echo bytes.
template <typename C, typename V,
          IfConfig<C, TraceSetConfig>* = nullptr>
constexpr void VisitFields(C& c, V&& v) {
  auto& t = c.traffic;
  const bool hot_rotate = t.key_dist == workload::KeyDist::kHotRotate;
  const bool burst = t.arrival == workload::ArrivalShape::kOnOffBurst;
  const bool tenants = c.tenant2_clients > 0;
  v("workload", c.workload, true);
  v("clients", c.clients, true);
  v("requests_per_client", c.requests_per_client, true);
  v("seed", c.seed, true);
  v("engine", c.engine, true);
  v("key_dist", t.key_dist, t.shapes_keys());
  v("zipf_theta", t.zipf_theta, t.shapes_keys());
  v("hot_rotate_period", t.hot_rotate_period, hot_rotate);
  v("arrival", t.arrival, t.shapes_arrival());
  v("burst_on", t.burst_on, burst);
  v("burst_off", t.burst_off, burst);
  v("think_instructions", t.think_instructions, t.shapes_arrival());
  v("tenant2_workload", c.tenant2_workload, tenants);
  v("tenant2_clients", c.tenant2_clients, tenants);
}

/// The ExperimentConfig table. smp_bus_model leads the echo and appears
/// only when true, so only the cells that opt into the bus model carry
/// it.
template <typename C, typename V,
          IfConfig<C, ExperimentConfig>* = nullptr>
constexpr void VisitFields(C& c, V&& v) {
  v("smp_bus_model", c.smp_bus_model, c.smp_bus_model);
  v("camp", c.camp, true);
  v("cores", c.cores, true);
  v("l2_bytes", c.l2_bytes, true);
  v("latency", c.latency, true);
  v("topology", c.topology, true);
  v("saturated", c.saturated, true);
  v("measure_instructions", c.measure_instructions, true);
  v("warmup_instructions", c.warmup_instructions, true);
  v("stream_buffers", c.stream_buffers, true);
  v("l2_ports", c.l2_ports, true);
  v("memory_latency", c.memory_latency, true);
}

/// Number of rows in C's table.
template <typename C>
constexpr size_t FieldCount() {
  C c{};
  size_t n = 0;
  VisitFields(c, [&n](const char*, const auto&, bool) { ++n; });
  return n;
}

namespace internal {

/// Converts to any member type, so C{AnyMember{}...} probes how many
/// members aggregate C has. Never defined: used in unevaluated context.
struct AnyMember {
  template <typename T>
  operator T() const;
};

template <typename C, typename... A>
constexpr decltype(void(C{std::declval<A>()...}), true) BraceInits(int) {
  return true;
}
template <typename C, typename... A>
constexpr bool BraceInits(...) {
  return false;
}

/// Number of direct members of aggregate C.
template <typename C, typename... A>
constexpr size_t MemberCount() {
  if constexpr (BraceInits<C, A..., AnyMember>(0)) {
    return MemberCount<C, A..., AnyMember>();
  } else {
    return sizeof...(A);
  }
}

}  // namespace internal

// Tripwires: a struct member without a table row fails the build here.
// TraceSetConfig's `traffic` member is expanded into its own rows.
static_assert(internal::MemberCount<TraceSetConfig>() - 1 +
                      internal::MemberCount<workload::TrafficConfig>() ==
                  FieldCount<TraceSetConfig>(),
              "TraceSetConfig/TrafficConfig gained a member: add its row "
              "to the TraceSetConfig field table");
static_assert(internal::MemberCount<ExperimentConfig>() ==
                  FieldCount<ExperimentConfig>(),
              "ExperimentConfig gained a member: add its row to the "
              "ExperimentConfig field table");

/// One field as a u64 word: enums by value, bools as 0/1, doubles by bit
/// pattern (so every distinct representable value is a distinct word).
template <typename T>
uint64_t FieldWord(const T& v) {
  if constexpr (std::is_floating_point_v<T>) {
    static_assert(sizeof(T) == sizeof(uint64_t));
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  } else {
    return static_cast<uint64_t>(v);
  }
}

/// Every field of `c` as a word, in table order (presence rules do not
/// apply: identity covers all fields).
template <typename C>
std::array<uint64_t, FieldCount<C>()> FieldWords(const C& c) {
  std::array<uint64_t, FieldCount<C>()> words{};
  size_t i = 0;
  VisitFields(c, [&](const char*, const auto& f, bool) {
    words[i++] = FieldWord(f);
  });
  return words;
}

/// Echo names of the config enums.
inline const char* FieldName(WorkloadKind v) { return WorkloadName(v); }
inline const char* FieldName(EngineMode v) { return EngineModeName(v); }
inline const char* FieldName(workload::KeyDist v) {
  return workload::KeyDistName(v);
}
inline const char* FieldName(workload::ArrivalShape v) {
  return workload::ArrivalShapeName(v);
}
inline const char* FieldName(coresim::Camp v) { return coresim::CampName(v); }
inline const char* FieldName(LatencyMode v) { return LatencyModeName(v); }
inline const char* FieldName(Topology v) { return TopologyName(v); }

/// The factory's workload scale knobs — which, besides the configs,
/// determine trace bytes — as a fixed-width block of words. The trace
/// bundle header and the shard spec fingerprint both carry it.
inline std::vector<uint64_t> ScaleWords(const WorkloadFactory& factory) {
  const workload::TpccConfig& tc = factory.tpcc_config;
  const workload::TpchConfig& hc = factory.tpch_config;
  const workload::YcsbConfig& yc = factory.ycsb_config;
  return {tc.warehouses,        tc.districts_per_warehouse,
          tc.customers_per_district, tc.items,
          tc.initial_orders_per_district, tc.load_seed,
          hc.orders,            hc.customers,
          hc.parts,             hc.suppliers,
          hc.partsupp_per_part, hc.max_lines_per_order,
          hc.load_seed,
          yc.records,           yc.fields,
          yc.field_len,         yc.read_pct,
          yc.update_pct,        yc.insert_pct,
          yc.scan_pct,          yc.scan_len,
          yc.ops_per_request,   yc.load_seed};
}

// Tripwires: a scale knob missing from ScaleWords would let a stale
// bundle or a foreign-scale shard validate. The counts are the runs of
// tc/hc/yc words above; a new member fails the build until it has a word.
static_assert(internal::MemberCount<workload::TpccConfig>() == 6,
              "TpccConfig gained a member: add it to ScaleWords");
static_assert(internal::MemberCount<workload::TpchConfig>() == 7,
              "TpchConfig gained a member: add it to ScaleWords");
static_assert(internal::MemberCount<workload::YcsbConfig>() == 10,
              "YcsbConfig gained a member: add it to ScaleWords");

}  // namespace stagedcmp::harness

#endif  // STAGEDCMP_HARNESS_CONFIG_FIELDS_H_
