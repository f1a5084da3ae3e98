// Production traffic shaping: key-popularity and arrival-shape knobs that
// compose with any client generator (TPC-C, TPC-H, YCSB).
//
// A TrafficShaper is owned by one client inside one WorkloadWorld build and
// draws from its own Rng, so shaped builds stay pure functions of
// (TraceSetConfig, scale knobs) — the contract the sweep's parallel cold
// build rests on. Default-constructed TrafficConfig is byte-neutral: no
// events are injected and no generator draw is taken, so every historical
// trace set is reproduced unchanged.
#ifndef STAGEDCMP_WORKLOAD_TRAFFIC_H_
#define STAGEDCMP_WORKLOAD_TRAFFIC_H_

#include <cstdint>
#include <optional>

#include "common/rng.h"
#include "trace/tracer.h"

namespace stagedcmp {
class MetricsRegistry;
}  // namespace stagedcmp

namespace stagedcmp::workload {

/// Key-popularity law for record/warehouse selection.
enum class KeyDist : uint8_t {
  kUniform,    ///< every key equally likely (historical behavior)
  kZipfian,    ///< Zipf(theta) over the key space, hot keys fixed
  kHotRotate,  ///< Zipfian whose hot set rotates every N requests
};

/// Request arrival shape, modeled as idle instruction gaps in the trace
/// (the replay is closed-loop, so "arrival" is the work a context does
/// between serving requests).
enum class ArrivalShape : uint8_t {
  kSteady,     ///< back-to-back requests (historical behavior)
  kOnOffBurst, ///< bursts of `burst_on` requests separated by idle gaps
  kThinkTime,  ///< every request preceded by a think-time idle loop
};

const char* KeyDistName(KeyDist d);
const char* ArrivalShapeName(ArrivalShape a);

/// Deterministic traffic knobs carried on TraceSetConfig. All defaults
/// reproduce the unshaped workloads bit-for-bit.
struct TrafficConfig {
  KeyDist key_dist = KeyDist::kUniform;
  double zipf_theta = 0.0;           ///< [0,1); used by kZipfian/kHotRotate
  uint32_t hot_rotate_period = 64;   ///< requests between hot-set rotations
  ArrivalShape arrival = ArrivalShape::kSteady;
  uint32_t burst_on = 8;             ///< requests per ON phase
  uint32_t burst_off = 4;            ///< gap length, in think-time units
  uint32_t think_instructions = 4000;  ///< idle instructions per think unit

  constexpr bool shapes_keys() const { return key_dist != KeyDist::kUniform; }
  constexpr bool shapes_arrival() const {
    return arrival != ArrivalShape::kSteady;
  }
};

/// Per-client traffic shaper: owns the popularity generator and the
/// arrival pacing state. One instance per (client, build); never shared.
class TrafficShaper {
 public:
  struct Stats {
    uint64_t keys_generated = 0;
    uint64_t hot_set_hits = 0;      ///< draws landing in the current hot set
    uint64_t burst_gaps = 0;        ///< OFF gaps injected (burst cycles)
    uint64_t think_events = 0;      ///< think-time pauses injected
    uint64_t idle_instructions = 0; ///< total injected idle instructions
  };

  /// `n_keys` is the popularity domain (warehouses, records, ...);
  /// `seed` derives the shaper's private Rng.
  TrafficShaper(const TrafficConfig& config, uint64_t n_keys, uint64_t seed);

  /// Draws the next key in [0, n_keys) under the configured popularity
  /// law. Under kUniform this still consumes one Rng draw — callers that
  /// must stay byte-identical to unshaped builds should only call this
  /// when config.shapes_keys().
  uint64_t NextKey();

  /// Request-boundary hook: advances the arrival/rotation state and
  /// injects idle instructions (in the kIdle code region) into `tracer`
  /// per the arrival shape. A no-op stream-wise under kSteady.
  void BeforeRequest(trace::Tracer* tracer);

  const Stats& stats() const { return stats_; }
  const TrafficConfig& config() const { return config_; }

 private:
  TrafficConfig config_;
  uint64_t n_;
  uint64_t hot_size_;
  Rng rng_;
  std::optional<ZipfGenerator> zipf_;
  uint64_t requests_ = 0;
  uint64_t rotate_offset_ = 0;
  Stats stats_;
};

/// Folds one shaper's stats into `metrics` under the `traffic.*` family.
/// Null-safe; called once per client at the end of a world build.
void FoldTrafficMetrics(const TrafficShaper::Stats& stats,
                        MetricsRegistry* metrics);

}  // namespace stagedcmp::workload

#endif  // STAGEDCMP_WORKLOAD_TRAFFIC_H_
