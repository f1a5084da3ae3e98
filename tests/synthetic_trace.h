// Synthetic replay traces that depend on nothing but their seed.
//
// Workload traces follow the engine and the workload drivers, so any
// change to either moves their simulated metrics. These generator traces
// instead draw every code and data address from fixed literal regions,
// which makes the full simulation result — stats, breakdown, elapsed
// cycles — a pure function of the seed and the replay path alone. That
// is what lets test_replay_equivalence.cc pin the rebuilt hot path
// against fingerprints captured from the pre-rebuild implementation.
#ifndef STAGEDCMP_TESTS_SYNTHETIC_TRACE_H_
#define STAGEDCMP_TESTS_SYNTHETIC_TRACE_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "coresim/cmp.h"
#include "trace/events.h"

namespace stagedcmp::synthetic {

/// Generates `clients` traces of `events_per_client` events each. The mix
/// mimics replayed database work: jumpy compute blocks over a ~1MB code
/// footprint, reads/writes split between a 4MB hot region shared by all
/// clients (coherence and L1-to-L1 traffic) and a 32MB per-client private
/// region (capacity misses), a sprinkle of dependent (pointer-chase)
/// accesses, and occasional request markers.
inline std::vector<trace::ClientTrace> MakeTraces(uint64_t seed,
                                                  uint32_t clients,
                                                  size_t events_per_client) {
  constexpr uint64_t kCodeBase = 0x400000000000ULL;
  constexpr uint64_t kSharedBase = 0x100000000000ULL;
  constexpr uint64_t kPrivateBase = 0x200000000000ULL;

  std::vector<trace::ClientTrace> out(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    Rng rng(seed * 1000003 + c * 7919 + 1);
    trace::ClientTrace& t = out[c];
    trace::EventEncoder events;
    for (size_t i = 0; i < events_per_client; ++i) {
      const uint32_t pick = static_cast<uint32_t>(rng.Next() % 100);
      if (pick < 30) {
        const uint64_t pc = kCodeBase + (rng.Next() % (1u << 20));
        const uint32_t n = 1 + static_cast<uint32_t>(rng.Next() % 64);
        events.Append(trace::PackEvent(trace::EventKind::kCompute,
                                       pc & ~3ULL, n));
        t.total_instructions += n;
      } else if (pick < 97) {
        const bool is_write = pick >= 82;
        const bool dependent = (rng.Next() & 7) == 0;
        // Region mix: shared hot (coherence), private hot (L1-resident
        // hits), private cold (capacity misses and evictions).
        const uint32_t region = static_cast<uint32_t>(rng.Next() & 3);
        const uint64_t priv = kPrivateBase + c * (1ULL << 30);
        const uint64_t addr =
            region == 0 ? kSharedBase + (rng.Next() % (64ULL << 10))
            : region == 1 ? priv + (rng.Next() % (16ULL << 10))
                          : priv + (rng.Next() % (32ULL << 20));
        const uint32_t n = 1 + static_cast<uint32_t>(rng.Next() % 16);
        events.Append(trace::PackMemEvent(
            is_write ? trace::EventKind::kWrite : trace::EventKind::kRead,
            addr & ~63ULL, n, dependent));
        t.total_instructions += n;
      } else {
        events.Append(trace::PackEvent(trace::EventKind::kMarker, 0, 0));
        ++t.requests;
      }
    }
    events.Finish(&t);
  }
  return out;
}

/// Serializes every counter a replay produces — hierarchy stats, hit
/// rates, breakdown buckets (hexfloat, so doubles compare bit-for-bit) —
/// into one comparable string.
inline std::string Fingerprint(const coresim::SimResult& r) {
  std::string out;
  char buf[64];
  auto num = [&](const char* k, uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%s=%llu\n", k,
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  auto dbl = [&](const char* k, double v) {
    std::snprintf(buf, sizeof(buf), "%s=%a\n", k, v);
    out += buf;
  };
  num("instructions", r.instructions);
  num("elapsed_cycles", r.elapsed_cycles);
  num("requests_completed", r.requests_completed);
  dbl("avg_response_cycles", r.avg_response_cycles);
  for (int i = 0; i < static_cast<int>(memsim::AccessClass::kCount); ++i) {
    const auto cls = static_cast<memsim::AccessClass>(i);
    num((std::string("data_") + memsim::AccessClassName(cls)).c_str(),
        r.mem.data_count[i]);
    num((std::string("instr_") + memsim::AccessClassName(cls)).c_str(),
        r.mem.instr_count[i]);
  }
  num("l1_to_l1_transfers", r.mem.l1_to_l1_transfers);
  num("invalidations", r.mem.invalidations);
  num("writebacks", r.mem.writebacks);
  num("queue_delay_count", r.mem.queue_delay.count());
  dbl("queue_delay_mean", r.mem.queue_delay.mean());
  dbl("l1d_hit_rate", r.l1d_hit_rate);
  dbl("l1i_hit_rate", r.l1i_hit_rate);
  dbl("l2_hit_rate", r.l2_hit_rate);
  for (int b = 0; b < static_cast<int>(coresim::Bucket::kCount); ++b) {
    dbl(coresim::BucketName(static_cast<coresim::Bucket>(b)),
        r.breakdown.cycles[static_cast<size_t>(b)]);
  }
  return out;
}

}  // namespace stagedcmp::synthetic

#endif  // STAGEDCMP_TESTS_SYNTHETIC_TRACE_H_
