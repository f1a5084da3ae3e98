// FNV-style running checksum over u64 words: the integrity chain that
// closes both word-format files the sweep writes (trace bundles and
// shard result files) and the hash behind the shard spec fingerprint.
#ifndef STAGEDCMP_SWEEP_CHECKSUM_H_
#define STAGEDCMP_SWEEP_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace stagedcmp::sweep {

struct Checksum {
  uint64_t state = 0xcbf29ce484222325ULL;
  void Mix(uint64_t v) {
    state ^= v;
    state *= 0x100000001B3ULL;
    state ^= state >> 29;
  }
  void MixAll(const uint64_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) Mix(p[i]);
  }
};

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_CHECKSUM_H_
