// Deterministic random number generation for workload synthesis.
//
// Every client/driver owns its own Rng seeded from (experiment seed, client
// id), which makes execution traces reproducible run-to-run — a requirement
// for the decoupled execute/replay methodology (DESIGN.md §5.1).
#ifndef STAGEDCMP_COMMON_RNG_H_
#define STAGEDCMP_COMMON_RNG_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace stagedcmp {

/// xoshiro256** — fast, high-quality, 64-bit PRNG.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seeds the generator via SplitMix64 expansion of `seed`.
  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& s : s_) {
      // SplitMix64 step.
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
  }

  uint64_t Next() { return Step(s_); }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t Uniform(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next() % span);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// TPC-C NURand non-uniform random [x..y] with constant A.
  int64_t NuRand(int64_t a, int64_t x, int64_t y, int64_t c) {
    return (((Uniform(0, a) | Uniform(x, y)) + c) % (y - x + 1)) + x;
  }

  /// Random alphanumeric string of length in [min_len, max_len].
  std::string AlphaString(int min_len, int max_len) {
    std::string out;
    out.resize(static_cast<size_t>(max_len));
    out.resize(static_cast<size_t>(AlphaStringInto(out.data(), min_len,
                                                   max_len)));
    return out;
  }

  /// AlphaString without the allocation: writes into `dst` (which must
  /// hold `max_len` bytes, no terminator added) and returns the length.
  /// Consumes the identical generator draws as AlphaString, so the two
  /// are interchangeable without perturbing the stream — bulk loaders
  /// use this form to keep millions of column fills off the heap.
  int AlphaStringInto(char* dst, int min_len, int max_len) {
    static constexpr char kChars[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    const int len = static_cast<int>(Uniform(min_len, max_len));
    // The state lives in locals across the loop: a store through `dst`
    // may alias s_, which would make every character write and reload
    // all four words.
    uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
    for (int i = 0; i < len; ++i) {
      dst[i] = kChars[Step(s) % 62];
    }
    for (int k = 0; k < 4; ++k) s_[k] = s[k];
    return len;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  /// One xoshiro256** step on the state `s`.
  static uint64_t Step(uint64_t* s) {
    const uint64_t result = Rotl(s[1] * 5, 7) * 9;
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = Rotl(s[3], 45);
    return result;
  }
  uint64_t s_[4];
};

/// Zipfian distribution over [0, n), computed with the Gray et al. method.
/// Used for skewed OLTP record popularity (hot warehouses/items), which is
/// what creates a small primary working set atop a large secondary one.
class ZipfGenerator {
 public:
  /// `theta` in [0,1): 0 is uniform; 0.99 is highly skewed.
  ZipfGenerator(uint64_t n, double theta) : n_(n), theta_(theta) {
    assert(n > 0);
    zetan_ = MemoZeta(n, theta);
    zeta2_ = Zeta(2, theta);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
  }

  uint64_t Next(Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    return static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  static double Zeta(uint64_t n, double theta) {
    double sum = 0.0;
    for (uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }

  /// Zeta(n, theta) computed once per process: every shaped client of a
  /// build constructs a generator over the same (n, theta), and the O(n)
  /// sum dominated that setup. The sum is a pure function of its key, so
  /// the memo never changes a draw; the mutex makes it safe for
  /// concurrent builds.
  static double MemoZeta(uint64_t n, double theta) {
    static std::mutex mu;
    static std::map<std::pair<uint64_t, double>, double> memo;
    std::lock_guard<std::mutex> lock(mu);
    const auto [it, fresh] = memo.try_emplace({n, theta}, 0.0);
    if (fresh) it->second = Zeta(n, theta);
    return it->second;
  }

  uint64_t n_;
  double theta_;
  double zetan_;
  double zeta2_;
  double alpha_;
  double eta_;
};

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_RNG_H_
