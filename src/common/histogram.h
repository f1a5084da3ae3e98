// Log-scale latency histogram used by the simulator's queueing
// instrumentation.
#ifndef STAGEDCMP_COMMON_HISTOGRAM_H_
#define STAGEDCMP_COMMON_HISTOGRAM_H_

#include <array>
#include <cstdint>

namespace stagedcmp {

/// Power-of-two bucketed histogram for non-negative integer samples
/// (e.g. per-access latency in cycles). Bucket i holds values in
/// [2^(i-1), 2^i) with bucket 0 holding {0}.
class LogHistogram {
 public:
  static constexpr int kBuckets = 40;

  void Add(uint64_t v) {
    int b = v == 0 ? 0 : 64 - __builtin_clzll(v);
    if (b >= kBuckets) b = kBuckets - 1;
    ++buckets_[static_cast<size_t>(b)];
    ++count_;
    sum_ += v;
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0;
  }

  /// Restores an aggregate recorded elsewhere. Count/sum only — bucket
  /// detail is not transported — which is exactly what the sweep shard
  /// files carry (sinks read mean() alone). sweep/shard.cc merge path.
  void RestoreAggregate(uint64_t count, uint64_t sum) {
    count_ = count;
    sum_ = sum;
  }

  /// Approximate quantile from bucket boundaries (upper bound of bucket).
  uint64_t Quantile(double q) const {
    if (count_ == 0) return 0;
    uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_));
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += buckets_[static_cast<size_t>(i)];
      if (seen > target) return i == 0 ? 0 : (1ULL << i) - 1;
    }
    return (1ULL << (kBuckets - 1));
  }

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_HISTOGRAM_H_
