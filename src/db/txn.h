// Transaction substrate: two-phase-locking lock manager, transaction
// contexts, and a shared log buffer.
//
// Lock-table buckets and the log tail are shared, frequently *written*
// structures: on the SMP configuration they ping-pong between private L2s
// as coherence misses; on the CMP they become shared-L2 hits — the exact
// mechanism behind the paper's Figure 7.
#ifndef STAGEDCMP_DB_TXN_H_
#define STAGEDCMP_DB_TXN_H_

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "trace/cost_model.h"
#include "trace/tracer.h"

namespace stagedcmp::db {

enum class LockMode : uint8_t { kShared, kExclusive };

/// Fixed-size hash lock table. This is a *trace-level* lock manager: the
/// replay methodology serializes clients, so no waiting happens natively —
/// but every acquire/release touches the shared bucket, which is what the
/// memory-system characterization needs.
class LockManager {
 public:
  static constexpr size_t kBuckets = 4096;

  explicit LockManager(Arena* arena) {
    buckets_ = arena->AllocateArray<Bucket>(kBuckets);
    region_ = trace::RegionId::kLockMgr;
  }

  /// Acquires (records) a lock on `key`; returns the bucket index.
  size_t Acquire(uint64_t key, LockMode mode, trace::Tracer* t) {
    const size_t b = Hash(key) % kBuckets;
    Bucket& bucket = buckets_[b];
    if (t != nullptr) {
      t->EnterRegion(region_);
      t->Compute(trace::CostModel::kLockAcquire);
      // Latch acquisition is a read-modify-write on the bucket head: the
      // read half is the coherence-miss magnet on SMPs (another node's
      // recent release leaves the line Modified remotely).
      t->Read(&bucket, 8, 4, /*dependent=*/true);
      t->Write(&bucket, sizeof(Bucket), 6, /*dependent=*/true);
    }
    ++bucket.acquisitions;
    bucket.holders += 1;
    if (mode == LockMode::kExclusive) bucket.exclusive += 1;
    return b;
  }

  void Release(size_t bucket_idx, LockMode mode, trace::Tracer* t) {
    Bucket& bucket = buckets_[bucket_idx];
    if (t != nullptr) {
      t->EnterRegion(region_);
      t->Compute(trace::CostModel::kLockRelease);
      t->Write(&bucket, 16, 4, /*dependent=*/true);
    }
    if (bucket.holders > 0) bucket.holders -= 1;
    if (mode == LockMode::kExclusive && bucket.exclusive > 0) {
      bucket.exclusive -= 1;
    }
  }

  uint64_t total_acquisitions() const {
    uint64_t n = 0;
    for (size_t i = 0; i < kBuckets; ++i) n += buckets_[i].acquisitions;
    return n;
  }

  /// Current holder count of one bucket (tests: commit/abort must balance).
  uint32_t holders(size_t bucket_idx) const {
    return buckets_[bucket_idx].holders;
  }

 private:
  struct alignas(64) Bucket {
    uint64_t acquisitions = 0;
    uint32_t holders = 0;
    uint32_t exclusive = 0;
    uint8_t pad[48];
  };

  static uint64_t Hash(uint64_t k) {
    k ^= k >> 33;
    k *= 0xFF51AFD7ED558CCDULL;
    k ^= k >> 33;
    return k;
  }

  Bucket* buckets_;
  trace::RegionId region_;
};

/// Shared append-only log buffer (group-commit tail is a write hotspot).
class LogBuffer {
 public:
  explicit LogBuffer(Arena* arena, size_t bytes = 1 << 20)
      : size_(bytes) {
    // The tail word gets a line of its own: it is the hotspot.
    tail_ = static_cast<uint64_t*>(arena->Allocate(64, 64));
    *tail_ = 0;
    data_ = static_cast<uint8_t*>(arena->Allocate(bytes, 64));
    region_ = trace::RegionId::kTxn;
  }

  /// Appends a log record of `bytes` (content is synthetic).
  void Append(uint32_t bytes, trace::Tracer* t) {
    if (t != nullptr) {
      t->EnterRegion(region_);
      t->Compute(trace::CostModel::kLogRecord);
      // Tail pointer bump: read-modify-write on the classic shared
      // hotspot; the read half ping-pongs between SMP nodes.
      t->Read(tail_, 8, 4, /*dependent=*/true);
      t->Write(tail_, 8, 4, /*dependent=*/true);
      t->Write(data_ + (*tail_ % (size_ - bytes)), bytes, 4);
    }
    *tail_ += bytes;
    ++records_;
  }

  uint64_t records() const { return records_; }

 private:
  uint64_t* tail_;
  uint8_t* data_;
  size_t size_;
  uint64_t records_ = 0;
  trace::RegionId region_;
};

/// A 2PL transaction: acquires during execution, releases at commit.
class Transaction {
 public:
  Transaction(LockManager* lm, LogBuffer* log) : lm_(lm), log_(log) {}

  void Begin(trace::Tracer* t) {
    if (t != nullptr) {
      t->EnterRegion(trace::RegionId::kTxn);
      t->Compute(trace::CostModel::kTxnBeginCommit);
    }
    held_.clear();
  }

  void Lock(uint64_t key, LockMode mode, trace::Tracer* t) {
    const size_t b = lm_->Acquire(key, mode, t);
    held_.push_back({b, mode});
  }

  /// Appends the commit record, then releases every held lock in reverse
  /// acquisition order.
  void Commit(trace::Tracer* t) {
    if (log_ != nullptr) log_->Append(/*bytes=*/96, t);
    for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
      lm_->Release(it->bucket, it->mode, t);
    }
    if (t != nullptr) t->Compute(trace::CostModel::kTxnBeginCommit);
    held_.clear();
  }

  size_t locks_held() const { return held_.size(); }

 private:
  struct Held {
    size_t bucket;
    LockMode mode;
  };

  LockManager* lm_;
  LogBuffer* log_;
  std::vector<Held> held_;
};

}  // namespace stagedcmp::db

#endif  // STAGEDCMP_DB_TXN_H_
