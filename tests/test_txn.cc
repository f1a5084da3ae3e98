// Tests for the transaction substrate: lock manager, log, 2PL lifecycle.
#include <gtest/gtest.h>

#include "common/arena.h"
#include "db/txn.h"

namespace stagedcmp::db {
namespace {

TEST(LockManagerTest, AcquireCountsBuckets) {
  Arena arena;
  LockManager lm(&arena);
  lm.Acquire(1, LockMode::kShared, nullptr);
  lm.Acquire(2, LockMode::kExclusive, nullptr);
  lm.Acquire(1, LockMode::kShared, nullptr);
  EXPECT_EQ(lm.total_acquisitions(), 3u);
}

TEST(LockManagerTest, ReleaseBalancesHolders) {
  Arena arena;
  LockManager lm(&arena);
  const size_t b = lm.Acquire(42, LockMode::kExclusive, nullptr);
  lm.Release(b, LockMode::kExclusive, nullptr);
  // Re-acquire works and counts.
  lm.Acquire(42, LockMode::kExclusive, nullptr);
  EXPECT_EQ(lm.total_acquisitions(), 2u);
}

TEST(LockManagerTest, TracedAcquireTouchesSharedBucket) {
  Arena arena;
  LockManager lm(&arena);
  const trace::RegionSet regions;
  trace::Tracer t(&regions);
  lm.Acquire(7, LockMode::kExclusive, &t);
  t.FlushCompute();
  bool saw_write = false, saw_read = false;
  for (uint64_t e : trace::DecodeEvents(t.TakeTrace())) {
    saw_write |= trace::UnpackKind(e) == trace::EventKind::kWrite;
    saw_read |= trace::UnpackKind(e) == trace::EventKind::kRead;
  }
  EXPECT_TRUE(saw_write);  // latch RMW
  EXPECT_TRUE(saw_read);
}

TEST(LockManagerTest, SameKeySameBucketAddress) {
  // Two clients tracing the same lock key must touch the same line —
  // that physical sharing is what the SMP coherence results rely on.
  Arena arena;
  LockManager lm(&arena);
  auto first_write_addr = [&](uint64_t key) {
    const trace::RegionSet regions;
    trace::Tracer t(&regions);
    lm.Acquire(key, LockMode::kShared, &t);
    t.FlushCompute();
    for (uint64_t e : trace::DecodeEvents(t.TakeTrace())) {
      if (trace::UnpackKind(e) == trace::EventKind::kWrite) {
        return trace::UnpackAddr(e);
      }
    }
    return uint64_t{0};
  };
  EXPECT_EQ(first_write_addr(99), first_write_addr(99));
}

TEST(LogBufferTest, AppendsCount) {
  Arena arena;
  LogBuffer log(&arena);
  const trace::RegionSet regions;
  trace::Tracer t(&regions);
  for (int i = 0; i < 10; ++i) log.Append(96, &t);
  EXPECT_EQ(log.records(), 10u);
}

TEST(TransactionTest, CommitReleasesEverything) {
  Arena arena;
  LockManager lm(&arena);
  LogBuffer log(&arena);
  Transaction txn(&lm, &log);
  txn.Begin(nullptr);
  txn.Lock(1, LockMode::kShared, nullptr);
  txn.Lock(2, LockMode::kExclusive, nullptr);
  EXPECT_EQ(txn.locks_held(), 2u);
  txn.Commit(nullptr);
  EXPECT_EQ(txn.locks_held(), 0u);
  EXPECT_EQ(log.records(), 1u);  // commit record
}

TEST(TransactionTest, ReusableAcrossCycles) {
  Arena arena;
  LockManager lm(&arena);
  LogBuffer log(&arena);
  Transaction txn(&lm, &log);
  for (int i = 0; i < 5; ++i) {
    txn.Begin(nullptr);
    txn.Lock(static_cast<uint64_t>(i), LockMode::kExclusive, nullptr);
    txn.Commit(nullptr);
  }
  EXPECT_EQ(lm.total_acquisitions(), 5u);
  EXPECT_EQ(log.records(), 5u);
}

}  // namespace
}  // namespace stagedcmp::db
