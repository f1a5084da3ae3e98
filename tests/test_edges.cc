// Edge-case and death tests for thin seams: Status error propagation
// through module-boundary validation APIs, and the transaction commit path's
// shared-structure traffic.
#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/status.h"
#include "db/bptree.h"
#include "db/txn.h"
#include "memsim/cache.h"

namespace stagedcmp {
namespace {

// --- Status propagation ---------------------------------------------------

TEST(StatusEdgeTest, EveryFactoryCarriesItsCode) {
  struct Case {
    Status status;
    StatusCode code;
    const char* name;
  };
  const Case cases[] = {
      {Status::InvalidArgument("m"), StatusCode::kInvalidArgument,
       "InvalidArgument"},
      {Status::Internal("m"), StatusCode::kInternal, "Internal"},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(c.status.message(), "m");
    EXPECT_EQ(c.status.ToString(), std::string(c.name) + ": m");
  }
}

TEST(StatusEdgeTest, OkCarriesNoMessage) {
  Status s = Status::Ok();
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
  EXPECT_EQ(s.ToString(), "OK");
}

// The idiomatic early-return chain: the innermost failure surfaces
// unchanged through every propagating frame.
TEST(StatusEdgeTest, PropagatesThroughCallChain) {
  auto inner = [](bool fail) {
    return fail ? Status::InvalidArgument("index 9 past end 4")
                : Status::Ok();
  };
  auto middle = [&](bool fail) {
    Status s = inner(fail);
    if (!s.ok()) return s;
    return Status::Ok();
  };
  auto outer = [&](bool fail) {
    Status s = middle(fail);
    if (!s.ok()) return s;
    return Status::Ok();
  };
  EXPECT_TRUE(outer(false).ok());
  Status s = outer(true);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("index 9 past end 4"), std::string::npos);
}

TEST(StatusEdgeTest, CopyAndMovePreserveState) {
  Status orig = Status::Internal("broken invariant");
  Status copy = orig;
  EXPECT_EQ(copy.code(), StatusCode::kInternal);
  EXPECT_EQ(copy.message(), orig.message());
  Status moved = std::move(orig);
  EXPECT_EQ(moved.code(), StatusCode::kInternal);
  EXPECT_EQ(moved.message(), "broken invariant");
}

// Module-boundary propagation: Cache::Validate reports each way a cache
// geometry can be malformed, with a distinct message per failure.
TEST(StatusEdgeTest, CacheValidateRejectsEachMalformation) {
  using memsim::Cache;
  using memsim::CacheConfig;
  EXPECT_TRUE(Cache::Validate(CacheConfig{64 * 1024, 4, 64}).ok());

  const CacheConfig bad_line{64 * 1024, 4, 48};     // not a power of two
  const CacheConfig tiny_line{64 * 1024, 4, 4};     // below minimum
  const CacheConfig no_ways{64 * 1024, 0, 64};      // zero associativity
  const CacheConfig ragged{60 * 1024, 7, 64};       // size % (assoc*line)
  const CacheConfig odd_sets{3 * 64 * 1024, 4, 64}; // sets not pow2
  for (const CacheConfig& c :
       {bad_line, tiny_line, no_ways, ragged, odd_sets}) {
    Status s = Cache::Validate(c);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(s.message().empty());
  }
}

TEST(StatusEdgeTest, BptreeInvariantsHoldAfterMixedInserts) {
  Arena arena;
  db::BPlusTree tree(&arena);
  for (uint64_t k = 0; k < 3000; ++k) {
    tree.Insert((k * 2654435761u) % 4096, k, nullptr);
  }
  Status s = tree.CheckInvariants();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

#ifndef NDEBUG
// Construction from an unvalidated config is a programming error the
// constructor refuses (assert); callers must Validate first.
TEST(StatusDeathTest, CacheConstructorRejectsInvalidGeometry) {
  EXPECT_DEATH(memsim::Cache(memsim::CacheConfig{64 * 1024, 0, 64}), "");
}
#endif

// --- Transaction commit path ---------------------------------------------

class TxnCommitTest : public ::testing::Test {
 protected:
  Arena arena_;
  db::LockManager lm_{&arena_};
  db::LogBuffer log_{&arena_};
};

TEST_F(TxnCommitTest, CommitBalancesBucketHolders) {
  db::Transaction txn(&lm_, &log_);
  txn.Begin(nullptr);
  std::vector<size_t> buckets;
  for (uint64_t k = 100; k < 110; ++k) {
    buckets.push_back(lm_.Acquire(k, db::LockMode::kExclusive, nullptr));
    lm_.Release(buckets.back(), db::LockMode::kExclusive, nullptr);
  }
  for (uint64_t k = 100; k < 110; ++k) {
    txn.Lock(k, db::LockMode::kExclusive, nullptr);
  }
  txn.Commit(nullptr);
  for (size_t b : buckets) {
    EXPECT_EQ(lm_.holders(b), 0u);
  }
}

TEST_F(TxnCommitTest, TracedCommitTouchesSharedStructures) {
  db::Transaction txn(&lm_, &log_);
  const trace::RegionSet regions;
  trace::Tracer t(&regions);
  txn.Begin(&t);
  txn.Lock(13, db::LockMode::kExclusive, &t);
  const size_t events_before_commit = t.events_size();
  txn.Commit(&t);
  t.FlushCompute();
  // Commit emits log-tail and lock-bucket traffic: the coherence
  // hotspots the SMP results are built on.
  EXPECT_GT(t.events_size(), events_before_commit);
  bool saw_write = false;
  for (uint64_t e : trace::DecodeEvents(t.TakeTrace())) {
    saw_write |= trace::UnpackKind(e) == trace::EventKind::kWrite;
  }
  EXPECT_TRUE(saw_write);
}

}  // namespace
}  // namespace stagedcmp
