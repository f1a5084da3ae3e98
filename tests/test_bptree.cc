// Tests for the B+-tree: correctness vs a reference std::multimap, plus
// structural invariants across randomized workloads.
#include <gtest/gtest.h>

#include <map>

#include "common/arena.h"
#include "common/rng.h"
#include "db/bptree.h"

namespace stagedcmp::db {
namespace {

TEST(BPlusTreeTest, EmptyLookupFails) {
  Arena arena;
  BPlusTree tree(&arena);
  uint64_t v;
  EXPECT_FALSE(tree.Lookup(42, &v, nullptr));
  EXPECT_EQ(tree.size(), 0u);
}

TEST(BPlusTreeTest, InsertLookupSmall) {
  Arena arena;
  BPlusTree tree(&arena);
  for (uint64_t k = 0; k < 100; ++k) tree.Insert(k * 3, k, nullptr);
  uint64_t v;
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree.Lookup(k * 3, &v, nullptr));
    EXPECT_EQ(v, k);
  }
  EXPECT_FALSE(tree.Lookup(1, &v, nullptr));
  EXPECT_EQ(tree.size(), 100u);
}

TEST(BPlusTreeTest, SplitsGrowHeight) {
  Arena arena;
  BPlusTree tree(&arena);
  EXPECT_EQ(tree.height(), 1u);
  for (uint64_t k = 0; k < 100000; ++k) tree.Insert(k, k, nullptr);
  EXPECT_GE(tree.height(), 2u);
  EXPECT_EQ(tree.size(), 100000u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, ScanReturnsSortedRange) {
  Arena arena;
  BPlusTree tree(&arena);
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) tree.Insert(rng.Next() % 100000, i, nullptr);
  uint64_t prev = 0;
  bool first = true;
  uint64_t n = tree.Scan(1000, 50000,
                         [&](uint64_t k, uint64_t) {
                           EXPECT_GE(k, 1000u);
                           EXPECT_LE(k, 50000u);
                           if (!first) {
                             EXPECT_GE(k, prev);
                           }
                           prev = k;
                           first = false;
                           return true;
                         },
                         nullptr);
  EXPECT_GT(n, 0u);
}

TEST(BPlusTreeTest, ScanEarlyTermination) {
  Arena arena;
  BPlusTree tree(&arena);
  for (uint64_t k = 0; k < 1000; ++k) tree.Insert(k, k, nullptr);
  int visited = 0;
  tree.Scan(0, 999,
            [&](uint64_t, uint64_t) { return ++visited < 10; }, nullptr);
  EXPECT_EQ(visited, 10);
}

TEST(BPlusTreeTest, FindLastReturnsGreatestInRange) {
  Arena arena;
  BPlusTree tree(&arena);
  for (uint64_t k = 10; k <= 100; k += 10) tree.Insert(k, k * 2, nullptr);
  uint64_t key, val;
  ASSERT_TRUE(tree.FindLast(15, 75, &key, &val, nullptr));
  EXPECT_EQ(key, 70u);
  EXPECT_EQ(val, 140u);
  EXPECT_FALSE(tree.FindLast(101, 200, &key, &val, nullptr));
}

TEST(BPlusTreeTest, DuplicateKeysAllKept) {
  Arena arena;
  BPlusTree tree(&arena);
  for (uint64_t i = 0; i < 500; ++i) tree.Insert(7, i, nullptr);
  uint64_t count = 0;
  tree.Scan(7, 7, [&](uint64_t, uint64_t) { ++count; return true; }, nullptr);
  EXPECT_EQ(count, 500u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, TracedDescentEmitsDependentReads) {
  Arena arena;
  BPlusTree tree(&arena);
  for (uint64_t k = 0; k < 100000; ++k) tree.Insert(k, k, nullptr);
  trace::CodeMap code;
  const trace::RegionSet regions(&code);
  trace::Tracer tracer(&regions);
  uint64_t v;
  tree.Lookup(500, &v, &tracer);
  tracer.FlushCompute();
  int dependent_reads = 0;
  for (uint64_t e : tracer.trace().events) {
    if (trace::UnpackKind(e) == trace::EventKind::kRead &&
        trace::UnpackDependent(e)) {
      ++dependent_reads;
    }
  }
  // At least one probe chain per level.
  EXPECT_GE(dependent_reads, static_cast<int>(tree.height()));
}

// Randomized differential test against std::multimap, parameterized on
// (number of keys, key-space size) to cover dense/sparse/duplicate-heavy
// regimes.
class BPlusTreeRandomTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(BPlusTreeRandomTest, MatchesReferenceMultimap) {
  const int n = std::get<0>(GetParam());
  const uint64_t space = std::get<1>(GetParam());
  Arena arena;
  BPlusTree tree(&arena);
  std::multimap<uint64_t, uint64_t> ref;
  Rng rng(1234 + static_cast<uint64_t>(n) + space);
  for (int i = 0; i < n; ++i) {
    const uint64_t k = rng.Next() % space;
    tree.Insert(k, static_cast<uint64_t>(i), nullptr);
    ref.emplace(k, static_cast<uint64_t>(i));
  }
  ASSERT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants().ToString();
  EXPECT_EQ(tree.size(), ref.size());

  // Point lookups agree on existence.
  for (int i = 0; i < 200; ++i) {
    const uint64_t k = rng.Next() % space;
    uint64_t v;
    EXPECT_EQ(tree.Lookup(k, &v, nullptr), ref.count(k) > 0) << k;
  }
  // Range scans agree on cardinality and key multiset.
  for (int i = 0; i < 20; ++i) {
    uint64_t lo = rng.Next() % space;
    uint64_t hi = rng.Next() % space;
    if (lo > hi) std::swap(lo, hi);
    std::vector<uint64_t> got;
    tree.Scan(lo, hi, [&](uint64_t k, uint64_t) {
      got.push_back(k);
      return true;
    }, nullptr);
    std::vector<uint64_t> want;
    for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
         ++it) {
      want.push_back(it->first);
    }
    EXPECT_EQ(got, want) << "range [" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BPlusTreeRandomTest,
    ::testing::Combine(::testing::Values(100, 5000, 50000),
                       ::testing::Values(64ull, 4096ull, 1ull << 40)));

}  // namespace
}  // namespace stagedcmp::db
