// Unit tests for common utilities: RNG, Zipf, arena, statistics, printer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <new>
#include <set>
#include <sstream>
#include <string>

#include "common/arena.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table_printer.h"

namespace stagedcmp {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad size");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("bad size"), std::string::npos);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.Uniform(5, 17);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NuRandWithinBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.NuRand(255, 1, 1200, 173);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 1200);
  }
}

TEST(RngTest, AlphaStringLengthBounds) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const std::string s = rng.AlphaString(5, 12);
    EXPECT_GE(s.size(), 5u);
    EXPECT_LE(s.size(), 12u);
  }
}

// The per-character loop AlphaStringInto replaced: one Next() per
// character, through the member state.
std::string ReferenceAlphaString(Rng* rng, int min_len, int max_len) {
  static constexpr char kChars[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
  const int len = static_cast<int>(rng->Uniform(min_len, max_len));
  std::string out;
  for (int i = 0; i < len; ++i) out += kChars[rng->Next() % 62];
  return out;
}

// AlphaStringInto keeps the generator state in locals across its loop;
// it must draw exactly what the reference draws and leave the generator
// where the reference leaves it.
TEST(RngTest, AlphaStringIntoMatchesAlphaString) {
  for (int len = 0; len <= 200; ++len) {
    for (const int min_len : {len, 0}) {
      Rng fast(1000 + len), ref(1000 + len);
      char buf[200];
      const int n = fast.AlphaStringInto(buf, min_len, len);
      EXPECT_EQ(std::string(buf, static_cast<size_t>(n)),
                ReferenceAlphaString(&ref, min_len, len))
          << "lengths " << min_len << ".." << len;
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(fast.Next(), ref.Next())
            << "lengths " << min_len << ".." << len;
      }
    }
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, BoundsRespected) {
  Rng rng(6);
  ZipfGenerator zipf(100, 0.9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(rng), 100u);
}

TEST(ZipfTest, SkewConcentratesMass) {
  Rng rng(7);
  ZipfGenerator zipf(1000, 0.99);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) head += (zipf.Next(rng) < 100);
  // With theta=0.99 the top decile draws well over half the accesses.
  EXPECT_GT(head, n / 2);
}

TEST(ZipfTest, MemoizedZetaDrawsLikeTheFirstGenerator) {
  // The first generator over (n, theta) fills the zeta memo, the second
  // reads it: both must draw the identical sequence from equal seeds.
  ZipfGenerator first(4321, 0.61);
  ZipfGenerator second(4321, 0.61);
  Rng a(9), b(9);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(first.Next(a), second.Next(b));
}

TEST(ZipfTest, ZeroThetaIsRoughlyUniform) {
  Rng rng(8);
  ZipfGenerator zipf(10, 0.0);
  std::array<int, 10> counts{};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Next(rng)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 / 2);
    EXPECT_LT(c, n / 10 * 2);
  }
}

TEST(ArenaTest, PointersStableAndDistinct) {
  Arena arena(128);  // one page per block: the ints span blocks
  std::vector<int*> ptrs;
  for (int i = 0; i < 1000; ++i) {
    int* p = static_cast<int*>(arena.Allocate(sizeof(int)));
    *p = i;
    ptrs.push_back(p);
  }
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(*ptrs[i], i);
  std::set<int*> unique(ptrs.begin(), ptrs.end());
  EXPECT_EQ(unique.size(), ptrs.size());
}

TEST(ArenaTest, DatabaseSizedBlocksStartOnAHugePageBoundary) {
  Arena arena(4 << 20);
  void* p = arena.Allocate(64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % Arena::kHugePage, 0u);
  // The oversized allocation gets its own huge-page-aligned block too.
  void* q = arena.Allocate(5 << 20);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(q) % Arena::kHugePage, 0u);
}

TEST(ArenaTest, AlignmentHonoredAcrossBlockBoundaries) {
  Arena arena(64);
  std::set<uintptr_t> blocks;
  for (int i = 0; i < 2000; ++i) {
    const size_t align = size_t{8} << (i % 7);  // 8 .. 512
    const auto p = reinterpret_cast<uintptr_t>(arena.Allocate(24, align));
    EXPECT_EQ(p % align, 0u) << "allocation " << i << " align " << align;
    blocks.insert(p / 4096);
  }
  EXPECT_GT(blocks.size(), 2u) << "the allocations never left one block";
}

TEST(ArenaTest, LargeAllocationGetsItsOwnMapping) {
  Arena arena(4096);
  char* small = static_cast<char*>(arena.Allocate(16));
  const size_t after_small = arena.reserved_bytes();
  char* big = static_cast<char*>(arena.Allocate(3 * 4096));
  EXPECT_GE(arena.reserved_bytes() - after_small, 3u * 4096);
  big[0] = 1;
  big[3 * 4096 - 1] = 2;
  // Not carved from the first block.
  EXPECT_TRUE(big + 3 * 4096 <= small || big >= small + 4096);
}

TEST(ArenaTest, ReservedBytesCountsMappedPages) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  Arena arena(100);
  EXPECT_EQ(arena.reserved_bytes(), 0u);
  arena.Allocate(10);
  EXPECT_EQ(arena.reserved_bytes(), page);  // a 100-byte block maps a page
  arena.Allocate(page + 1);  // its own two-page block
  EXPECT_EQ(arena.reserved_bytes(), 3 * page);
  Arena huge(4 << 20);
  huge.Allocate(1);
  EXPECT_EQ(huge.reserved_bytes(), size_t{4} << 20);
}

TEST(ArenaTest, UnmappableAllocationThrowsAndMapsNothing) {
  Arena arena(4 << 20);
  EXPECT_THROW(arena.Allocate(size_t{1} << 62), std::bad_alloc);
  EXPECT_EQ(arena.reserved_bytes(), 0u);
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  // The arena stays usable.
  EXPECT_NE(arena.Allocate(64), nullptr);
  EXPECT_EQ(arena.reserved_bytes(), size_t{4} << 20);
}

TEST(AddressSpaceTest, CarvesInOrderAlignsHugeBlocksAndNeverReuses) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  AddressSpace space;
  const uintptr_t base = space.base();
  EXPECT_EQ(base % AddressSpace::kHugePage, 0u);
  char* a = space.Carve(page);
  char* b = space.Carve(2 * page);
  char* huge = space.Carve(AddressSpace::kHugePage);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a), base);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b), base + page);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(huge), base + AddressSpace::kHugePage);
  a[0] = 1;
  b[2 * page - 1] = 2;
  huge[AddressSpace::kHugePage - 1] = 3;
  // A block that does not fit throws and carves nothing.
  EXPECT_THROW(space.Carve(AddressSpace::kBytes), std::bad_alloc);
  EXPECT_EQ(space.used(), 2 * AddressSpace::kHugePage);
  // A released block's range is never handed out again.
  space.Release(b, 2 * page);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(space.Carve(page)),
            base + 2 * AddressSpace::kHugePage);
}

TEST(ArenaTest, ArenasSharingASpaceCarveInAllocationOrder) {
  AddressSpace space;
  Arena first(&space, 4096);
  Arena second(&space, 4096);
  char* a = static_cast<char*>(first.Allocate(64));
  char* b = static_cast<char*>(second.Allocate(64));
  char* c = static_cast<char*>(first.Allocate(4096));  // a block of its own
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a), space.base());
  EXPECT_EQ(b, a + 4096);
  EXPECT_GT(c, b);
}

TEST(ArenaTest, AllocateArrayConstructs) {
  Arena arena;
  struct Obj {
    int x = 42;
  };
  Obj* arr = arena.AllocateArray<Obj>(100);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(arr[i].x, 42);
}

TEST(LogHistogramTest, CountsAndMean) {
  LogHistogram h;
  h.Add(0);
  h.Add(1);
  h.Add(100);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.mean(), 101.0 / 3, 1e-9);
}

TEST(LogHistogramTest, QuantileMonotone) {
  LogHistogram h;
  for (uint64_t i = 0; i < 1000; ++i) h.Add(i);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.9));
  EXPECT_LE(h.Quantile(0.9), h.Quantile(0.99));
}

TEST(TablePrinterTest, CsvRoundtrip) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "2"});
  t.AddRow({"x", "y"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\nx,y\n");
}

TEST(TablePrinterTest, NumAndPctFormat) {
  EXPECT_EQ(TablePrinter::Num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Pct(0.5), "50.0%");
}

}  // namespace
}  // namespace stagedcmp
