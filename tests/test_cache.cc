// Unit tests for the set-associative cache (memsim/cache.*).
#include "memsim/cache.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace stagedcmp::memsim {
namespace {

CacheConfig Small() { return CacheConfig{1024, 2, 64}; }  // 8 sets x 2 ways

// Line-address shorthands over the probe API, for terse test setup.
bool Access(Cache& c, uint64_t line, bool is_write) {
  return c.AccessAt(c.Probe(line), is_write);
}
EvictedLine Fill(Cache& c, uint64_t line, bool is_write) {
  return c.FillAt(c.Probe(line), line, is_write);
}
LineState State(const Cache& c, uint64_t line) {
  return c.StateAt(c.Probe(line));
}

TEST(CacheConfigTest, NumSets) {
  EXPECT_EQ(Small().num_sets(), 8u);
  EXPECT_EQ((CacheConfig{64 * 1024, 4, 64}).num_sets(), 256u);
}

TEST(CacheConfigTest, ValidateRejectsBadGeometry) {
  EXPECT_FALSE(Cache::Validate(CacheConfig{1000, 2, 64}).ok());
  EXPECT_FALSE(Cache::Validate(CacheConfig{1024, 0, 64}).ok());
  EXPECT_FALSE(Cache::Validate(CacheConfig{1024, 2, 48}).ok());
  EXPECT_FALSE(Cache::Validate(CacheConfig{64, 2, 64}).ok());
  EXPECT_TRUE(Cache::Validate(CacheConfig{1024, 2, 64}).ok());
}

TEST(CacheTest, MissThenHit) {
  Cache c(Small());
  EXPECT_FALSE(Access(c, 100, false));
  Fill(c, 100, false);
  EXPECT_TRUE(Access(c, 100, false));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheTest, WriteMarksModified) {
  Cache c(Small());
  Fill(c, 5, false);
  EXPECT_EQ(State(c, 5), LineState::kExclusive);
  Access(c, 5, true);
  EXPECT_EQ(State(c, 5), LineState::kModified);
}

TEST(CacheTest, FillWithWriteIsModified) {
  Cache c(Small());
  Fill(c, 9, true);
  EXPECT_EQ(State(c, 9), LineState::kModified);
}

TEST(CacheTest, LruEvictsOldest) {
  Cache c(Small());  // 2 ways per set; lines k, k+8, k+16 map to set k%8
  Fill(c, 0, false);
  Fill(c, 8, false);
  Access(c, 0, false);           // 0 is now MRU
  EvictedLine ev = Fill(c, 16, false);
  EXPECT_TRUE(ev.valid);
  EXPECT_EQ(ev.line_addr, 8u);  // LRU way evicted
  EXPECT_TRUE(c.Probe(0).hit());
  EXPECT_TRUE(c.Probe(16).hit());
  EXPECT_FALSE(c.Probe(8).hit());
}

TEST(CacheTest, DirtyEvictionReportsWriteback) {
  Cache c(Small());
  Fill(c, 0, true);  // dirty
  Fill(c, 8, false);
  EvictedLine ev = Fill(c, 16, false);
  EXPECT_TRUE(ev.valid);
  EXPECT_EQ(ev.line_addr, 0u);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(c.writebacks(), 1u);
}

TEST(CacheTest, InvalidateRemovesLine) {
  Cache c(Small());
  Fill(c, 3, true);
  EXPECT_TRUE(c.Probe(3).hit());
  EXPECT_TRUE(c.InvalidateAt(c.Probe(3)));  // returns dirty
  EXPECT_FALSE(c.Probe(3).hit());
  EXPECT_FALSE(c.InvalidateAt(c.Probe(3)));
}

TEST(CacheTest, DowngradeToShared) {
  Cache c(Small());
  Fill(c, 3, true);
  EXPECT_TRUE(c.DowngradeAt(c.Probe(3)));  // was dirty
  EXPECT_EQ(State(c, 3), LineState::kShared);
  EXPECT_FALSE(c.DowngradeAt(c.Probe(3)));  // now clean
}

TEST(CacheTest, CapacityBound) {
  Cache c(Small());  // 16 lines total
  for (uint64_t i = 0; i < 100; ++i) Fill(c, i, false);
  EXPECT_EQ(c.CountValid(), 16u);
}

TEST(CacheTest, ResetCountersKeepsContents) {
  Cache c(Small());
  Fill(c, 1, false);
  Access(c, 1, false);
  c.ResetCounters();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_TRUE(c.Probe(1).hit());
}

TEST(CacheTest, DistinctSetsDoNotConflict) {
  Cache c(Small());
  for (uint64_t s = 0; s < 8; ++s) {
    Fill(c, s, false);
    Fill(c, s + 8, false);
  }
  for (uint64_t s = 0; s < 8; ++s) {
    EXPECT_TRUE(c.Probe(s).hit());
    EXPECT_TRUE(c.Probe(s + 8).hit());
  }
}

// Property sweep: hit rate under a cyclic working set is ~1 when the set
// fits, and collapses under LRU when it exceeds capacity (sequential cycle
// is LRU's worst case). Also: a bigger cache never hurts for this pattern.
class CacheWorkingSetTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(CacheWorkingSetTest, CyclicWorkingSetHitRate) {
  const uint64_t cache_bytes = std::get<0>(GetParam());
  const uint32_t ws_lines = std::get<1>(GetParam());
  Cache c(CacheConfig{cache_bytes, 8, 64});
  const uint64_t capacity_lines = cache_bytes / 64;

  for (int rep = 0; rep < 50; ++rep) {
    for (uint32_t i = 0; i < ws_lines; ++i) {
      if (!Access(c, i, false)) Fill(c, i, false);
    }
  }
  const double hr = c.hit_rate();
  if (ws_lines <= capacity_lines * 3 / 4) {
    EXPECT_GT(hr, 0.95) << "working set fits but hit rate low";
  }
  if (ws_lines > capacity_lines * 2) {
    EXPECT_LT(hr, 0.30) << "thrashing working set should mostly miss";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheWorkingSetTest,
    ::testing::Combine(::testing::Values(4096ull, 16384ull, 65536ull),
                       ::testing::Values(16u, 64u, 256u, 2048u)));

// -- Single-probe API ------------------------------------------------------

TEST(CacheProbeTest, ProbeDoesNotDisturbStateOrCounters) {
  Cache c(Small());
  Fill(c, 3, false);
  const Cache::ProbeResult p = c.Probe(3);
  EXPECT_TRUE(p.hit());
  EXPECT_EQ(c.StateAt(p), LineState::kExclusive);
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_FALSE(c.Probe(99).hit());
  EXPECT_EQ(c.misses(), 0u);
}

TEST(CacheProbeTest, OneProbeServesAccessAndFill) {
  Cache c(Small());
  const Cache::ProbeResult miss = c.Probe(7);
  EXPECT_FALSE(c.AccessAt(miss, false));
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_FALSE(c.FillAt(miss, 7, false).valid);
  EXPECT_TRUE(c.Probe(7).hit());

  const Cache::ProbeResult hit = c.Probe(7);
  EXPECT_TRUE(c.AccessAt(hit, true));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.StateAt(hit), LineState::kModified);
}

TEST(CacheProbeTest, FillAtOnResidentLineUpdatesInPlace) {
  Cache c(Small());
  Fill(c, 5, false);
  const uint64_t valid_before = c.CountValid();
  const Cache::ProbeResult p = c.Probe(5);
  EXPECT_FALSE(c.FillAt(p, 5, /*is_write=*/true).valid);
  EXPECT_EQ(c.CountValid(), valid_before);  // no duplicate way
  EXPECT_EQ(State(c, 5), LineState::kModified);
}

TEST(CacheProbeTest, InvalidateAndDowngradeAt) {
  Cache c(Small());
  Fill(c, 4, true);
  EXPECT_TRUE(c.DowngradeAt(c.Probe(4)));
  EXPECT_EQ(State(c, 4), LineState::kShared);
  c.SetStateAt(c.Probe(4), LineState::kModified);
  EXPECT_TRUE(c.InvalidateAt(c.Probe(4)));
  EXPECT_FALSE(c.Probe(4).hit());
  EXPECT_EQ(c.writebacks(), 1u);
  EXPECT_FALSE(c.InvalidateAt(c.Probe(4)));
}

// -- Reference-model equivalence -------------------------------------------
//
// A deliberately naive LRU cache model — per-set vector of {tag, state}
// ordered by recency — driven in lockstep with the real array through a
// random operation mix. Pins the rebuilt SoA/probe implementation to the
// documented semantics independent of implementation details.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg) : cfg_(cfg) {
    sets_.resize(cfg.num_sets());
  }

  bool Access(uint64_t line, bool is_write) {
    auto& set = SetFor(line);
    for (size_t i = 0; i < set.size(); ++i) {
      if (set[i].line == line) {
        Entry e = set[i];
        set.erase(set.begin() + static_cast<long>(i));
        if (is_write) e.state = LineState::kModified;
        set.push_back(e);  // back == MRU
        ++hits;
        return true;
      }
    }
    ++misses;
    return false;
  }

  EvictedLine Fill(uint64_t line, bool is_write, LineState st) {
    EvictedLine out;
    auto& set = SetFor(line);
    for (size_t i = 0; i < set.size(); ++i) {
      if (set[i].line == line) {
        Entry e = set[i];
        set.erase(set.begin() + static_cast<long>(i));
        e.state = is_write ? LineState::kModified : st;
        set.push_back(e);
        return out;
      }
    }
    if (set.size() == cfg_.associativity) {
      out.valid = true;
      out.dirty = set.front().state == LineState::kModified;
      out.line_addr = set.front().line;
      if (out.dirty) ++writebacks;
      set.erase(set.begin());
    }
    set.push_back({line, is_write ? LineState::kModified : st});
    return out;
  }

  bool Invalidate(uint64_t line) {
    auto& set = SetFor(line);
    for (size_t i = 0; i < set.size(); ++i) {
      if (set[i].line == line) {
        const bool dirty = set[i].state == LineState::kModified;
        set.erase(set.begin() + static_cast<long>(i));
        if (dirty) ++writebacks;
        return dirty;
      }
    }
    return false;
  }

  LineState GetState(uint64_t line) {
    for (const Entry& e : SetFor(line)) {
      if (e.line == line) return e.state;
    }
    return LineState::kInvalid;
  }

  uint64_t CountValid() const {
    uint64_t n = 0;
    for (const auto& s : sets_) n += s.size();
    return n;
  }

  uint64_t hits = 0, misses = 0, writebacks = 0;

 private:
  struct Entry {
    uint64_t line;
    LineState state;
  };
  std::vector<Entry>& SetFor(uint64_t line) {
    return sets_[line & (cfg_.num_sets() - 1)];
  }

  CacheConfig cfg_;
  std::vector<std::vector<Entry>> sets_;
};

TEST(CacheReferenceModelTest, RandomOpsMatchNaiveLruModel) {
  const CacheConfig cfg{16384, 4, 64};  // 64 sets x 4 ways
  Cache real(cfg);
  ReferenceCache ref(cfg);
  Rng rng(2024);
  constexpr uint64_t kLines = 1024;  // 4x capacity => constant evictions
  for (int i = 0; i < 1'000'000; ++i) {
    const uint64_t line = rng.Next() % kLines;
    switch (rng.Next() % 8) {
      case 6: {  // coherence invalidation
        EXPECT_EQ(real.InvalidateAt(real.Probe(line)), ref.Invalidate(line));
        break;
      }
      case 7: {  // state inspection
        EXPECT_EQ(State(real, line), ref.GetState(line));
        break;
      }
      default: {  // access, fill on miss (the replay pattern)
        const bool is_write = (rng.Next() & 3) == 0;
        const Cache::ProbeResult p = real.Probe(line);
        const bool hit_real = real.AccessAt(p, is_write);
        ASSERT_EQ(hit_real, ref.Access(line, is_write)) << "op " << i;
        if (!hit_real) {
          const EvictedLine a = real.FillAt(p, line, is_write);
          const EvictedLine b = ref.Fill(line, is_write, LineState::kExclusive);
          ASSERT_EQ(a.valid, b.valid) << "op " << i;
          if (a.valid) {
            EXPECT_EQ(a.line_addr, b.line_addr);
            EXPECT_EQ(a.dirty, b.dirty);
          }
        }
        break;
      }
    }
  }
  EXPECT_EQ(real.hits(), ref.hits);
  EXPECT_EQ(real.misses(), ref.misses);
  EXPECT_EQ(real.writebacks(), ref.writebacks);
  EXPECT_EQ(real.CountValid(), ref.CountValid());
}

// Random-access determinism: same seed => same counters.
TEST(CacheTest, DeterministicUnderSameSeed) {
  auto run = [] {
    Cache c(CacheConfig{8192, 4, 64});
    Rng rng(99);
    for (int i = 0; i < 10000; ++i) {
      const uint64_t line = rng.Next() % 512;
      if (!Access(c, line, (rng.Next() & 1) != 0)) Fill(c, line, false);
    }
    return std::make_tuple(c.hits(), c.misses(), c.writebacks());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace stagedcmp::memsim
