// Finished builds leave nothing resident but their trace sets.
//
// WorkloadFactory::Build loads a TPC-C image (about 120 MB resident at
// the default 16-warehouse scale) into a private world and records the
// trace set against it. The world's databases live in Arena blocks
// carved from the world's address space, which it unmaps when it dies
// (common/arena.h), so a dead image goes back to the kernel with its
// world, whatever the
// thread's malloc heap holds above it, with no release call. This suite
// does what a sweep builder does: two OLTP builds on one std::thread,
// both sets kept. Resident growth minus live event bytes must stay well
// below one TPC-C image (with the blocks on the malloc heap it read
// about 120 MB; mapped, a few). It also destroys a loaded world under a
// live allocation and requires residency to drop by most of the image.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "harness/world.h"

namespace stagedcmp {
namespace {

/// Resident bytes of this process (second field of /proc/self/statm, in
/// pages).
double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1.0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return -1.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

/// Bytes the sets' encoded events hold (offset tables included).
double EventMb(const harness::TraceSet& set) {
  uint64_t words = 0;
  for (const trace::ClientTrace& t : set.traces) words += t.payload_words();
  return static_cast<double>(words * sizeof(uint64_t)) / (1 << 20);
}

TEST(BuildMemoryTest, FinishedBuildsLeaveOnlyTheirTraceSetsResident) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan's shadow memory is resident too";
#else
  harness::WorkloadFactory factory;
  harness::TraceSetConfig config;
  config.workload = harness::WorkloadKind::kOltp;
  config.clients = 256;

  const double before = ResidentMb();
  ASSERT_GT(before, 0.0) << "cannot read /proc/self/statm";
  std::vector<harness::TraceSet> sets;
  std::thread builder([&] {
    for (int i = 0; i < 2; ++i) sets.push_back(factory.Build(config));
  });
  builder.join();
  const double growth = ResidentMb() - before;

  double live = 0.0;
  for (const harness::TraceSet& s : sets) live += EventMb(s);
  ASSERT_GT(live, 0.0);
  // One TPC-C image is about 120 MB; 60 MB of slack leaves room for
  // allocator slack and vector growth without letting a dead image in.
  EXPECT_LT(growth - live, 60.0)
      << "resident growth " << growth << " MB, live events " << live
      << " MB";
#endif
}

TEST(BuildMemoryTest, DestroyingALoadedWorldReturnsItsImage) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan's shadow memory is resident too";
#else
  const harness::WorkloadFactory factory;
  // Twice: glibc gives a process's first 4 MB malloc blocks their own
  // mappings, so only a later world tells the mapped arena from the
  // heap.
  for (int round = 0; round < 2; ++round) {
    auto world = std::make_unique<harness::WorkloadWorld>(
        factory.tpcc_config, factory.tpch_config, factory.ycsb_config);
    const double before = ResidentMb();
    ASSERT_GT(before, 0.0) << "cannot read /proc/self/statm";
    ASSERT_NE(world->oltp_db(), nullptr);  // loads the TPC-C image
    // Allocated after the load and kept past the world's death, as a
    // recorded trace set is: an image on the malloc heap below it could
    // not shrink away.
    std::vector<char> above(1 << 20, 1);
    const double loaded = ResidentMb();
    world.reset();
    const double dropped = loaded - ResidentMb();
    ASSERT_EQ(above.back(), 1);
    ASSERT_GT(loaded - before, 50.0) << "the TPC-C load grew residency by "
                                     << loaded - before << " MB";
    EXPECT_GT(dropped, 0.75 * (loaded - before))
        << "round " << round << ": load grew residency by "
        << loaded - before << " MB, destroying the world dropped "
        << dropped << " MB";
  }
#endif
}

}  // namespace
}  // namespace stagedcmp
