// Finished builds leave nothing resident but their trace sets.
//
// WorkloadFactory::Build loads a TPC-C image (about 120 MB resident at
// the default 16-warehouse scale) into a private world and records the
// trace set against it. From a process's second build on, glibc keeps
// the dead world's pages resident under the sets recorded after it, so
// a sweep's builder thread hands them back once it has no builds left
// (harness::ReleaseFreeHeapPages). This suite does what such a builder
// does: two OLTP builds on one std::thread, both sets kept, then the
// release. Resident growth minus live event bytes must stay well below
// one TPC-C image (without the release: about 120 MB; with it, a few).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "harness/experiment.h"

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
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators keep freed memory in quarantine";
#elif !defined(__GLIBC__)
  GTEST_SKIP() << "the page release is glibc's malloc_trim";
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
    harness::ReleaseFreeHeapPages();
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

}  // namespace
}  // namespace stagedcmp
