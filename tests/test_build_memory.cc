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
// Last, a cold sweep that writes a bundle streams its family's traces
// into the file as they are recorded: its resident peak holds the world
// and one client's trace, never the whole set.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "harness/world.h"
#include "sweep/runner.h"
#include "sweep/trace_bundle.h"

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

/// Samples this process's resident size from a side thread until
/// destroyed; peak() is the largest sample.
class ResidentSampler {
 public:
  ResidentSampler()
      : thread_([this] {
          while (!stop_.load()) {
            const double mb = ResidentMb();
            double seen = peak_.load();
            while (mb > seen && !peak_.compare_exchange_weak(seen, mb)) {
            }
            std::this_thread::sleep_for(std::chrono::microseconds(500));
          }
        }) {}
  ~ResidentSampler() {
    stop_.store(true);
    thread_.join();
  }
  double peak() const { return peak_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_{0.0};
  std::thread thread_;
};

TEST(BuildMemoryTest, StreamedColdRunHoldsOneClientsTraceBesideItsWorld) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan's shadow memory is resident too";
#elif defined(__SANITIZE_ADDRESS__)
  // The queries' freed heap blocks stay resident in ASan's quarantine
  // (the growth reads about 100 MB; with quarantine_size_mb=0, under the
  // bound).
  GTEST_SKIP() << "ASan's quarantine keeps freed heap resident";
#else
  // A default-scale DSS family, built cold into a bundle:
  // the leader (20 clients, one query each) records tens of MB of trace,
  // and a half-size member is its prefix slice. Each cell replays a
  // small window, so replay faults in little of the mapped bundle.
  const harness::WorkloadFactory factory;
  sweep::SweepSpec spec("dss-family", "one default-scale DSS family");
  spec.base_trace.workload = harness::WorkloadKind::kDss;
  spec.base_trace.requests_per_client = 1;
  spec.base_trace.seed = 3;
  spec.base_exp.cores = 4;
  spec.base_exp.l2_bytes = 1ull << 20;
  spec.base_exp.measure_instructions = 200'000;
  spec.base_exp.warmup_instructions = 0;
  spec.AddAxis("clients",
               {{"10", [](sweep::Cell& c) { c.trace.clients = 10; }},
                {"20", [](sweep::Cell& c) { c.trace.clients = 20; }}});

  // The loaded world on its own, for the bound.
  double world_mb = 0.0;
  {
    harness::WorkloadWorld world(factory.tpcc_config, factory.tpch_config,
                                 factory.ycsb_config);
    const double before = ResidentMb();
    ASSERT_GT(before, 0.0) << "cannot read /proc/self/statm";
    ASSERT_NE(world.dss_db(), nullptr);
    world_mb = ResidentMb() - before;
  }

  const std::string path = ::testing::TempDir() + "build_memory.traces";
  // One builder streams the families at any thread count; more threads
  // only add sim workers.
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("--threads " + std::to_string(threads));
    std::remove(path.c_str());
    harness::WorkloadFactory run_factory;
    MetricsRegistry metrics;
    sweep::RunnerOptions options;
    options.threads = threads;
    options.trace_bundle = path;
    options.metrics = &metrics;
    const double before = ResidentMb();
    double peak = 0.0;
    {
      ResidentSampler sampler;
      const sweep::SweepReport r =
          sweep::SweepRunner(&run_factory, options).Run(spec);
      peak = sampler.peak();
      ASSERT_EQ(r.bundle, "cold");
      EXPECT_EQ(r.metrics.CounterOr("sweep.sets_streamed"), 2u);
    }
    const double growth = peak - before;

    // What the family recorded, read back from the bundle it wrote.
    std::vector<harness::TraceSetConfig> configs;
    for (const sweep::Cell& c : spec.Expand()) configs.push_back(c.trace);
    const sweep::BundleOpenResult open =
        sweep::OpenTraceBundle(path, factory, configs);
    ASSERT_EQ(open.mode, "mmap");
    double total_mb = 0.0;
    double largest_mb = 0.0;
    for (const trace::ClientTrace& t : open.sets[1].traces) {
      const double mb =
          static_cast<double>(t.payload_words() * 8) / (1 << 20);
      total_mb += mb;
      largest_mb = std::max(largest_mb, mb);
    }
    ASSERT_GE(total_mb, 40.0) << "the family must record more than the slack";
    // Holding the whole set beside the world (as buffering the leader in
    // memory does) exceeds the bound by the set less one trace, minus the
    // slack: the query scratch and allocator room of a build.
    EXPECT_LT(growth, world_mb + largest_mb + 24.0)
        << "peak growth " << growth << " MB; world " << world_mb
        << " MB, largest trace " << largest_mb << " MB, set " << total_mb
        << " MB";
  }
  std::remove(path.c_str());
#endif
}

}  // namespace
}  // namespace stagedcmp
