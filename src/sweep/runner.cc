#include "sweep/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sweep/trace_bundle.h"
#include "sweep/trace_cache.h"

namespace stagedcmp::sweep {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Human-readable trace-set identity for span names — canonical (built
/// from the config only), so deterministic traces stay byte-stable.
std::string ConfigLabel(const harness::TraceSetConfig& c) {
  std::string s = harness::WorkloadName(c.workload);
  s += "/c" + std::to_string(c.clients);
  s += "/r" + std::to_string(c.requests_per_client);
  s += "/s" + std::to_string(c.seed);
  s += "/e" + std::to_string(static_cast<int>(c.engine));
  // Traffic/tenancy suffixes appear only when non-default, so every
  // pre-existing config keeps its historical label byte-for-byte.
  if (c.traffic.shapes_keys()) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "/k%s:%g",
                  workload::KeyDistName(c.traffic.key_dist),
                  c.traffic.zipf_theta);
    s += buf;
  }
  if (c.traffic.shapes_arrival()) {
    s += std::string("/a") + workload::ArrivalShapeName(c.traffic.arrival);
  }
  if (c.tenant2_clients > 0) {
    s += std::string("/t") + harness::WorkloadName(c.tenant2_workload) +
         std::to_string(c.tenant2_clients);
  }
  return s;
}

/// The distinct trace-set configs of `cells` in canonical (first-use)
/// order — the build-task submission order and the unit a trace bundle
/// persists. Also fills `cfg_of`: for each cell, the index of its config
/// in the returned vector. Identity is TraceSetCache::MakeKey, the same
/// equivalence Get() dedups by.
std::vector<harness::TraceSetConfig> DistinctConfigs(
    const std::vector<Cell>& cells, std::vector<size_t>* cfg_of) {
  std::vector<harness::TraceSetConfig> out;
  cfg_of->resize(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    size_t found = out.size();
    for (size_t j = 0; j < out.size(); ++j) {
      if (TraceSetCache::MakeKey(out[j]) ==
          TraceSetCache::MakeKey(cells[i].trace)) {
        found = j;
        break;
      }
    }
    if (found == out.size()) out.push_back(cells[i].trace);
    (*cfg_of)[i] = found;
  }
  return out;
}

/// A client-count family among the configs a run builds: the needed
/// distinct configs sharing a TraceSetCache::FamilyKey. Only the member
/// with the most clients is built; the rest are its prefix slices.
struct Family {
  size_t leader = 0;            ///< distinct-config index of the build
  std::vector<size_t> members;  ///< canonical order, leader included
};

/// Groups the needed configs of `distinct` into families, ordered by
/// their first member's canonical index — the build-task submission
/// order, so the writer's next set is always among the earliest tasks.
std::vector<Family> PlanFamilies(
    const std::vector<harness::TraceSetConfig>& distinct,
    const std::vector<char>& needed) {
  std::vector<Family> out;
  std::map<TraceSetCache::Key, size_t> family_of;
  for (size_t j = 0; j < distinct.size(); ++j) {
    if (!needed[j]) continue;
    const auto [it, fresh] =
        family_of.emplace(TraceSetCache::FamilyKey(distinct[j]), out.size());
    if (fresh) out.push_back(Family{j, {}});
    Family& f = out[it->second];
    f.members.push_back(j);
    if (distinct[j].clients > distinct[f.leader].clients) f.leader = j;
  }
  return out;
}

}  // namespace

SweepReport SweepRunner::Run(const SweepSpec& spec) {
  const auto run_t0 = std::chrono::steady_clock::now();

  SweepReport report;
  report.spec_name = spec.name();
  report.axis_names = spec.axis_names();
  report.baseline = spec.baseline;

  TraceCollector* const tracer = options_.trace;
  if (tracer != nullptr) tracer->NameThisThread("main");
  TraceSpan sweep_span(tracer, "sweep", "sweep:" + report.spec_name);

  // Pipeline metric handles; null when observability is off.
  Counter* cells_simulated = nullptr;
  Counter* build_waits = nullptr;
  Counter* steals = nullptr;
  Counter* sets_released = nullptr;
  HistogramMetric* cell_sim_us = nullptr;
  HistogramMetric* build_wait_us = nullptr;
  if (options_.metrics != nullptr) {
    cells_simulated = &options_.metrics->counter("sweep.cells_simulated");
    build_waits = &options_.metrics->counter("sweep.build_waits");
    steals = &options_.metrics->counter("sweep.steals");
    sets_released = &options_.metrics->counter("sweep.sets_released");
    cell_sim_us = &options_.metrics->histogram("sweep.cell_sim_us");
    build_wait_us = &options_.metrics->histogram("sweep.build_wait_us");
  }

  std::vector<Cell> cells = spec.Expand();
  report.cells.resize(cells.size());
  // Every slot carries its cell identity up front — workers fill only
  // the cells they execute, and a sharded run's unassigned slots must
  // still describe their cell (the shard writer fingerprints the whole
  // grid; see sweep/shard.h).
  for (size_t i = 0; i < cells.size(); ++i) report.cells[i].cell = cells[i];

  TraceSetCache private_cache(factory_, options_.metrics);
  TraceSetCache& cache = shared_cache_ ? *shared_cache_ : private_cache;
  const TraceSetCache::Stats before = cache.stats();
  const uint64_t produced_before = before.builds + before.slices;

  // Sharding: the FULL spec is always expanded and deduplicated, so
  // canonical cell indices and the distinct-config (= bundle build)
  // sequence are identical for every shard and for an unsharded run.
  // A shard then only *executes* its assigned cells, and only
  // builds/loads the trace sets those cells reference.
  const bool sharded = options_.shard_count > 1;
  const auto cell_assigned = [&](size_t i) {
    return !sharded ||
           i % options_.shard_count == options_.shard_index;
  };
  report.shard_index = sharded ? options_.shard_index : 0;
  report.shard_count = sharded ? options_.shard_count : 0;

  std::vector<size_t> cfg_of;  // cell index -> distinct-config index
  std::vector<harness::TraceSetConfig> distinct =
      DistinctConfigs(cells, &cfg_of);
  std::vector<std::string> cfg_labels;
  cfg_labels.reserve(distinct.size());
  for (const harness::TraceSetConfig& c : distinct) {
    cfg_labels.push_back(ConfigLabel(c));
  }
  std::vector<char> needed(distinct.size(), sharded ? 0 : 1);
  size_t assigned_count = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (!cell_assigned(i)) continue;
    ++assigned_count;
    needed[cfg_of[i]] = 1;
  }
  if (options_.metrics != nullptr && sharded) {
    options_.metrics->counter("shard.cells_assigned")
        .Add(static_cast<uint64_t>(assigned_count));
    options_.metrics->counter("shard.cells_skipped")
        .Add(static_cast<uint64_t>(cells.size() - assigned_count));
  }

  // Trace bundle: try to serve the whole build sequence from disk. A
  // mapped open returns view-based sets after header validation only
  // (microseconds); their payload checksums are verified lazily below,
  // on the builder threads, overlapped with simulation. A map failure or a
  // header/geometry mismatch serves nothing and the run builds cold.
  BundleOpenResult bundle_open;
  std::atomic<bool> demoted{false};
  if (!options_.trace_bundle.empty() && !cells.empty()) {
    const auto load_t0 = std::chrono::steady_clock::now();
    TraceSpan load_span(tracer, "io", "bundle.load");
    bundle_open = OpenTraceBundle(options_.trace_bundle, *factory_, distinct);
    report.bundle_mode = bundle_open.mode;
    report.bundle = bundle_open.mode == "mmap" ? "warm" : "cold";
    if (options_.metrics != nullptr) {
      options_.metrics->gauge("bundle.map_us")
          .Set(static_cast<int64_t>(bundle_open.map_us));
      options_.metrics->gauge("bundle.bytes_mapped")
          .Set(bundle_open.mapping != nullptr
                   ? static_cast<int64_t>(bundle_open.mapping->size_bytes())
                   : 0);
    }
    load_span.set_args("{\"result\": \"" + report.bundle +
                       "\", \"mode\": \"" + report.bundle_mode + "\"}");
    load_span.End();
    report.load_wall_seconds = SecondsSince(load_t0);
  }

  // A cold run streams each set into the bundle as soon as it and every
  // set before it are built (canonical order), so no set has to outlive
  // its cells just to be saved at the end — a slice is saved as a set of
  // its own, so the bundle format knows nothing of families. Sharded runs
  // never write (they build only a subset of the sequence).
  BundleWriter writer;
  const bool streaming = report.bundle == "cold" && !sharded;
  bool bundle_write_ok =
      !streaming || writer.Begin(options_.trace_bundle, *factory_, distinct);

  uint32_t threads = options_.threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (threads > cells.size() && !cells.empty()) {
    threads = static_cast<uint32_t>(cells.size());
  }
  report.threads = cells.empty() ? 0 : threads;

  // Build/sim pipeline. Cold trace sets build on builder threads — one task
  // per client-count family, submitted at the family's first canonical
  // position — while sim workers claim cells off an atomic counter (idle
  // workers "steal" the next unclaimed cell, so load imbalance
  // self-corrects). A family task builds its largest member in an
  // isolated WorkloadWorld and serves the smaller members as zero-copy
  // prefix slices of it (TraceSetCache::Slice), so builds neither share
  // state with each other nor with the replaying workers; a worker waits
  // only for its own cell's config slot to be published. Results land at
  // their cell's canonical index, so output order never depends on
  // completion order — and since builds are pure functions of their
  // config and a slice equals the standalone build in everything but
  // data addresses, golden sink output is thread-count-invariant
  // (simulated metrics additionally track heap placement, see sinks.h).
  std::vector<const harness::TraceSet*> built_sets(distinct.size(), nullptr);
  std::vector<char> built_done(distinct.size(), 0);
  std::mutex build_mu;
  std::condition_variable build_cv;

  // Set lifetime. A private cache frees each set once its last assigned
  // cell has replayed and the bundle writer is past it, so a run holds
  // only the sets still in flight. A caller's shared cache is never
  // touched, and mapped sets stay: a run that turns "partial" rewrites
  // the bundle from every set at the end. Guarded by build_mu.
  const bool mapped = bundle_open.mode == "mmap";
  const bool release_sets = shared_cache_ == nullptr && !mapped;
  std::vector<size_t> cells_left(distinct.size(), 0);
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cell_assigned(i)) ++cells_left[cfg_of[i]];
  }
  // Sets [0, writer_done) need nothing more from the writer: appended,
  // or the writer is off or gave up.
  size_t writer_done = bundle_write_ok && streaming ? 0 : distinct.size();
  // Claims set j for release when nothing needs it any more; the caller
  // then calls cache.Release outside build_mu.
  const auto claim_release = [&](size_t j) {
    if (!release_sets || built_sets[j] == nullptr || cells_left[j] != 0 ||
        j >= writer_done) {
      return false;
    }
    built_sets[j] = nullptr;
    return true;
  };
  const auto release = [&](size_t j) {
    if (cache.Release(distinct[j]) && sets_released != nullptr) {
      sets_released->Add(1);
    }
  };

  std::mutex err_mu;
  std::exception_ptr first_error;
  auto record_error = [&] {
    std::lock_guard<std::mutex> lock(err_mu);
    if (!first_error) first_error = std::current_exception();
  };

  // Publishes the sets of distinct configs `js` at once (null where a
  // build failed; waiters drain) and wakes every waiter. A family's
  // members go out together, so no member's release can drop the
  // leader's entry while its slices are still being cut.
  const auto publish = [&](const std::vector<size_t>& js,
                           const std::vector<const harness::TraceSet*>& sets) {
    {
      std::lock_guard<std::mutex> lock(build_mu);
      for (size_t m = 0; m < js.size(); ++m) {
        built_sets[js[m]] = sets[m];
        built_done[js[m]] = 1;
      }
    }
    build_cv.notify_all();
  };

  // One span per built family and per slice (or per mapped set), whatever
  // the thread count or cache temperature (a warm Get is a near-instant
  // hit), so the span SET is deterministic even though durations are not.
  auto build_family = [&](const Family& f) {
    if (tracer != nullptr) tracer->NameThisThread("builder");
    std::vector<const harness::TraceSet*> sets(f.members.size(), nullptr);
    try {
      TraceSpan build_span(tracer, "build", "build:" + cfg_labels[f.leader]);
      const harness::TraceSet& leader = cache.Get(distinct[f.leader]);
      build_span.End();
      for (size_t m = 0; m < f.members.size(); ++m) {
        const size_t j = f.members[m];
        if (j == f.leader) {
          sets[m] = &leader;
          continue;
        }
        TraceSpan slice_span(tracer, "build", "slice:" + cfg_labels[j]);
        sets[m] = &cache.Slice(distinct[j], distinct[f.leader]);
      }
    } catch (...) {
      record_error();
    }
    publish(f.members, sets);
  };

  // Mapped set: pay the payload-checksum pass here, overlapped with other
  // builds and with simulation; each verified trace drops its pages
  // again, so only what replay touches stays resident. A mismatch demotes
  // exactly this set to a cold rebuild; the run is then "partial" and
  // rewrites the bundle afterwards.
  auto verify_mapped = [&](size_t j) {
    if (tracer != nullptr) tracer->NameThisThread("builder");
    const harness::TraceSet* ts = nullptr;
    try {
      TraceSpan build_span(tracer, "build", "build:" + cfg_labels[j]);
      if (VerifyBundleSet(bundle_open.sets[j], bundle_open.checksums[j])) {
        ts = &cache.Insert(std::move(bundle_open.sets[j]));
      } else {
        demoted.store(true, std::memory_order_relaxed);
        ts = &cache.Get(distinct[j]);
      }
    } catch (...) {
      record_error();
    }
    publish({j}, {ts});
  };

  std::atomic<size_t> next{0};
  auto worker = [&](uint32_t wid) {
    if (tracer != nullptr) {
      tracer->NameThisThread("sim-worker-" + std::to_string(wid));
    }
    uint64_t claimed = 0;
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= cells.size()) break;
      if (!cell_assigned(i)) continue;  // another shard's cell
      ++claimed;
      const size_t j = cfg_of[i];
      const harness::TraceSet* set = nullptr;
      {
        std::unique_lock<std::mutex> lock(build_mu);
        if (built_done[j] == 0) {
          // Contention-dependent: whether a worker waits here depends on
          // scheduling, so the span is skipped under a deterministic
          // tracer (its presence would vary run to run).
          TraceSpan wait_span;
          if (tracer != nullptr && !tracer->deterministic()) {
            wait_span = TraceSpan(tracer, "sweep", "wait:" + cfg_labels[j]);
          }
          const auto w0 = std::chrono::steady_clock::now();
          build_cv.wait(lock, [&] { return built_done[j] != 0; });
          if (build_waits != nullptr) {
            build_waits->Add(1);
            build_wait_us->Record(MicrosSince(w0));
          }
        }
        set = built_sets[j];
        if (set == nullptr) continue;  // build failed; drain
      }
      try {
        const auto t0 = std::chrono::steady_clock::now();
        // Cell spans ARE deterministic: every cell replays exactly once
        // at its canonical index, whatever claims it.
        TraceSpan cell_span(tracer, "sim", "cell:" + std::to_string(i),
                            "{\"cfg\": \"" + cfg_labels[j] + "\"}");
        CellResult& out = report.cells[i];
        out.cell = cells[i];
        out.trace_total_instructions = set->total_instructions;
        out.trace_total_events = set->total_events;
        out.result =
            harness::RunExperiment(cells[i].exp, *set, options_.metrics);
        cell_span.End();
        out.sim_wall_seconds = SecondsSince(t0);
        if (cells_simulated != nullptr) {
          cells_simulated->Add(1);
          cell_sim_us->Record(MicrosSince(t0));
        }
      } catch (...) {
        record_error();
        // Keep draining the counter so siblings can finish cleanly.
      }
      bool last_user = false;
      {
        std::lock_guard<std::mutex> lock(build_mu);
        --cells_left[j];
        last_user = claim_release(j);
      }
      if (last_user) release(j);
    }
    // "Steals": cells this worker claimed beyond the even share — how
    // much the atomic-counter claiming rebalanced versus a static split.
    if (steals != nullptr && threads > 0) {
      const uint64_t share = assigned_count / threads;
      if (claimed > share) steals->Add(claimed - share);
    }
  };

  const auto sim_t0 = std::chrono::steady_clock::now();
  if (!cells.empty()) {
    // Sharded runs plan only over the configs their cells reference; no
    // assigned cell waits on the other slots.
    const std::vector<Family> families =
        mapped ? std::vector<Family>{} : PlanFamilies(distinct, needed);
    std::vector<std::function<void()>> tasks;
    if (mapped) {
      for (size_t j = 0; j < distinct.size(); ++j) {
        if (!needed[j]) continue;
        tasks.push_back([&verify_mapped, j] { verify_mapped(j); });
      }
    } else {
      for (const Family& f : families) {
        tasks.push_back([&build_family, &f] { build_family(f); });
      }
    }
    // Builders claim tasks off an atomic counter, in submission order,
    // the way sim workers claim cells. They exit only after the sim
    // workers: glibc hands a new thread the malloc arena of the thread
    // that exited last, so this keeps the next run's builders on this
    // run's builder arenas. Builders exiting first would hand theirs to
    // the next run's sim workers and grow a second set to build size
    // (repeated cold runs' peak RSS rose 60% that way).
    std::atomic<size_t> next_task{0};
    const size_t build_threads = std::min<size_t>(threads, tasks.size());
    size_t builders_idle = 0;    // guarded by build_mu
    bool builders_exit = false;  // guarded by build_mu
    std::vector<std::thread> builders;
    builders.reserve(build_threads);
    for (size_t b = 0; b < build_threads; ++b) {
      builders.emplace_back([&] {
        size_t k;
        while ((k = next_task.fetch_add(1, std::memory_order_relaxed)) <
               tasks.size()) {
          tasks[k]();
        }
        std::unique_lock<std::mutex> lock(build_mu);
        ++builders_idle;
        build_cv.notify_all();
        build_cv.wait(lock, [&] { return builders_exit; });
      });
    }
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back([&worker, t] { worker(t); });
    }
    // This thread streams the bundle: it appends each set in canonical
    // order as soon as it is published, while the threads go on building
    // and replaying. A failed append (or a failed build) ends the stream.
    for (size_t j = 0; j < distinct.size() && writer_done == j; ++j) {
      // Trapped like the build tasks': the threads must still drain and join.
      try {
        const harness::TraceSet* set = nullptr;
        {
          std::unique_lock<std::mutex> lock(build_mu);
          build_cv.wait(lock, [&] { return built_done[j] != 0; });
          set = built_sets[j];
        }
        bool appended = false;
        if (set != nullptr) {
          TraceSpan append_span(tracer, "io",
                                "bundle.append:" + cfg_labels[j]);
          appended = writer.Append(*set);
        }
        if (!appended) bundle_write_ok = false;
        std::vector<size_t> freed;
        {
          std::lock_guard<std::mutex> lock(build_mu);
          // Every set is past a writer that gave up.
          const size_t first = writer_done;
          writer_done = appended ? j + 1 : distinct.size();
          for (size_t k = first; k < writer_done; ++k) {
            if (claim_release(k)) freed.push_back(k);
          }
        }
        for (size_t k : freed) release(k);
      } catch (...) {
        record_error();
      }
    }
    // Every task traps its own exceptions, so waiting for the builders
    // to go idle is all that is left.
    {
      std::unique_lock<std::mutex> lock(build_mu);
      build_cv.wait(lock, [&] { return builders_idle == build_threads; });
    }
    report.build_wall_seconds = SecondsSince(sim_t0);
    for (std::thread& t : workers) t.join();
    {
      std::lock_guard<std::mutex> lock(build_mu);
      builders_exit = true;
    }
    build_cv.notify_all();
    for (std::thread& t : builders) t.join();
  }
  report.sim_wall_seconds = SecondsSince(sim_t0);
  const TraceSetCache::Stats after = cache.stats();
  report.trace_sets_built = after.builds + after.slices - produced_before;
  if (demoted.load(std::memory_order_relaxed)) report.bundle = "partial";

  // A cold run's streamed bundle becomes visible only once every set was
  // appended and every cell replayed cleanly; otherwise `writer` removes
  // its temp file as it goes out of scope.
  if (streaming && !first_error) {
    TraceSpan save_span(tracer, "io", "bundle.save");
    bundle_write_ok = bundle_write_ok && writer.Finish();
  }
  // A "partial" run — mapped sets served but at least one failed lazy
  // verification and rebuilt cold — rewrites the whole bundle through
  // the same writer, healing the corrupt file: rename keeps the mapped
  // inode alive, so still-live views are unaffected.
  if (report.bundle == "partial" && !sharded && !first_error) {
    TraceSpan save_span(tracer, "io", "bundle.save");
    std::vector<const harness::TraceSet*> sets;
    sets.reserve(distinct.size());
    for (const harness::TraceSetConfig& c : distinct) {
      sets.push_back(&cache.Get(c));
    }
    bundle_write_ok = SaveTraceBundle(options_.trace_bundle, *factory_, sets);
  }
  if (!bundle_write_ok && !first_error) {
    std::fprintf(stderr, "warning: could not write trace bundle '%s'\n",
                 options_.trace_bundle.c_str());
  }
  report.wall_seconds = SecondsSince(run_t0);
  sweep_span.End();

  if (options_.metrics != nullptr) {
    report.metrics = options_.metrics->Snapshot();
    report.has_metrics = true;
  }

  if (first_error) std::rethrow_exception(first_error);
  return report;
}

}  // namespace stagedcmp::sweep
