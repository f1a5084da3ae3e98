#include "sweep/runner.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/config_fields.h"
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

/// Label tag of each TraceSetConfig field-table row, in row order: the
/// workload leads untagged, then "/<tag><value>" per present row.
constexpr const char* kLabelTags[] = {
    "",                       // workload
    "c", "r",  "s",   "e",    // clients, requests, seed, engine
    "k", "z",  "h",           // key_dist, zipf_theta, hot_rotate_period
    "a", "on", "off", "th",   // arrival, burst_on, burst_off, think
    "t", "tc"};               // tenant2_workload, tenant2_clients
static_assert(std::size(kLabelTags) ==
                  harness::FieldCount<harness::TraceSetConfig>(),
              "give the new TraceSetConfig row a label tag");

/// A field's label text: enums by name (except the engine, which labels
/// have always printed as its number), doubles in their shortest
/// round-trip form, so distinct values never share a label.
template <typename T>
std::string LabelText(const T& v) {
  if constexpr (std::is_same_v<T, harness::EngineMode>) {
    return std::to_string(static_cast<int>(v));
  } else if constexpr (std::is_enum_v<T>) {
    return harness::FieldName(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  } else {
    return std::to_string(v);
  }
}

}  // namespace

std::string ConfigLabel(const harness::TraceSetConfig& c) {
  std::string s;
  size_t row = 0;
  harness::VisitFields(c, [&](const char*, const auto& v, bool present) {
    const char* tag = kLabelTags[row++];
    if (!present) return;
    if (!s.empty()) s += '/';
    s += tag;
    s += LabelText(v);
  });
  return s;
}

namespace {

/// The distinct trace-set configs of `cells` in canonical order — the
/// build order and the sequence a trace bundle persists: grouped by
/// client-count family (TraceSetCache::FamilyKey), families in order of
/// first use, each family's members in first-use order. Also fills
/// `cfg_of`: for each cell, the index of its config in the returned
/// vector. Identity is TraceSetCache::MakeKey.
std::vector<harness::TraceSetConfig> DistinctConfigs(
    const std::vector<Cell>& cells, std::vector<size_t>* cfg_of) {
  std::vector<harness::TraceSetConfig> first_use;
  std::vector<size_t> use_of(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    size_t found = first_use.size();
    for (size_t j = 0; j < first_use.size(); ++j) {
      if (TraceSetCache::MakeKey(first_use[j]) ==
          TraceSetCache::MakeKey(cells[i].trace)) {
        found = j;
        break;
      }
    }
    if (found == first_use.size()) first_use.push_back(cells[i].trace);
    use_of[i] = found;
  }
  // A family's members all join at its first member's turn.
  std::vector<harness::TraceSetConfig> out;
  std::vector<size_t> index_of(first_use.size(), first_use.size());
  for (size_t j = 0; j < first_use.size(); ++j) {
    if (index_of[j] != first_use.size()) continue;  // joined already
    const TraceSetCache::Key family = TraceSetCache::FamilyKey(first_use[j]);
    for (size_t k = j; k < first_use.size(); ++k) {
      if (TraceSetCache::FamilyKey(first_use[k]) != family) continue;
      index_of[k] = out.size();
      out.push_back(first_use[k]);
    }
  }
  cfg_of->resize(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) (*cfg_of)[i] = index_of[use_of[i]];
  return out;
}

/// A client-count family: the distinct configs [begin, end), which share
/// a TraceSetCache::FamilyKey. Only its needed member with the most
/// clients is built; the other needed members are its prefix slices.
struct Family {
  size_t begin = 0;
  size_t end = 0;
  size_t leader = 0;  ///< distinct-config index of the build
};

/// The families of `distinct` (grouped by DistinctConfigs) that have a
/// needed member, in order.
std::vector<Family> PlanFamilies(
    const std::vector<harness::TraceSetConfig>& distinct,
    const std::vector<char>& needed) {
  std::vector<Family> out;
  for (size_t begin = 0, end = 0; begin < distinct.size(); begin = end) {
    const TraceSetCache::Key key = TraceSetCache::FamilyKey(distinct[begin]);
    Family f{begin, begin, distinct.size()};  // no leader yet
    for (; end < distinct.size() &&
           TraceSetCache::FamilyKey(distinct[end]) == key;
         ++end) {
      if (needed[end] && (f.leader == distinct.size() ||
                          distinct[end].clients > distinct[f.leader].clients)) {
        f.leader = end;
      }
    }
    f.end = end;
    if (f.leader != distinct.size()) out.push_back(f);
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
  Counter* sets_built = nullptr;
  Counter* sets_sliced = nullptr;
  Counter* sets_released = nullptr;
  Counter* sets_streamed = nullptr;
  HistogramMetric* build_us = nullptr;
  HistogramMetric* cell_sim_us = nullptr;
  HistogramMetric* build_wait_us = nullptr;
  if (options_.metrics != nullptr) {
    cells_simulated = &options_.metrics->counter("sweep.cells_simulated");
    build_waits = &options_.metrics->counter("sweep.build_waits");
    steals = &options_.metrics->counter("sweep.steals");
    sets_built = &options_.metrics->counter("sweep.sets_built");
    sets_sliced = &options_.metrics->counter("sweep.sets_sliced");
    sets_released = &options_.metrics->counter("sweep.sets_released");
    sets_streamed = &options_.metrics->counter("sweep.sets_streamed");
    build_us = &options_.metrics->histogram("sweep.build_us");
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

  // A cold run streams every set into the bundle as it is built: one
  // builder takes the families in canonical order, and each streams its
  // leader trace by trace as its world records them, then appends its
  // sets as views of the file (see build_family), so a published set is
  // already in the file. A slice is saved as a set of its own, so the
  // bundle format knows nothing of families. Sharded runs never write
  // (they build only a subset of the sequence).
  BundleWriter writer;
  const bool writing = report.bundle == "cold" && !sharded;
  bool bundle_write_ok =
      !writing || writer.Begin(options_.trace_bundle, *factory_, distinct);
  // Whether the next family streams; only a writing run's one builder
  // changes it, and a failed write ends it for every later family.
  bool stream = writing && bundle_write_ok;

  uint32_t threads = options_.threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (threads > cells.size() && !cells.empty()) {
    threads = static_cast<uint32_t>(cells.size());
  }
  report.threads = cells.empty() ? 0 : threads;

  // Build/sim pipeline. Cold trace sets build on builder threads — one task
  // per client-count family, in canonical order — while sim workers claim
  // cells off an atomic counter (idle workers "steal" the next unclaimed
  // cell, so load imbalance self-corrects). A family task builds its
  // largest member in an isolated WorkloadWorld and serves the smaller
  // members as zero-copy prefix slices of it (PrefixSlice), so builds
  // neither share state with each other nor with the replaying workers; a
  // worker waits only for its own cell's config slot to be published.
  // Results land at their cell's canonical index, so output order never
  // depends on completion order — and since builds are pure functions of
  // their config and a slice equals the standalone build word for word,
  // sink output is thread-count-invariant.
  //
  // Each distinct config has one slot, the run's only owner of its set,
  // guarded by build_mu: null until published (or when its build failed
  // or it was released), `published` tells those apart.
  std::vector<std::shared_ptr<const harness::TraceSet>> slots(distinct.size());
  std::vector<char> published(distinct.size(), 0);
  std::mutex build_mu;
  std::condition_variable build_cv;
  // Sets this run built or sliced (report.trace_sets_built).
  std::atomic<uint64_t> produced{0};

  // Set lifetime. A cold set is freed once its last assigned cell has
  // replayed, so a run holds only the sets still in flight. Mapped sets
  // stay: a run that turns "partial" rewrites the bundle from every slot
  // at the end. Guarded by build_mu.
  const bool mapped = bundle_open.mode == "mmap";
  std::vector<size_t> cells_left(distinct.size(), 0);
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cell_assigned(i)) ++cells_left[cfg_of[i]];
  }

  std::mutex err_mu;
  std::exception_ptr first_error;
  auto record_error = [&] {
    std::lock_guard<std::mutex> lock(err_mu);
    if (!first_error) first_error = std::current_exception();
  };

  // Publishes the sets of distinct configs [begin, begin + sets.size())
  // at once (null where a build failed or a member is not needed;
  // waiters drain) and wakes every waiter. A family's members go out
  // together, so no member is released before its family's slices are
  // cut.
  const auto publish =
      [&](size_t begin,
          std::vector<std::shared_ptr<const harness::TraceSet>> sets) {
        {
          std::lock_guard<std::mutex> lock(build_mu);
          for (size_t m = 0; m < sets.size(); ++m) {
            slots[begin + m] = std::move(sets[m]);
            published[begin + m] = 1;
          }
        }
        build_cv.notify_all();
      };

  // A fresh build of `config`, ready to share. With `stream_to` it
  // streams into the bundle: each trace goes to the writer as it is
  // recorded, and the set comes back as views of what was written — or
  // null, the writer abandoned, if a write or the mapping failed. If it
  // throws nothing is published for it.
  const auto build = [&](const harness::TraceSetConfig& config,
                         BundleWriter* stream_to = nullptr)
      -> std::shared_ptr<const harness::TraceSet> {
    const auto t0 = std::chrono::steady_clock::now();
    bool streamed = true;
    harness::TraceSet set =
        stream_to == nullptr
            ? factory_->Build(config)
            : factory_->Build(config, [&](const trace::ClientTrace& t) {
                streamed = stream_to->Stream(t) && streamed;
              });
    if (stream_to != nullptr && !(streamed && stream_to->ViewStreamed(&set))) {
      return nullptr;
    }
    produced.fetch_add(1, std::memory_order_relaxed);
    if (sets_built != nullptr) {
      sets_built->Add(1);
      build_us->Record(MicrosSince(t0));
    }
    return std::make_shared<const harness::TraceSet>(std::move(set));
  };

  // One span per built family and per slice (or per mapped set), whatever
  // the thread count, so the span SET is deterministic even though
  // durations are not.
  auto build_family = [&](const Family& f) {
    if (tracer != nullptr) tracer->NameThisThread("builder");
    std::vector<std::shared_ptr<const harness::TraceSet>> sets(f.end -
                                                               f.begin);
    try {
      TraceSpan build_span(tracer, "build", "build:" + cfg_labels[f.leader]);
      std::shared_ptr<const harness::TraceSet> leader;
      if (stream) {
        TraceSpan stream_span(tracer, "io",
                              "bundle.stream:" + cfg_labels[f.leader]);
        leader = build(distinct[f.leader], &writer);
        stream = leader != nullptr;
      }
      // Not streamed, or the stream failed: the writer is gone, the bytes
      // with it, so the family builds again in memory.
      if (leader == nullptr) leader = build(distinct[f.leader]);
      build_span.End();
      for (size_t j = f.begin; j < f.end; ++j) {
        if (!needed[j]) continue;
        if (j == f.leader) {
          sets[j - f.begin] = leader;
          continue;
        }
        TraceSpan slice_span(tracer, "build", "slice:" + cfg_labels[j]);
        sets[j - f.begin] = std::make_shared<const harness::TraceSet>(
            PrefixSlice(leader, distinct[j]));
        produced.fetch_add(1, std::memory_order_relaxed);
        if (sets_sliced != nullptr) sets_sliced->Add(1);
      }
      // The sets view the file already; appending them writes only their
      // index rows.
      for (size_t j = f.begin; stream && j < f.end; ++j) {
        TraceSpan append_span(tracer, "io", "bundle.append:" + cfg_labels[j]);
        stream = writer.Append(*sets[j - f.begin]);
      }
      if (stream && sets_streamed != nullptr) sets_streamed->Add(sets.size());
    } catch (...) {
      record_error();
    }
    publish(f.begin, std::move(sets));
  };

  // Mapped set: pay the payload-checksum pass here, overlapped with other
  // builds and with simulation; each verified trace drops its pages
  // again, so only what replay touches stays resident. A mismatch demotes
  // exactly this set to a cold rebuild; the run is then "partial" and
  // rewrites the bundle afterwards.
  auto verify_mapped = [&](size_t j) {
    if (tracer != nullptr) tracer->NameThisThread("builder");
    std::shared_ptr<const harness::TraceSet> set;
    try {
      TraceSpan build_span(tracer, "build", "build:" + cfg_labels[j]);
      if (VerifyBundleSet(bundle_open.sets[j], bundle_open.checksums[j])) {
        set = std::make_shared<const harness::TraceSet>(
            std::move(bundle_open.sets[j]));
      } else {
        demoted.store(true, std::memory_order_relaxed);
        set = build(distinct[j]);
      }
    } catch (...) {
      record_error();
    }
    publish(j, {std::move(set)});
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
        if (published[j] == 0) {
          // Contention-dependent: whether a worker waits here depends on
          // scheduling, so the span is skipped under a deterministic
          // tracer (its presence would vary run to run).
          TraceSpan wait_span;
          if (tracer != nullptr && !tracer->deterministic()) {
            wait_span = TraceSpan(tracer, "sweep", "wait:" + cfg_labels[j]);
          }
          const auto w0 = std::chrono::steady_clock::now();
          build_cv.wait(lock, [&] { return published[j] != 0; });
          if (build_waits != nullptr) {
            build_waits->Add(1);
            build_wait_us->Record(MicrosSince(w0));
          }
        }
        // Stays in its slot while this cell is left (cells_left).
        set = slots[j].get();
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
      // The set's last cell takes it out of its slot; it is dropped
      // outside build_mu (a slice keeps its leader alive).
      std::shared_ptr<const harness::TraceSet> dropped;
      {
        std::lock_guard<std::mutex> lock(build_mu);
        if (--cells_left[j] == 0 && !mapped) {
          if (sets_released != nullptr) sets_released->Add(1);
          dropped = std::move(slots[j]);
        }
      }
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
    // the way sim workers claim cells, and return when none are left. A
    // streaming run has one, so the writer sees the families in order.
    std::atomic<size_t> next_task{0};
    const size_t build_threads =
        std::min<size_t>(stream ? 1 : threads, tasks.size());
    std::vector<std::thread> builders;
    builders.reserve(build_threads);
    for (size_t b = 0; b < build_threads; ++b) {
      builders.emplace_back([&] {
        size_t k;
        while ((k = next_task.fetch_add(1, std::memory_order_relaxed)) <
               tasks.size()) {
          tasks[k]();
        }
      });
    }
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back([&worker, t] { worker(t); });
    }
    // Every task traps its own exceptions, so joining is all that is left.
    for (std::thread& t : builders) t.join();
    report.build_wall_seconds = SecondsSince(sim_t0);
    for (std::thread& t : workers) t.join();
  }
  report.sim_wall_seconds = SecondsSince(sim_t0);
  report.trace_sets_built = produced.load(std::memory_order_relaxed);
  if (demoted.load(std::memory_order_relaxed)) report.bundle = "partial";

  // A cold run's streamed bundle becomes visible only once every set was
  // appended and every cell replayed cleanly; otherwise `writer` removes
  // its temp file as it goes out of scope.
  if (writing && !first_error) {
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
    for (const auto& slot : slots) sets.push_back(slot.get());
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
