#include "sweep/trace_cache.h"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace stagedcmp::sweep {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());
}

}  // namespace

TraceSetCache::TraceSetCache(const harness::WorkloadFactory* factory,
                             MetricsRegistry* metrics)
    : factory_(factory) {
  if (metrics != nullptr) {
    lookups_ = &metrics->counter("trace_cache.lookups");
    hit_ctr_ = &metrics->counter("trace_cache.hits");
    miss_ctr_ = &metrics->counter("trace_cache.misses");
    insert_ctr_ = &metrics->counter("trace_cache.inserts");
    slice_ctr_ = &metrics->counter("trace_cache.slices");
    evict_ctr_ = &metrics->counter("trace_cache.evictions");
    rendezvous_ctr_ = &metrics->counter("trace_cache.rendezvous_waits");
    build_us_ = &metrics->histogram("trace_cache.build_us");
    rendezvous_wait_us_ =
        &metrics->histogram("trace_cache.rendezvous_wait_us");
  }
}

TraceSetCache::Key TraceSetCache::MakeKey(const harness::TraceSetConfig& c) {
  return harness::FieldWords(c);
}

TraceSetCache::Key TraceSetCache::FamilyKey(const harness::TraceSetConfig& c) {
  if (c.tenant2_clients > 0) return MakeKey(c);
  harness::TraceSetConfig family = c;
  family.clients = 0;
  return MakeKey(family);
}

void TraceSetCache::Publish(Entry* entry, harness::TraceSet&& set) {
  auto owned = std::make_shared<harness::TraceSet>(std::move(set));
  owned->Pointers();
  entry->set = std::move(owned);
  entry->ready.store(true, std::memory_order_release);
}

std::shared_ptr<TraceSetCache::Entry> TraceSetCache::EntryFor(const Key& key) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::shared_ptr<Entry>& slot = cache_[key];
  if (!slot) slot = std::make_shared<Entry>();
  return slot;
}

const harness::TraceSet& TraceSetCache::Get(
    const harness::TraceSetConfig& config) {
  if (lookups_ != nullptr) lookups_->Add(1);
  std::shared_ptr<Entry> entry = EntryFor(MakeKey(config));
  // Read `ready` before entering the once_flag: false here followed by
  // !built_now below means this caller blocked on another thread's
  // in-flight build (a rendezvous). The acquire pairs with the release
  // store at the end of the build, so a true load also makes the
  // published `set` visible without touching the once_flag's internals.
  const bool was_ready = entry->ready.load(std::memory_order_acquire);
  const Clock::time_point wait_t0 =
      (!was_ready && rendezvous_ctr_ != nullptr) ? Clock::now()
                                                 : Clock::time_point{};
  bool built_now = false;
  // One builder per entry; same-config callers block here until it is
  // ready. If the build throws, the flag stays unset and the exception
  // propagates — the next caller retries.
  std::call_once(entry->once, [&] {
    const Clock::time_point build_t0 = Clock::now();
    Publish(entry.get(), factory_->Build(config));
    builds_.fetch_add(1, std::memory_order_relaxed);
    if (build_us_ != nullptr) build_us_->Record(MicrosSince(build_t0));
    built_now = true;
  });
  if (built_now) {
    if (miss_ctr_ != nullptr) miss_ctr_->Add(1);
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hit_ctr_ != nullptr) {
      hit_ctr_->Add(1);
      if (!was_ready) {
        // Blocked behind the builder: a hit (nothing was built for this
        // caller) but one worth surfacing — rendezvous time is the
        // pipeline's build/sim overlap shortfall.
        rendezvous_ctr_->Add(1);
        rendezvous_wait_us_->Record(MicrosSince(wait_t0));
      }
    }
  }
  return *entry->set;
}

const harness::TraceSet& TraceSetCache::Insert(harness::TraceSet&& set) {
  std::shared_ptr<Entry> entry = EntryFor(MakeKey(set.config));
  std::call_once(entry->once, [&] {
    Publish(entry.get(), std::move(set));
    if (insert_ctr_ != nullptr) insert_ctr_->Add(1);
  });
  return *entry->set;
}

const harness::TraceSet& TraceSetCache::Slice(
    const harness::TraceSetConfig& config,
    const harness::TraceSetConfig& leader) {
  if (FamilyKey(config) != FamilyKey(leader) ||
      config.clients > leader.clients) {
    throw std::invalid_argument(
        "TraceSetCache::Slice: config is not a smaller member of the "
        "leader's client-count family");
  }
  // Resolved before the once_flag: an exception escaping a call_once
  // callable leaves the flag unusable on some standard libraries.
  std::shared_ptr<const harness::TraceSet> whole;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = cache_.find(MakeKey(leader));
    if (it != cache_.end() &&
        it->second->ready.load(std::memory_order_acquire)) {
      whole = it->second->set;
    }
  }
  if (whole == nullptr) {
    throw std::invalid_argument("TraceSetCache::Slice: leader not cached");
  }
  std::shared_ptr<Entry> entry = EntryFor(MakeKey(config));
  std::call_once(entry->once, [&] {
    harness::TraceSet slice;  // single-tenant: FamilyKey checked above
    slice.config = config;
    slice.traces.resize(config.clients);
    for (uint32_t c = 0; c < config.clients; ++c) {
      const trace::ClientTrace& src = whole->traces[c];
      trace::ClientTrace& t = slice.traces[c];
      t.SetView(src.events_data(), src.events_size());
      t.total_instructions = src.total_instructions;
      t.requests = src.requests;
      slice.total_instructions += t.total_instructions;
      slice.total_events += t.events_size();
    }
    slice.leader = std::move(whole);
    Publish(entry.get(), std::move(slice));
    slices_.fetch_add(1, std::memory_order_relaxed);
    if (slice_ctr_ != nullptr) slice_ctr_->Add(1);
  });
  return *entry->set;
}

void TraceSetCache::EvictAll() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Dropping the entries frees each set with its last owner.
  if (evict_ctr_ != nullptr) evict_ctr_->Add(cache_.size());
  cache_.clear();
}

bool TraceSetCache::Release(const harness::TraceSetConfig& config) {
  std::shared_ptr<Entry> dropped;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = cache_.find(MakeKey(config));
    if (it == cache_.end()) return false;
    dropped = std::move(it->second);
    cache_.erase(it);
  }
  if (evict_ctr_ != nullptr) evict_ctr_->Add(1);
  // `dropped` frees the set here (unless a slice still pins it), outside
  // the lock, so concurrent Get()s of other configs never wait on the
  // deallocation.
  return true;
}

TraceSetCache::Stats TraceSetCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.builds = builds_.load(std::memory_order_relaxed);
  s.slices = slices_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace stagedcmp::sweep
