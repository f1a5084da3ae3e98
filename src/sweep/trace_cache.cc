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

/// Wraps `set` for sharing, warming its pointer cache first so
/// concurrent readers only ever see the const fast path.
std::shared_ptr<const harness::TraceSet> Share(harness::TraceSet&& set) {
  auto owned = std::make_shared<harness::TraceSet>(std::move(set));
  owned->Pointers();
  return owned;
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
    build_us_ = &metrics->histogram("trace_cache.build_us");
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

const harness::TraceSet& TraceSetCache::Get(
    const harness::TraceSetConfig& config) {
  if (lookups_ != nullptr) lookups_->Add(1);
  const Key key = MakeKey(config);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++stats_.hits;
      if (hit_ctr_ != nullptr) hit_ctr_->Add(1);
      return *it->second;
    }
  }
  // Built outside the lock, so distinct configs build in parallel. If the
  // build throws nothing is published and the next Get builds again.
  const Clock::time_point build_t0 = Clock::now();
  std::shared_ptr<const harness::TraceSet> built =
      Share(factory_->Build(config));
  if (build_us_ != nullptr) build_us_->Record(MicrosSince(build_t0));
  if (miss_ctr_ != nullptr) miss_ctr_->Add(1);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.builds;
  // A racing Get of the same config may have published first: its set
  // wins, and `built` is freed once the lock is dropped.
  return *cache_.try_emplace(key, std::move(built)).first->second;
}

const harness::TraceSet& TraceSetCache::Insert(harness::TraceSet&& set) {
  const Key key = MakeKey(set.config);
  std::shared_ptr<const harness::TraceSet> owned = Share(std::move(set));
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = cache_.try_emplace(key, std::move(owned));
  if (inserted && insert_ctr_ != nullptr) insert_ctr_->Add(1);
  return *it->second;
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
  std::shared_ptr<const harness::TraceSet> whole;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(MakeKey(leader));
    if (it != cache_.end()) whole = it->second;
  }
  if (whole == nullptr) {
    throw std::invalid_argument("TraceSetCache::Slice: leader not cached");
  }
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
  std::shared_ptr<const harness::TraceSet> owned = Share(std::move(slice));
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      cache_.try_emplace(MakeKey(config), std::move(owned));
  if (inserted) {
    ++stats_.slices;
    if (slice_ctr_ != nullptr) slice_ctr_->Add(1);
  }
  return *it->second;
}

void TraceSetCache::EvictAll() {
  std::lock_guard<std::mutex> lock(mu_);
  // Dropping the entries frees each set with its last owner.
  if (evict_ctr_ != nullptr) evict_ctr_->Add(cache_.size());
  cache_.clear();
}

bool TraceSetCache::Release(const harness::TraceSetConfig& config) {
  std::shared_ptr<const harness::TraceSet> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
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
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace stagedcmp::sweep
