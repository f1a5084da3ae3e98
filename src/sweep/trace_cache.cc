#include "sweep/trace_cache.h"

#include <stdexcept>
#include <utility>

namespace stagedcmp::sweep {

TraceSetCache::Key TraceSetCache::MakeKey(const harness::TraceSetConfig& c) {
  return harness::FieldWords(c);
}

TraceSetCache::Key TraceSetCache::FamilyKey(const harness::TraceSetConfig& c) {
  if (c.tenant2_clients > 0) return MakeKey(c);
  harness::TraceSetConfig family = c;
  family.clients = 0;
  return MakeKey(family);
}

harness::TraceSet PrefixSlice(std::shared_ptr<const harness::TraceSet> leader,
                              const harness::TraceSetConfig& config) {
  if (leader == nullptr || config.tenant2_clients > 0 ||
      TraceSetCache::FamilyKey(config) !=
          TraceSetCache::FamilyKey(leader->config) ||
      config.clients > leader->config.clients) {
    throw std::invalid_argument(
        "PrefixSlice: config is not a single-tenant member of the leader's "
        "client-count family with no more clients");
  }
  harness::TraceSet slice;
  slice.config = config;
  slice.traces.resize(config.clients);
  for (uint32_t c = 0; c < config.clients; ++c) {
    trace::ClientTrace& t = slice.traces[c];
    t.ViewOf(leader->traces[c]);
    slice.total_instructions += t.total_instructions;
    slice.total_events += t.events_size();
  }
  slice.leader = std::move(leader);
  return slice;
}

}  // namespace stagedcmp::sweep
