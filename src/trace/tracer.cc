#include "trace/tracer.h"

namespace stagedcmp::trace {

CodeRegion CodeMap::Region(const std::string& name, uint32_t size_bytes) {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.region;
  }
  CodeRegion r;
  r.base = kCodeBase + next_offset_;
  r.size = size_bytes;
  next_offset_ += size_bytes;
  // Pad between regions so distinct operators never share an I-line.
  next_offset_ = (next_offset_ + 4095) & ~4095ULL;
  entries_.push_back({name, r});
  return r;
}

}  // namespace stagedcmp::trace
