// Cold-path definitions for the hierarchies: construction, stat resets,
// reporting. The per-access hot paths live inline in hierarchy.h so the
// templated replay core can inline them.
#include "memsim/hierarchy.h"

namespace stagedcmp::memsim {

const char* AccessClassName(AccessClass c) {
  switch (c) {
    case AccessClass::kL1Hit: return "L1-hit";
    case AccessClass::kL2Hit: return "L2-hit";
    case AccessClass::kOffChip: return "off-chip";
    case AccessClass::kCoherence: return "coherence";
    case AccessClass::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// SharedL2HierarchyImpl (CMP)
// ---------------------------------------------------------------------------

template <uint32_t kMaxNodes>
SharedL2HierarchyImpl<kMaxNodes>::SharedL2HierarchyImpl(
    const HierarchyConfig& config)
    : config_(config), l2_(config.l2) {
  // The L1 directory's sharer masks are kMaxNodes wide; fail loudly
  // rather than index past them (MakeCmpHierarchy routes by width).
  if (config.num_cores > kMaxNodes) {
    std::fprintf(stderr,
                 "SharedL2Hierarchy: L1 directory supports <= %u cores, "
                 "got %u\n",
                 kMaxNodes, config.num_cores);
    std::abort();
  }
  line_shift_ = Log2Floor(config.l2.line_bytes);
  for (uint32_t i = 0; i < config.num_cores; ++i) {
    l1i_.emplace_back(config.l1i);
    l1d_.emplace_back(config.l1d);
    sbuf_.emplace_back(kStreamBuffers, kStreamBufferDepth);
  }
  port_free_.assign(std::max<uint32_t>(1, config.l2_ports), 0);
}

template <uint32_t kMaxNodes>
void SharedL2HierarchyImpl<kMaxNodes>::ResetStats() {
  stats_ = HierarchyStats();
  l2_.ResetCounters();
  for (Cache& c : l1i_) c.ResetCounters();
  for (Cache& c : l1d_) c.ResetCounters();
}

// ---------------------------------------------------------------------------
// Explicit instantiations
// ---------------------------------------------------------------------------

// Every arm/width combination the factories and the replay engine's
// devirtualized dispatch (coresim/cmp.cc) can name. These force every
// member of each combination to compile even in a build whose TUs
// exercise only some of them. Deliberately NOT paired with
// `extern template` declarations in the header: suppressing per-TU
// instantiation would also stop the replay engine from inlining the
// per-access methods, which is the whole point of the design.
template class SharedL2HierarchyImpl<kNarrowMaxNodes>;
template class SharedL2HierarchyImpl<kWideMaxNodes>;
template class PrivateL2HierarchyImpl<true, kNarrowMaxNodes>;   // directory
template class PrivateL2HierarchyImpl<true, kWideMaxNodes>;     // wide dir
template class PrivateL2HierarchyImpl<false, kNarrowMaxNodes>;  // snoop ref

std::unique_ptr<MemoryHierarchy> MakeCmpHierarchy(const HierarchyConfig& c) {
  // Narrow through 64 cores — the historical single-word-mask hot path —
  // wide through 1024 (the constructor aborts past that).
  if (c.num_cores > kNarrowMaxNodes) {
    return std::make_unique<SharedL2HierarchyWide>(c);
  }
  return std::make_unique<SharedL2Hierarchy>(c);
}
std::unique_ptr<MemoryHierarchy> MakeSmpHierarchy(const HierarchyConfig& c) {
  // Route by sharers-bitmap width: narrow directory through 64 nodes,
  // wide directory through 1024; machines larger still run the broadcast
  // snoop, which is bit-identical and has no node limit.
  if (c.num_cores > kWideMaxNodes) {
    return std::make_unique<PrivateL2SnoopHierarchy>(c);
  }
  if (c.num_cores > kNarrowMaxNodes) {
    return std::make_unique<PrivateL2HierarchyWide>(c);
  }
  return std::make_unique<PrivateL2Hierarchy>(c);
}

}  // namespace stagedcmp::memsim
