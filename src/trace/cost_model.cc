#include "trace/cost_model.h"

#include <iterator>
#include <utility>

namespace stagedcmp::trace {

RegionSet::RegionSet() {
  // Canonical layout order. It fixes the PC layout of every world, so
  // traces keep their historical PC streams: bufferpool first (its base
  // is kCodeBase, which a fresh Tracer treats as its initial region), then
  // the substrate and operator regions in first-touch order. No operator
  // traces kIndexScan, kProject, kNlJoin or kSort; they keep their place
  // so kYcsb and kIdle, appended after every older region, keep their
  // bases.
  static constexpr std::pair<RegionId, uint32_t> kLayout[] = {
      {RegionId::kBufferPool, CodeFootprint::kBufferPool},
      {RegionId::kLockMgr, CodeFootprint::kLockMgr},
      {RegionId::kTxn, CodeFootprint::kTxn},
      {RegionId::kBtree, CodeFootprint::kBtree},
      {RegionId::kCatalog, CodeFootprint::kCatalogParse},
      {RegionId::kSeqScan, CodeFootprint::kSeqScan},
      {RegionId::kAggregate, CodeFootprint::kAggregate},
      {RegionId::kHashBuild, CodeFootprint::kHashJoinBuild},
      {RegionId::kHashProbe, CodeFootprint::kHashJoinProbe},
      {RegionId::kFilter, CodeFootprint::kFilter},
      {RegionId::kStageRuntime, CodeFootprint::kStageRuntime},
      {RegionId::kIndexScan, CodeFootprint::kIndexScan},
      {RegionId::kProject, CodeFootprint::kProject},
      {RegionId::kNlJoin, CodeFootprint::kNlJoin},
      {RegionId::kSort, CodeFootprint::kSort},
      {RegionId::kYcsb, CodeFootprint::kYcsbServe},
      {RegionId::kIdle, CodeFootprint::kIdleLoop},
  };
  static_assert(std::size(kLayout) == kRegionCount);
  uint64_t offset = 0;
  for (const auto& [id, size] : kLayout) {
    regions_[static_cast<size_t>(id)] = CodeRegion{kCodeBase + offset, size};
    // Pad between regions so distinct operators never share an I-line.
    offset = (offset + size + 4095) & ~4095ULL;
  }
}

}  // namespace stagedcmp::trace
