#include "trace/cost_model.h"

namespace stagedcmp::trace {

RegionSet::RegionSet(CodeMap* map) {
  auto reg = [&](RegionId id, const char* name, uint32_t size) {
    regions_[static_cast<size_t>(id)] = map->Region(name, size);
  };
  // Canonical registration order. This fixes the PC layout of every world
  // to the order the old lazy accessors
  // produced on the sweep path, so traces keep their historical PC
  // streams: bufferpool first — its base equals CodeMap::kCodeBase, which
  // a fresh Tracer treats as its initial region — then the substrate and
  // operator regions in first-touch order, with the operators no workload
  // path traces at the tail.
  reg(RegionId::kBufferPool, "bufferpool", CodeFootprint::kBufferPool);
  reg(RegionId::kLockMgr, "lockmgr", CodeFootprint::kLockMgr);
  reg(RegionId::kTxn, "txn", CodeFootprint::kTxn);
  reg(RegionId::kBtree, "btree", CodeFootprint::kBtree);
  reg(RegionId::kCatalog, "catalog", CodeFootprint::kCatalogParse);
  reg(RegionId::kSeqScan, "seqscan", CodeFootprint::kSeqScan);
  reg(RegionId::kAggregate, "aggregate", CodeFootprint::kAggregate);
  reg(RegionId::kHashBuild, "hashbuild", CodeFootprint::kHashJoinBuild);
  reg(RegionId::kHashProbe, "hashprobe", CodeFootprint::kHashJoinProbe);
  reg(RegionId::kFilter, "filter", CodeFootprint::kFilter);
  reg(RegionId::kStageRuntime, "stageruntime", CodeFootprint::kStageRuntime);
  reg(RegionId::kIndexScan, "indexscan", CodeFootprint::kIndexScan);
  reg(RegionId::kProject, "project", CodeFootprint::kProject);
  reg(RegionId::kNlJoin, "nljoin", CodeFootprint::kNlJoin);
  reg(RegionId::kSort, "sort", CodeFootprint::kSort);
  // PR 8 traffic subsystem — appended after every historical region so the
  // bases above (and the PC streams of previously recorded traces) are
  // unchanged.
  reg(RegionId::kYcsb, "ycsb", CodeFootprint::kYcsbServe);
  reg(RegionId::kIdle, "idle", CodeFootprint::kIdleLoop);
}

}  // namespace stagedcmp::trace
