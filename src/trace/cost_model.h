// Instruction-cost constants for engine operations, and the code-region
// footprints of the engine's components.
//
// These approximate per-operation instruction counts of a commercial RDBMS
// hot path (derived from published operator micro-profiles) and the hot
// code footprint of each component. They matter because both the
// computation component of CPI and the I-cache behaviour of the replay are
// derived from them. Centralized here so the calibration story is auditable.
#ifndef STAGEDCMP_TRACE_COST_MODEL_H_
#define STAGEDCMP_TRACE_COST_MODEL_H_

#include <cstdint>

#include "trace/tracer.h"

namespace stagedcmp::trace {

/// Per-operation instruction costs (plain instructions; memory events add
/// their own per-line instruction counts on top).
struct CostModel {
  // Storage / buffer pool.
  static constexpr uint32_t kBufferPoolLookup = 30;
  static constexpr uint32_t kPagePin = 12;
  static constexpr uint32_t kSlotDecode = 10;
  static constexpr uint32_t kTupleMaterializePerLine = 8;

  // Index.
  static constexpr uint32_t kBtreeNodeSearch = 24;  // binary search body
  static constexpr uint32_t kBtreeLeafInsert = 60;

  // Execution.
  static constexpr uint32_t kPredicateEval = 12;
  static constexpr uint32_t kAggUpdate = 14;
  static constexpr uint32_t kHashCompute = 22;
  static constexpr uint32_t kHashProbeStep = 10;
  static constexpr uint32_t kOperatorNextOverhead = 18;  // Volcano call chain
  static constexpr uint32_t kStagePacketOverhead = 35;   // enqueue/dequeue
  static constexpr uint32_t kTupleCopyPerLine = 6;

  // Transactions.
  static constexpr uint32_t kLockAcquire = 45;
  static constexpr uint32_t kLockRelease = 25;
  static constexpr uint32_t kTxnBeginCommit = 120;
  static constexpr uint32_t kLogRecord = 80;

  // KV serving (YCSB-style front end over storage/B+tree).
  static constexpr uint32_t kKvOpDispatch = 38;   // request parse + dispatch
  static constexpr uint32_t kKvKeyEncode = 14;    // key format/compare prep
  static constexpr uint32_t kKvFieldTouchPerLine = 6;
};

/// Hot code footprints (bytes) per component. Sum ≈ 500 KB, far beyond a
/// 32 KB L1I — switching components evicts instruction state, which is the
/// mechanism behind DBMS instruction stalls and the STEPS/staging remedy.
struct CodeFootprint {
  static constexpr uint32_t kSeqScan = 20 * 1024;
  static constexpr uint32_t kIndexScan = 28 * 1024;
  static constexpr uint32_t kFilter = 12 * 1024;
  static constexpr uint32_t kProject = 10 * 1024;
  static constexpr uint32_t kHashJoinBuild = 26 * 1024;
  static constexpr uint32_t kHashJoinProbe = 30 * 1024;
  static constexpr uint32_t kNlJoin = 16 * 1024;
  static constexpr uint32_t kSort = 34 * 1024;
  static constexpr uint32_t kAggregate = 24 * 1024;
  static constexpr uint32_t kBufferPool = 36 * 1024;
  static constexpr uint32_t kBtree = 40 * 1024;
  static constexpr uint32_t kLockMgr = 28 * 1024;
  static constexpr uint32_t kTxn = 44 * 1024;
  static constexpr uint32_t kCatalogParse = 52 * 1024;
  static constexpr uint32_t kStageRuntime = 18 * 1024;
  static constexpr uint32_t kYcsbServe = 32 * 1024;  ///< KV op dispatch/serve
  static constexpr uint32_t kIdleLoop = 4 * 1024;    ///< think-time wait loop
};

}  // namespace stagedcmp::trace

#endif  // STAGEDCMP_TRACE_COST_MODEL_H_
