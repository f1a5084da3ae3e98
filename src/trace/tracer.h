// Memory/instruction trace capture.
//
// The database engine executes natively; operators and substrates call the
// tracer at semantically meaningful points (page touch, key compare, hash
// probe, tuple copy, lock acquire...). The tracer folds short computation
// runs into adjacent memory events and tracks a synthetic program counter
// inside per-operator code regions, so the replayed workload exhibits the
// paper's two signature properties: a large instruction footprint (operator
// code regions sum to hundreds of KB) and a small-primary / large-secondary
// data working set (hot structures vs. cold heap pages).
//
// Data addresses are recorded relative to the recording world's
// AddressSpace (common/pages.h): an access at `p` is recorded as
// `p - base + kDataBase`, so a build's events are the same words in every
// process. Only a pointer outside the space is recorded as it is, and
// counted (unmapped_addresses); a world's builds keep that count at 0.
// Every world's data starts at kDataBase, so traces recorded in different
// worlds overlap: replaying them on one machine would make unrelated
// data share cache lines. Never mix clients of two worlds in one replay;
// a workload that needs two databases on one chip builds them in one
// world (a two-tenant config).
#ifndef STAGEDCMP_TRACE_TRACER_H_
#define STAGEDCMP_TRACE_TRACER_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/pages.h"
#include "trace/events.h"

namespace stagedcmp::trace {

/// A synthetic code region for one operator/subsystem. Regions live in a
/// flat fake code address space; the tracer cycles the PC through a region
/// while that operator runs, then jumps on operator switches — which is
/// exactly what makes tuple-at-a-time plans I-cache hostile and staged
/// batch execution I-cache friendly.
struct CodeRegion {
  uint64_t base = 0;
  uint32_t size = 0;  ///< bytes of hot code for this operator

  bool valid() const { return size != 0; }
};

/// Base of the fake code address space: the first canonical region
/// (bufferpool) starts here, and a fresh Tracer treats it as its initial
/// region.
inline constexpr uint64_t kCodeBase = 0x400000000000ULL;

/// Stable identity of an engine component's code region. The database
/// layer stores these (not resolved CodeRegions); the Tracer resolves the
/// id through its RegionSet at EnterRegion time. kIndexScan, kProject,
/// kNlJoin and kSort name operators no engine path traces; they keep
/// their ids and footprints because the canonical layout (cost_model.cc)
/// places kYcsb and kIdle after them.
enum class RegionId : uint8_t {
  kSeqScan,
  kIndexScan,
  kFilter,
  kProject,
  kHashBuild,
  kHashProbe,
  kNlJoin,
  kSort,
  kAggregate,
  kBufferPool,
  kBtree,
  kLockMgr,
  kTxn,
  kCatalog,
  kStageRuntime,
  // PR 8 additions — appended at the tail so every pre-existing region
  // keeps its historical base address (and therefore its PC stream).
  kYcsb,
  kIdle,
};
inline constexpr size_t kRegionCount = 17;

/// All engine code regions, laid out in one canonical order (see
/// cost_model.cc): every RegionSet holds the same, build-order-independent
/// PC layout.
class RegionSet {
 public:
  /// Lays out all kRegionCount regions from kCodeBase in canonical order.
  RegionSet();

  const CodeRegion& operator[](RegionId id) const {
    return regions_[static_cast<size_t>(id)];
  }

 private:
  CodeRegion regions_[kRegionCount];
};

/// Per-client trace recorder; TakeTrace starts the next client's. Resolves
/// RegionIds through the RegionSet it was constructed with (normally its
/// world's).
class Tracer {
 public:
  /// Where a world's data addresses start in a recorded trace: 2 MB
  /// aligned, so a block's offset in its space keeps its cache-set bits,
  /// and far below kCodeBase.
  static constexpr uint64_t kDataBase = 0x100000000000ULL;

  /// Records data addresses relative to `space`, when given; without one
  /// (tests and benchmarks tracing outside a world) every address is
  /// recorded as it is.
  explicit Tracer(const RegionSet* regions,
                  const AddressSpace* space = nullptr)
      : regions_(regions) {
    if (space != nullptr) {
      base_ = space->base();
      limit_ = AddressSpace::kBytes;
      rebase_ = kDataBase - space->base();
    }
    Reset();
  }

  void Reset() {
    trace_ = ClientTrace();
    encoder_.Discard();
    region_ = CodeRegion{kCodeBase, 64 * 1024};
    pc_off_ = 0;
    win_base_ = 0;
    pending_compute_ = 0;
    instrs_since_sync_ = 0;
    jump_pending_ = false;
    enabled_ = true;
    region_pc_.clear();
  }

  /// Enables/disables recording (e.g. during data load).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Switches the active code region (operator entry), resolving the id
  /// through this tracer's RegionSet.
  void EnterRegion(RegionId id) { EnterRegion((*regions_)[id]); }

  /// Switches the active code region (operator entry). Emits a compute
  /// event with an explicit PC so the replayer jumps.
  void EnterRegion(const CodeRegion& r) {
    if (!enabled_ || !r.valid() || r.base == region_.base) return;
    FlushCompute();
    SuspendedPcFor(region_.base) = {pc_off_, win_base_};  // suspend
    region_ = r;
    // Resume where this operator's code last executed. The PC loops inside
    // a hot window (the current loop body / branch paths) that slowly
    // drifts across the region, so each operator has a loop-like hot spot
    // while its full footprint is covered over time — interleaving many
    // operators per tuple is what overflows the L1I.
    const RegionPc resume = SuspendedPcFor(r.base);
    pc_off_ = resume.pc;
    win_base_ = resume.win;
    jump_pending_ = true;
    Compute(8);  // call/prologue overhead; also forces the PC jump to emit
  }

  /// Accounts `n` instructions of straight-line computation.
  void Compute(uint32_t n) {
    if (!enabled_ || n == 0) return;
    pending_compute_ += n;
    trace_.total_instructions += n;
    // Large pure-compute runs flush so LC interleaving stays fine-grained.
    if (pending_compute_ >= 192) FlushCompute();
  }

  /// Records a data read of `bytes` starting at `p`, with `instrs`
  /// instructions of work per touched cache line (loop body cost).
  /// `dependent` marks pointer-chase accesses that an OoO core cannot
  /// overlap with the previous miss.
  void Read(const void* p, size_t bytes, uint32_t instrs_per_line = 4,
            bool dependent = false) {
    Mem(EventKind::kRead, p, bytes, instrs_per_line, dependent);
  }
  void Write(const void* p, size_t bytes, uint32_t instrs_per_line = 4,
             bool dependent = false) {
    Mem(EventKind::kWrite, p, bytes, instrs_per_line, dependent);
  }

  /// Marks the completion of one request (query/transaction).
  void EndRequest() {
    if (!enabled_) return;
    FlushCompute();
    encoder_.Append(PackEvent(EventKind::kMarker, 0, 0));
    ++trace_.requests;
  }

  /// Events recorded so far.
  uint64_t events_size() const { return encoder_.events_size(); }
  /// Accesses recorded outside the space, over the tracer's life.
  uint64_t unmapped_addresses() const { return unmapped_; }
  /// Flushes, hands over the recorded trace, and starts a fresh
  /// recording as if newly constructed, except for where its payload
  /// goes: right after this one's while this one's is alive, else in its
  /// place (a trace copied out and dropped, as a streamed build does —
  /// harness::TraceSink), so its pages are reused rather than faulted in
  /// fresh.
  ClientTrace TakeTrace() {
    FlushCompute();
    ClientTrace t = std::move(trace_);
    encoder_.Finish(&t);
    Reset();
    return t;
  }

  /// Flushes buffered computation into the event stream.
  void FlushCompute() {
    while (pending_compute_ > 0) {
      const uint32_t n =
          pending_compute_ > kMaxEventCount ? kMaxEventCount : pending_compute_;
      encoder_.Append(PackEvent(EventKind::kCompute, CurrentPc(), n));
      AdvancePc(n);
      pending_compute_ -= n;
      jump_pending_ = false;
      instrs_since_sync_ = 0;
    }
  }

 private:
  // Hot-window geometry: each operator's working loop occupies ~8KB of
  // code, so interleaving the half-dozen components on a tuple-at-a-time
  // path (scan, filter, agg, buffer pool, runtime, catalog) overflows a
  // 32KB L1I, while a staged batch keeps one window resident. The window
  // drifts slowly so an operator's full footprint is covered over time.
  static constexpr uint32_t kLoopWindow = 8192;
  static constexpr uint32_t kWindowDrift = 64;  // coverage per wrap

  uint64_t CurrentPc() const { return region_.base + pc_off_; }

  void AdvancePc(uint32_t instrs) {
    const uint32_t window = std::min(kLoopWindow, region_.size);
    uint32_t rel = pc_off_ >= win_base_ ? pc_off_ - win_base_ : 0;
    rel += instrs * 4;
    while (rel >= window) {
      rel -= window;
      // Loop wrapped: drift the hot window forward through the region.
      win_base_ = (win_base_ + kWindowDrift) % std::max<uint32_t>(
                      region_.size - window + 1, 1);
    }
    pc_off_ = win_base_ + rel;
  }

  void Mem(EventKind kind, const void* p, size_t bytes, uint32_t ipl,
           bool dependent) {
    if (!enabled_) return;
    if (jump_pending_ || pending_compute_ > (kMaxMemCount / 2)) FlushCompute();
    // Memory events advance the replayer's PC linearly without the loop-
    // window wrap; emit an explicit PC-bearing compute event at bounded
    // intervals so replayed I-fetches stay inside the hot window.
    if (instrs_since_sync_ > 256) {
      pending_compute_ += 1;
      trace_.total_instructions += 1;
      FlushCompute();
    }
    uint64_t addr = reinterpret_cast<uint64_t>(p);
    if (addr - base_ < limit_) {
      addr += rebase_;
    } else {
      ++unmapped_;
    }
    const uint64_t end = addr + (bytes == 0 ? 1 : bytes);
    uint64_t line = addr >> 6;
    const uint64_t last_line = (end - 1) >> 6;
    bool first = true;
    for (; line <= last_line; ++line) {
      uint32_t n = ipl == 0 ? 1 : ipl;
      uint32_t newly_counted = n;  // folded compute was already counted
      if (first) {
        // Fold any buffered computation into the first line's event.
        const uint32_t fold = pending_compute_ > (kMaxMemCount - n)
                                  ? (kMaxMemCount - n)
                                  : pending_compute_;
        n += fold;
        pending_compute_ -= fold;
        if (pending_compute_ > 0) FlushCompute();
      }
      encoder_.Append(PackMemEvent(kind, line << 6, n, dependent && first));
      trace_.total_instructions += newly_counted;
      instrs_since_sync_ += n;
      AdvancePc(n);
      first = false;
    }
  }

  struct RegionPc {
    uint32_t pc = 0;
    uint32_t win = 0;
  };

  /// Suspended-PC slot for the region based at `base`, created zeroed on
  /// first use. EnterRegion runs on every operator switch — per tuple on
  /// a Volcano plan — and only ever sees the dozen-odd registered
  /// regions, so a linear scan of a flat array beats a hash probe.
  RegionPc& SuspendedPcFor(uint64_t base) {
    for (auto& e : region_pc_) {
      if (e.first == base) return e.second;
    }
    region_pc_.emplace_back(base, RegionPc{});
    return region_pc_.back().second;
  }

  const RegionSet* regions_;
  uint64_t base_ = 0;               ///< the space's first address
  uint64_t limit_ = UINT64_MAX;     ///< the space's size
  uint64_t rebase_ = 0;             ///< added to an address in the space
  uint64_t unmapped_ = 0;
  ClientTrace trace_;      ///< totals; the events live in encoder_
  EventEncoder encoder_;
  CodeRegion region_;
  uint32_t pc_off_ = 0;
  uint32_t win_base_ = 0;
  uint32_t pending_compute_ = 0;
  uint32_t instrs_since_sync_ = 0;
  bool jump_pending_ = false;
  bool enabled_ = true;
  std::vector<std::pair<uint64_t, RegionPc>> region_pc_;
};

}  // namespace stagedcmp::trace

#endif  // STAGEDCMP_TRACE_TRACER_H_
