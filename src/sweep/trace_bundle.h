// Disk persistence for built trace sets — the record-once / replay-many
// half of the paper's trace-driven methodology. Generating a workload
// trace means loading multi-hundred-MB databases and natively executing
// every query/transaction; replaying it is the simulator's job and needs
// only the packed event streams. A bundle captures the *ordered sequence*
// of trace sets one sweep builds so later runs of the same sweep skip
// generation entirely.
//
// Builds are pure functions of (config, scale knobs) — each runs in an
// isolated WorkloadWorld (see harness/world.h), so a set's bytes no
// longer depend on the builds before it. The bundle still persists the
// whole sequence and stays all-or-nothing at the header level: it serves
// sets only when its recorded config sequence exactly matches the
// sweep's canonical build order and the factory's workload scale knobs
// are unchanged, which keeps the match check trivial and the failure
// mode obvious.
//
// Format v3 is built for zero-copy replay. The header carries a full
// index — per-trace byte offsets, event counts, and per-trace payload
// checksums — and every event payload is padded to a 64-byte boundary,
// so OpenTraceBundle can mmap the file, validate header + index eagerly
// (microseconds), and hand out *non-owning* event views into the
// mapping (ClientTrace::SetView). Payload checksums are then verified
// lazily, one set at a time, via VerifyBundleSet — the sweep runner does
// this on its builder threads, overlapped with simulation, and drops each
// verified trace's pages from the process so only the pages replay
// touches stay resident. The mapping is owned by a refcounted
// MappedBundle pinned through each served TraceSet's `backing` handle,
// so cache eviction unmaps safely.
//
// Writing is streamed. A set built from config `c` holds exactly
// TotalClients(c) traces, so the header's size — and with it every
// payload offset — follows from the config sequence alone. BundleWriter
// therefore writes each set's payloads at their final offsets as soon as
// the set arrives, and writes the header last; the sweep runner appends
// cold sets as they are built and frees them once replayed.
//
// Demotion chain, two steps, never aborting a run: a map failure or any
// header/geometry mismatch — truncation, version skew (a v2 bundle read
// by this code), header checksum — demotes the whole open to a cold
// rebuild (which then rewrites the bundle); a payload checksum mismatch
// found by the lazy per-set verification demotes only that set, and the
// run reports `partial`.
//
// Staleness caveat: the format records configs and scales, not the
// engine's code. After changing trace generation itself (workloads,
// db substrates, tracer), delete stale bundles — scripts/check.sh
// regenerates its bundle on every run for exactly this reason.
//
// Format is native-endian and version-gated; bundles are a local cache,
// not an interchange format. Padding bytes are not checksummed.
#ifndef STAGEDCMP_SWEEP_TRACE_BUNDLE_H_
#define STAGEDCMP_SWEEP_TRACE_BUNDLE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace stagedcmp::sweep {

/// Refcounted read-only mapping of a bundle file; unmaps on destruction.
/// Served TraceSets hold it via their type-erased `backing` pointer, so
/// the mapping lives exactly as long as the last view into it. Renaming
/// a fresh bundle over the mapped path is safe: the mapping pins the old
/// inode.
class MappedBundle {
 public:
  /// Maps `path` read-only. Null on open/stat/mmap failure (and on hosts
  /// without mmap) — OpenTraceBundle then reports "cold".
  static std::shared_ptr<MappedBundle> Map(const std::string& path);
  ~MappedBundle();

  MappedBundle(const MappedBundle&) = delete;
  MappedBundle& operator=(const MappedBundle&) = delete;

  const uint64_t* words() const {
    return static_cast<const uint64_t*>(addr_);
  }
  uint64_t size_bytes() const { return bytes_; }

  /// Drops the whole pages inside [data, data + words) from the process
  /// (MADV_DONTNEED). The mapping is private and read-only, so a later
  /// access re-faults the file's bytes; a range outside the mapping is
  /// ignored. Bundles are only ever replaced by rename, never rewritten
  /// in place, so the re-faulted bytes are the ones that were verified.
  void DropPages(const uint64_t* data, uint64_t words) const;

 private:
  MappedBundle(void* addr, uint64_t bytes) : addr_(addr), bytes_(bytes) {}
  void* addr_;
  uint64_t bytes_;
};

/// Outcome of OpenTraceBundle. `sets` is parallel to the expected config
/// sequence; `mode` records the outcome:
///   "mmap" — view-based sets into a shared mapping; header + index
///            validated, payload checksums NOT yet — callers must run
///            VerifyBundleSet(sets[j], checksums[j]) before trusting a
///            set, and on failure rebuild that set cold.
///   "cold" — nothing served (missing file, map failure, stale or
///            corrupt header/geometry); sets empty, mapping null.
struct BundleOpenResult {
  std::string mode = "cold";
  std::vector<harness::TraceSet> sets;
  std::vector<std::vector<uint64_t>> checksums;  ///< per set, per trace
  std::shared_ptr<MappedBundle> mapping;  ///< the whole-file mapping
  uint64_t map_us = 0;                    ///< open+validate wall time
};

/// Streams trace sets into a v3 bundle at `path`, atomically: payloads
/// go to `path.tmp` as each set is appended, Finish() writes the header
/// and renames the file into place. A writer that fails, or is destroyed
/// before Finish() succeeds, removes its temp file. Not thread-safe; the
/// caller serializes Append calls.
class BundleWriter {
 public:
  BundleWriter() = default;
  ~BundleWriter();

  BundleWriter(const BundleWriter&) = delete;
  BundleWriter& operator=(const BundleWriter&) = delete;

  /// Opens the temp file for the canonical sequence `configs` and
  /// reserves the header, whose size follows from the configs alone.
  /// Called once per writer. False on I/O failure.
  bool Begin(const std::string& path, const harness::WorkloadFactory& factory,
             std::vector<harness::TraceSetConfig> configs);
  /// Writes the next set of Begin's sequence at its final offset. False —
  /// and the writer is abandoned — on I/O failure, or when `set` is not
  /// the next config's set or does not hold TotalClients(config) traces.
  bool Append(const harness::TraceSet& set);
  /// After the last Append: writes the checksummed header, flushes and
  /// renames the temp file onto `path`. False on any failure.
  bool Finish();

 private:
  /// Closes and removes the temp file, if one is open.
  void Abandon();

  std::string path_;
  std::FILE* file_ = nullptr;  ///< open between Begin and Finish/Abandon
  std::vector<harness::TraceSetConfig> configs_;
  size_t appended_ = 0;
  std::vector<uint64_t> header_;  ///< header words recorded so far
  uint64_t header_words_ = 0;     ///< closed-form size, checksum included
  uint64_t cursor_ = 0;           ///< next payload's absolute offset
};

/// Writes `sets` (in build order) to `path` through one BundleWriter.
/// Returns false on any I/O failure. Reads events through the view
/// accessors, so re-persisting mapped sets works.
bool SaveTraceBundle(const std::string& path,
                     const harness::WorkloadFactory& factory,
                     const std::vector<const harness::TraceSet*>& sets);

/// Maps `path` and validates its header against the canonical sequence
/// `expected`: "mmap" with a view-based set per config, or "cold" on a
/// map failure or any header/geometry mismatch. Every set is served, but
/// only the pages a caller touches are ever faulted in, so a sharded run
/// pays nothing for the sets it skips.
BundleOpenResult OpenTraceBundle(
    const std::string& path, const harness::WorkloadFactory& factory,
    const std::vector<harness::TraceSetConfig>& expected);

/// Verifies one mmap-served set's event payloads against the per-trace
/// checksums recorded in the bundle index. Faults in the set's pages
/// and drops each trace's pages again as soon as its checksum matches
/// (MappedBundle::DropPages on the mapping the set's `backing` pins),
/// so only what replay later touches stays resident. False on any
/// mismatch, and for a set that no mapping backs — the caller demotes
/// that set to a cold rebuild.
bool VerifyBundleSet(const harness::TraceSet& set,
                     const std::vector<uint64_t>& checksums);

/// Size of `path` in bytes via fseeko/ftello (int64_t end to end), or -1
/// on error. The v2 loader funneled this through a `long`, which
/// truncates at 2 GiB on LP32/Windows ABIs — exactly where out-of-core
/// bundles live. Exposed for the regression test.
int64_t BundleFileBytes(const std::string& path);

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_TRACE_BUNDLE_H_
