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
// this on its build pool, overlapped with simulation. The mapping is
// owned by a refcounted MappedBundle pinned through each served
// TraceSet's `backing` handle, so cache eviction unmaps safely.
//
// Demotion chain: mmap syscall failure (or a forced fallback) demotes to
// the fread path — owning buffers, header + payload checksums verified
// eagerly while reading, all-or-nothing — and any header mismatch,
// truncation, version skew (a v2 bundle read by this code), or checksum
// failure demotes to a cold rebuild (which then rewrites the bundle).
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

#include <atomic>
#include <cstdint>
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
  /// Maps `path` read-only. Null on open/stat/mmap failure (including
  /// the test hook below) — callers demote to the fread path.
  static std::shared_ptr<MappedBundle> Map(const std::string& path);
  ~MappedBundle();

  MappedBundle(const MappedBundle&) = delete;
  MappedBundle& operator=(const MappedBundle&) = delete;

  const uint64_t* words() const {
    return static_cast<const uint64_t*>(addr_);
  }
  uint64_t size_bytes() const { return bytes_; }

 private:
  MappedBundle(void* addr, uint64_t bytes) : addr_(addr), bytes_(bytes) {}
  void* addr_;
  uint64_t bytes_;
};

/// Outcome of OpenTraceBundle. `sets` is parallel to the expected config
/// sequence; `mode` records the transport that served it:
///   "mmap"  — view-based sets into a shared mapping; header + index
///             validated, payload checksums NOT yet — callers must run
///             VerifyBundleSet(sets[j], checksums[j]) before trusting a
///             set, and on failure rebuild that set cold.
///   "fread" — owning sets, fully verified; checksums is empty.
///   "cold"  — nothing served (missing/stale/corrupt header); sets empty.
struct BundleOpenResult {
  std::string mode = "cold";
  std::vector<harness::TraceSet> sets;
  std::vector<std::vector<uint64_t>> checksums;  ///< mmap: per set/trace
  uint64_t bytes_mapped = 0;  ///< mmap: whole-file mapping size
  uint64_t map_us = 0;        ///< mmap: open+validate wall time
};

/// Writes `sets` (in build order) to `path` atomically (temp + rename)
/// in format v3. Returns false on any I/O failure. Reads events through
/// the view accessors, so re-persisting mapped sets works.
bool SaveTraceBundle(const std::string& path,
                     const harness::WorkloadFactory& factory,
                     const std::vector<const harness::TraceSet*>& sets);

/// Opens `path` for the canonical sequence `expected`: mmap first, fread
/// on map failure, "cold" when the header does not match. `needed`
/// (optional, parallel to `expected`) marks the sets the caller will
/// actually use — a sharded run passes its subset so the fread path
/// skips unneeded payload bytes entirely (seeking over them) and leaves
/// those `sets` slots empty; the mmap path serves every set but only
/// needed pages are ever faulted in. `force_fread` skips the mmap
/// attempt (measurement + tests).
BundleOpenResult OpenTraceBundle(
    const std::string& path, const harness::WorkloadFactory& factory,
    const std::vector<harness::TraceSetConfig>& expected,
    const std::vector<char>* needed = nullptr, bool force_fread = false);

/// Verifies one mmap-served set's event payloads against the per-trace
/// checksums recorded in the bundle index. Faults in the set's pages.
/// False on any mismatch — the caller demotes that set to a cold rebuild.
bool VerifyBundleSet(const harness::TraceSet& set,
                     const std::vector<uint64_t>& checksums);

/// Size of `path` in bytes via fseeko/ftello (int64_t end to end), or -1
/// on error. The v2 loader funneled this through a `long`, which
/// truncates at 2 GiB on LP32/Windows ABIs — exactly where out-of-core
/// bundles live. Exposed for the regression test.
int64_t BundleFileBytes(const std::string& path);

namespace bundle_testing {
/// When true, MappedBundle::Map fails as if mmap itself did — lets tests
/// and scripts exercise the mmap → fread demotion without a real fault.
extern std::atomic<bool> force_mmap_failure;
}  // namespace bundle_testing

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_TRACE_BUNDLE_H_
