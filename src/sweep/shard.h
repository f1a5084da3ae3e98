// Sharded sweep execution: result-file writer + byte-identical merge.
//
// A sharded sweep splits one grid across N independent processes:
// `sweep_main --shard i/N` expands the FULL spec (canonical indices and
// the bundle's build sequence are unchanged), executes only cells with
// canonical_index % N == i, and writes a shard result file. The files
// are then reassembled with `sweep_main --merge out shard0 shard1 …`,
// whose output is byte-identical to the same sink run unsharded — the
// property every determinism guarantee of the sweep engine extends to.
//
// A shard file uses the trace bundle's encoding: native-endian u64 words
// closed by one FNV checksum word. The header holds magic, schema, spec
// name, shard I/N, the spec's cell count and the spec fingerprint; each
// executed cell is one fixed-width record of canonical index, config
// words (harness/config_fields.h), trace-set totals, sim_wall_seconds,
// and every SimResult field the sinks read, doubles by bit pattern — so
// the merged report is bit-identical sink input, not a lossy summary.
//
// Merge rejects the whole set on any failure: a truncated or corrupt
// file (checksum), a different schema, spec name or spec fingerprint
// (which covers the workload scale, so shards of another spec, scale or
// binary vintage never merge), a bad or inconsistent shard selection,
// overlapping or missing shards, a cell in the wrong shard or twice,
// config words that differ from the re-expanded cell's, and a tenant
// count above 2.
//
// Cold shards build their traces in separate processes; traces record
// data addresses relative to their world's address space, so those
// traces, and the merged metrics, are the same bytes as an unsharded
// run's.
#ifndef STAGEDCMP_SWEEP_SHARD_H_
#define STAGEDCMP_SWEEP_SHARD_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

namespace stagedcmp::sweep {

/// Writes the shard result file for `report`, which must come from a
/// SweepRunner executed with shard_count > 1 (report.shard_count echoes
/// it) over `factory`. Only the report's assigned cells are written.
void WriteShardFile(const SweepReport& report,
                    const harness::WorkloadFactory& factory,
                    std::ostream& os);

/// Merges shard file contents (`shard_texts`, one per shard, any order)
/// for `spec` at `factory`'s workload scale into a reconstructed report
/// in canonical cell order. On success returns true; on any validation
/// failure returns false with a one-line reason in `*error` and `*out`
/// unspecified. The merged report carries no timing/threads (emit it
/// timing-free).
bool MergeShardReports(const SweepSpec& spec,
                       const harness::WorkloadFactory& factory,
                       const std::vector<std::string>& shard_texts,
                       SweepReport* out, std::string* error);

/// Reads the spec name of one shard file so a driver can resolve the
/// spec before merging. False if `text` is not an intact shard file.
bool PeekShardSpecName(const std::string& text, std::string* name);

/// Hash of the expanded grid at `factory`'s workload scale: spec name,
/// axis names, every cell's index, value labels and config words, and the
/// scale words. Two binaries agree on it iff they would expand the very
/// same grid over the very same workloads.
uint64_t SpecFingerprint(const std::string& spec_name,
                         const std::vector<std::string>& axis_names,
                         const std::vector<const Cell*>& cells,
                         const harness::WorkloadFactory& factory);

}  // namespace stagedcmp::sweep

#endif  // STAGEDCMP_SWEEP_SHARD_H_
