#include "sweep/trace_bundle.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>

#include "harness/config_fields.h"
#include "sweep/checksum.h"

#ifdef __unix__
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace stagedcmp::sweep {

namespace bundle_testing {
std::atomic<bool> force_mmap_failure{false};
}  // namespace bundle_testing

namespace {

constexpr uint64_t kMagic = 0x31444E4254435343ULL;  // "CSCTBND1"
// v3: header-resident index (per-trace offsets, lengths, checksums) and
// 64-byte-aligned payloads, so the file can be mapped and replayed in
// place. v1/v2 bundles demote to a cold rebuild. Each region gets a fresh
// Checksum chain: the header words (so stale/corrupt indexes are rejected
// before any view is handed out) and each trace's payload words (so
// corruption localizes to one set, which alone demotes to a cold rebuild).
constexpr uint32_t kVersion = 3;
constexpr uint64_t kAlign = 64;

constexpr uint64_t Align64(uint64_t bytes) {
  return (bytes + (kAlign - 1)) & ~(kAlign - 1);
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// One trace's index row as recorded in the v3 header.
struct TraceIndex {
  uint64_t requests = 0;
  uint64_t total_instructions = 0;
  uint64_t n_events = 0;
  uint64_t offset_bytes = 0;  ///< absolute, 64-byte aligned
  uint64_t checksum = 0;      ///< fresh FNV chain over the payload words
};

struct SetIndex {
  uint64_t total_instructions = 0;
  uint64_t total_events = 0;
  std::vector<TraceIndex> traces;
};

struct ParsedHeader {
  uint64_t header_end = 0;  ///< first payload byte (64-aligned)
  std::vector<SetIndex> sets;
};

/// Parses and validates the v3 header against the expected canonical
/// sequence: magic, version, scale knobs, config blocks, index geometry
/// (every offset must equal the canonical 64-aligned layout and the
/// last payload must end exactly at file_bytes), and the header
/// checksum. False on any mismatch. Payload checksums are NOT checked —
/// transports decide when (fread: eagerly; mmap: lazily per set).
/// `next(&word)` supplies the file's words in order (a mapped buffer or
/// a FILE*); it is never asked for more than file_bytes / 8 words.
template <typename NextWord>
bool ParseHeader(NextWord next, int64_t file_bytes,
                 const harness::WorkloadFactory& factory,
                 const std::vector<harness::TraceSetConfig>& expected,
                 ParsedHeader* out) {
  if (file_bytes <= 0 || file_bytes % 8 != 0) return false;
  const uint64_t max_words = static_cast<uint64_t>(file_bytes) / 8;
  Checksum sum;
  uint64_t words_read = 0;
  uint64_t v = 0;
  const auto get = [&](uint64_t* dst) {
    if (words_read >= max_words || !next(dst)) return false;
    ++words_read;
    sum.Mix(*dst);
    return true;
  };
  if (!get(&v) || v != kMagic) return false;
  if (!get(&v) || v != kVersion) return false;
  for (uint64_t want : harness::ScaleWords(factory)) {
    if (!get(&v) || v != want) return false;
  }
  if (!get(&v) || v != expected.size()) return false;
  out->sets.clear();
  out->sets.reserve(expected.size());
  for (const harness::TraceSetConfig& cfg : expected) {
    for (uint64_t want : harness::FieldWords(cfg)) {
      if (!get(&v) || v != want) return false;
    }
    SetIndex si;
    if (!get(&si.total_instructions) || !get(&si.total_events) || !get(&v)) {
      return false;
    }
    // Each trace contributes a 5-word index row; bound a corrupt count
    // before it reaches vector::resize.
    if (v > max_words / 5) return false;
    si.traces.resize(v);
    for (TraceIndex& ti : si.traces) {
      if (!get(&ti.requests) || !get(&ti.total_instructions) ||
          !get(&ti.n_events) || !get(&ti.offset_bytes) ||
          !get(&ti.checksum)) {
        return false;
      }
      if (ti.requests > UINT32_MAX || ti.n_events > max_words) return false;
    }
    out->sets.push_back(std::move(si));
  }
  // Header checksum covers every header word above it.
  const uint64_t computed = sum.state;
  uint64_t stored = 0;
  if (words_read >= max_words || !next(&stored)) return false;
  ++words_read;
  if (stored != computed) return false;
  // Geometry: the index must describe exactly the canonical layout —
  // payloads packed in order at 64-byte-aligned offsets right after the
  // padded header, with nothing trailing.
  out->header_end = Align64(words_read * 8);
  uint64_t cursor = out->header_end;
  for (const SetIndex& si : out->sets) {
    for (const TraceIndex& ti : si.traces) {
      if (ti.offset_bytes != cursor) return false;
      if (ti.n_events > (static_cast<uint64_t>(file_bytes) - cursor) / 8) {
        return false;
      }
      cursor += Align64(ti.n_events * 8);
    }
  }
  return cursor == static_cast<uint64_t>(file_bytes);
}

/// Restores the fields that are pure functions of the config (and so are
/// not serialized), the way WorkloadWorld::Build derives them.
void InitSetFromConfig(harness::TraceSet* ts,
                       const harness::TraceSetConfig& cfg) {
  ts->config = cfg;
  ts->tenant_a_clients = harness::TenantAClients(cfg);
}

}  // namespace

std::shared_ptr<MappedBundle> MappedBundle::Map(const std::string& path) {
#ifndef __unix__
  (void)path;
  return nullptr;
#else
  if (bundle_testing::force_mmap_failure.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return nullptr;
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return nullptr;
  }
  const uint64_t bytes = static_cast<uint64_t>(st.st_size);
  void* addr = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) return nullptr;
  return std::shared_ptr<MappedBundle>(new MappedBundle(addr, bytes));
#endif
}

MappedBundle::~MappedBundle() {
#ifdef __unix__
  if (addr_ != nullptr) ::munmap(addr_, bytes_);
#endif
}

int64_t BundleFileBytes(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return -1;
#ifdef __unix__
  if (::fseeko(f.get(), 0, SEEK_END) != 0) return -1;
  const off_t end = ::ftello(f.get());
  return end < 0 ? -1 : static_cast<int64_t>(end);
#else
  if (std::fseek(f.get(), 0, SEEK_END) != 0) return -1;
  const long end = std::ftell(f.get());
  return end < 0 ? -1 : static_cast<int64_t>(end);
#endif
}

bool SaveTraceBundle(const std::string& path,
                     const harness::WorkloadFactory& factory,
                     const std::vector<const harness::TraceSet*>& sets) {
  const std::string tmp = path + ".tmp";
  // Single exit below removes the temp file on ANY failure — a write
  // that dies mid-stream (e.g. disk full) must not strand a truncated
  // multi-hundred-MB .tmp on the already-full disk.
  const auto write_all = [&]() -> bool {
    // Header geometry is a closed form of the set/trace counts, so the
    // payload offsets recorded in the index are known before anything
    // is written.
    const std::vector<uint64_t> scale = harness::ScaleWords(factory);
    uint64_t header_words = 2 + scale.size() + 1 + 1;
    for (const harness::TraceSet* ts : sets) {
      // Config block (every field-table word), 3 set words, index rows.
      header_words += harness::FieldCount<harness::TraceSetConfig>() + 3 +
                      5 * ts->traces.size();
    }
    const uint64_t header_end = Align64(header_words * 8);

    std::vector<uint64_t> hdr;
    hdr.reserve(header_words - 1);
    const auto put = [&](uint64_t v) { hdr.push_back(v); };
    put(kMagic);
    put(kVersion);
    for (uint64_t v : scale) put(v);
    put(sets.size());
    uint64_t cursor = header_end;
    for (const harness::TraceSet* ts : sets) {
      for (uint64_t v : harness::FieldWords(ts->config)) put(v);
      put(ts->total_instructions);
      put(ts->total_events);
      put(ts->traces.size());
      for (const trace::ClientTrace& t : ts->traces) {
        Checksum payload_sum;
        payload_sum.MixAll(t.events_data(), t.events_size());
        put(t.requests);
        put(t.total_instructions);
        put(t.events_size());
        put(cursor);
        put(payload_sum.state);
        cursor += Align64(t.events_size() * 8);
      }
    }
    Checksum header_sum;
    header_sum.MixAll(hdr.data(), hdr.size());
    put(header_sum.state);

    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) return false;
    if (!hdr.empty() && std::fwrite(hdr.data(), sizeof(uint64_t), hdr.size(),
                                    f.get()) != hdr.size()) {
      return false;
    }
    const char zeros[kAlign] = {0};
    const auto pad_to = [&](uint64_t from, uint64_t to) {
      return from == to ||
             std::fwrite(zeros, 1, to - from, f.get()) == to - from;
    };
    if (!pad_to(hdr.size() * 8, header_end)) return false;
    for (const harness::TraceSet* ts : sets) {
      for (const trace::ClientTrace& t : ts->traces) {
        const uint64_t n = t.events_size();
        if (n != 0 && std::fwrite(t.events_data(), sizeof(uint64_t), n,
                                  f.get()) != n) {
          return false;
        }
        if (!pad_to(n * 8, Align64(n * 8))) return false;
      }
    }
    // Surface buffered-write failures (disk full at flush time) here;
    // FileCloser's fclose cannot report them.
    return std::fflush(f.get()) == 0 && std::ferror(f.get()) == 0;
  };
  if (!write_all() || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool VerifyBundleSet(const harness::TraceSet& set,
                     const std::vector<uint64_t>& checksums) {
  if (checksums.size() != set.traces.size()) return false;
  for (size_t i = 0; i < set.traces.size(); ++i) {
    Checksum sum;
    sum.MixAll(set.traces[i].events_data(), set.traces[i].events_size());
    if (sum.state != checksums[i]) return false;
  }
  return true;
}

BundleOpenResult OpenTraceBundle(
    const std::string& path, const harness::WorkloadFactory& factory,
    const std::vector<harness::TraceSetConfig>& expected,
    const std::vector<char>* needed, bool force_fread) {
  BundleOpenResult r;
  if (!force_fread) {
    const auto map_t0 = std::chrono::steady_clock::now();
    std::shared_ptr<MappedBundle> mapping = MappedBundle::Map(path);
    if (mapping != nullptr) {
      // Map succeeded: validate the header against the mapped words. A
      // mismatch here means the bytes themselves are stale/corrupt —
      // the fread path would read the same bytes and reject them too,
      // so demote straight to cold.
      ParsedHeader ph;
      const auto next = [w = mapping->words()](uint64_t* v) mutable {
        *v = *w++;
        return true;
      };
      if (!ParseHeader(next, static_cast<int64_t>(mapping->size_bytes()),
                       factory, expected, &ph)) {
        return r;
      }
      r.mode = "mmap";
      r.bytes_mapped = mapping->size_bytes();
      r.sets.resize(expected.size());
      r.checksums.resize(expected.size());
      for (size_t j = 0; j < expected.size(); ++j) {
        harness::TraceSet& ts = r.sets[j];
        const SetIndex& si = ph.sets[j];
        InitSetFromConfig(&ts, expected[j]);
        ts.total_instructions = si.total_instructions;
        ts.total_events = si.total_events;
        ts.backing = mapping;  // pins the mapping per served set
        ts.traces.resize(si.traces.size());
        r.checksums[j].reserve(si.traces.size());
        for (size_t i = 0; i < si.traces.size(); ++i) {
          const TraceIndex& ti = si.traces[i];
          trace::ClientTrace& t = ts.traces[i];
          t.SetView(mapping->words() + ti.offset_bytes / 8, ti.n_events);
          t.total_instructions = ti.total_instructions;
          t.requests = static_cast<uint32_t>(ti.requests);
          r.checksums[j].push_back(ti.checksum);
        }
      }
      r.map_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - map_t0)
              .count());
      return r;
    }
    // Map failure (syscall or test hook): demote to the fread path.
  }

  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return r;
  const int64_t file_bytes = BundleFileBytes(path);
  if (file_bytes < 0) return r;
  ParsedHeader ph;
  const auto next = [&f](uint64_t* v) {
    return std::fread(v, sizeof(*v), 1, f.get()) == 1;
  };
  if (!ParseHeader(next, file_bytes, factory, expected, &ph)) return r;
  std::vector<harness::TraceSet> sets(expected.size());
  for (size_t j = 0; j < expected.size(); ++j) {
    harness::TraceSet& ts = sets[j];
    const SetIndex& si = ph.sets[j];
    InitSetFromConfig(&ts, expected[j]);
    ts.total_instructions = si.total_instructions;
    ts.total_events = si.total_events;
    // A sharded run skips sets none of its cells touch: their payload
    // bytes are never read (the index already told us where the next
    // needed set lives) and the slot stays empty.
    if (needed != nullptr && !(*needed)[j]) continue;
    ts.traces.resize(si.traces.size());
    for (size_t i = 0; i < si.traces.size(); ++i) {
      const TraceIndex& ti = si.traces[i];
      trace::ClientTrace& t = ts.traces[i];
      t.requests = static_cast<uint32_t>(ti.requests);
      t.total_instructions = ti.total_instructions;
      t.events.resize(ti.n_events);
#ifdef __unix__
      if (::fseeko(f.get(), static_cast<off_t>(ti.offset_bytes),
                   SEEK_SET) != 0) {
        return r;
      }
#else
      if (std::fseek(f.get(), static_cast<long>(ti.offset_bytes),
                     SEEK_SET) != 0) {
        return r;
      }
#endif
      if (ti.n_events != 0 &&
          std::fread(t.events.data(), sizeof(uint64_t), ti.n_events,
                     f.get()) != ti.n_events) {
        return r;
      }
      // Eager per-trace verification: the fread path hands out sets
      // that are already trusted, all-or-nothing.
      Checksum sum;
      sum.MixAll(t.events.data(), t.events.size());
      if (sum.state != ti.checksum) return r;
    }
  }
  r.mode = "fread";
  r.sets = std::move(sets);
  return r;
}

}  // namespace stagedcmp::sweep
