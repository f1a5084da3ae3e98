#include "sweep/trace_bundle.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <unordered_map>
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

namespace {

constexpr uint64_t kMagic = 0x31444E4254435343ULL;  // "CSCTBND1"
// v4: header-resident index (per-trace offsets, lengths, checksums) and
// 64-byte-aligned payloads, so the file can be mapped and replayed in
// place; each payload is a trace's encoded events (trace/events.h), and
// index rows whose traces share storage share one payload. v1-v3 bundles
// demote to a cold rebuild. Each region gets a fresh Checksum chain: the
// header words (so stale/corrupt indexes are rejected before any view is
// handed out) and each payload's words (so corruption localizes to the
// sets that view it, which alone demote to a cold rebuild).
constexpr uint32_t kVersion = 4;
constexpr uint64_t kRowWords = 6;  ///< index words per trace
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

/// Header words of a bundle holding `configs`: magic, version, scale
/// knobs, set count, per set its config block, 3 set words and a 6-word
/// index row per trace, then the header checksum. A closed form of the
/// configs, so payload offsets are known before any set is built.
uint64_t HeaderWords(size_t scale_words,
                     const std::vector<harness::TraceSetConfig>& configs) {
  uint64_t words = 2 + scale_words + 1 + 1;
  for (const harness::TraceSetConfig& c : configs) {
    words += harness::FieldCount<harness::TraceSetConfig>() + 3 +
             kRowWords * uint64_t{harness::TotalClients(c)};
  }
  return words;
}

/// One trace's index row as recorded in the v4 header.
struct TraceIndex {
  uint64_t requests = 0;
  uint64_t total_instructions = 0;
  uint64_t n_events = 0;
  uint64_t n_bytes = 0;       ///< encoded event bytes
  uint64_t offset_bytes = 0;  ///< absolute, 64-byte aligned
  uint64_t checksum = 0;      ///< fresh FNV chain over the payload words
};

/// The descriptor under `f`, for mapping what was written through it;
/// -1 where there is no mmap.
int FileDescriptor(std::FILE* f) {
#ifdef __unix__
  return ::fileno(f);
#else
  (void)f;
  return -1;
#endif
}

/// True when `path` exists and is not a regular file (a FIFO, a device,
/// a directory): such a path is never mapped or replaced.
bool ExistsAndNotRegular(const std::string& path) {
#ifdef __unix__
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
#else
  (void)path;
  return false;
#endif
}

struct SetIndex {
  uint64_t total_instructions = 0;
  uint64_t total_events = 0;
  std::vector<TraceIndex> traces;
};

struct ParsedHeader {
  uint64_t header_end = 0;  ///< first payload byte (64-aligned)
  std::vector<SetIndex> sets;
};

/// Parses and validates the v4 header at the start of a mapped file of
/// `file_bytes` bytes against the expected canonical sequence: magic,
/// version, scale knobs, config blocks, index geometry (see below), and
/// the header checksum. False on any mismatch. Payload checksums are NOT
/// checked — VerifyBundleSet does that lazily, per set. Never reads past
/// the file's last whole word.
bool ParseHeader(const uint64_t* words, uint64_t file_bytes,
                 const harness::WorkloadFactory& factory,
                 const std::vector<harness::TraceSetConfig>& expected,
                 ParsedHeader* out) {
  if (file_bytes == 0 || file_bytes % 8 != 0) return false;
  const uint64_t max_words = file_bytes / 8;
  Checksum sum;
  uint64_t pos = 0;
  uint64_t v = 0;
  const auto get = [&](uint64_t* dst) {
    if (pos >= max_words) return false;
    *dst = words[pos++];
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
    // Each trace contributes an index row; bound a corrupt count before
    // it reaches vector::resize.
    if (v > max_words / kRowWords) return false;
    si.traces.resize(v);
    for (TraceIndex& ti : si.traces) {
      if (!get(&ti.requests) || !get(&ti.total_instructions) ||
          !get(&ti.n_events) || !get(&ti.n_bytes) ||
          !get(&ti.offset_bytes) || !get(&ti.checksum)) {
        return false;
      }
      // Every event takes at least two bytes, so an empty trace is the
      // only one without bytes; this also bounds PayloadWords below.
      if (ti.requests > UINT32_MAX || ti.n_bytes > file_bytes ||
          ti.n_events > ti.n_bytes || (ti.n_events == 0) != (ti.n_bytes == 0)) {
        return false;
      }
    }
    out->sets.push_back(std::move(si));
  }
  // Header checksum covers every header word above it.
  if (pos >= max_words || words[pos++] != sum.state) return false;
  // The header's padding is zeros.
  out->header_end = Align64(pos * 8);
  if (out->header_end > file_bytes) return false;
  for (const uint8_t* b = reinterpret_cast<const uint8_t*>(words + pos);
       b < reinterpret_cast<const uint8_t*>(words) + out->header_end; ++b) {
    if (*b != 0) return false;
  }
  // Geometry: the index must describe exactly the canonical layout —
  // new payloads packed in row order at 64-byte-aligned offsets right
  // after the padded header, with nothing trailing. A row that is not
  // the next new payload must name an earlier payload's start and agree
  // with the row that introduced it.
  uint64_t cursor = out->header_end;
  std::unordered_map<uint64_t, const TraceIndex*> payload_at;
  for (const SetIndex& si : out->sets) {
    for (const TraceIndex& ti : si.traces) {
      const uint64_t words_needed =
          trace::PayloadWords(ti.n_events, ti.n_bytes);
      if (ti.offset_bytes == cursor) {
        if (words_needed > (file_bytes - cursor) / 8) return false;
        if (words_needed > 0) payload_at[cursor] = &ti;
        cursor += Align64(words_needed * 8);
        continue;
      }
      const auto it = payload_at.find(ti.offset_bytes);
      if (it == payload_at.end() || it->second->n_events != ti.n_events ||
          it->second->n_bytes != ti.n_bytes ||
          it->second->checksum != ti.checksum) {
        return false;
      }
    }
  }
  return cursor == file_bytes;
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
  // A FIFO would block the open; a device or directory is no bundle.
  if (ExistsAndNotRegular(path)) return nullptr;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd < 0) return nullptr;
  struct stat st;
  std::shared_ptr<MappedBundle> mapping;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    mapping = MapRange(fd, 0, static_cast<uint64_t>(st.st_size));
  }
  ::close(fd);
  return mapping;
#endif
}

std::shared_ptr<MappedBundle> MappedBundle::MapRange(int fd, uint64_t offset,
                                                     uint64_t bytes) {
#ifndef __unix__
  (void)fd;
  (void)offset;
  (void)bytes;
  return nullptr;
#else
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t skew = offset % page;
  void* addr = ::mmap(nullptr, bytes + skew, PROT_READ, MAP_PRIVATE, fd,
                      static_cast<off_t>(offset - skew));
  if (addr == MAP_FAILED) return nullptr;
  return std::shared_ptr<MappedBundle>(
      new MappedBundle(addr, bytes + skew, skew));
#endif
}

MappedBundle::~MappedBundle() {
#ifdef __unix__
  if (addr_ != nullptr) ::munmap(addr_, bytes_);
#endif
}

void MappedBundle::DropPages(const uint64_t* data, uint64_t words) const {
#ifdef __unix__
  const uintptr_t base = reinterpret_cast<uintptr_t>(addr_);
  const uintptr_t begin = reinterpret_cast<uintptr_t>(data);
  if (begin < base || begin - base > bytes_ ||
      words > (bytes_ - (begin - base)) / 8) {
    return;
  }
  const uintptr_t page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  // Whole pages only: a page shared with a neighbouring trace or the
  // header may be in use by another set's replay.
  const uintptr_t lo = (begin + page - 1) & ~(page - 1);
  const uintptr_t hi = (begin + words * 8) & ~(page - 1);
  // Best effort: on failure the pages simply stay resident.
  if (hi > lo) {
    (void)::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
  }
#else
  (void)data;
  (void)words;
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

BundleWriter::~BundleWriter() { Abandon(); }

void BundleWriter::Abandon() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
  // A write that died mid-stream (e.g. disk full) must not strand a
  // truncated multi-hundred-MB temp file on the already-full disk.
  std::remove((path_ + ".tmp").c_str());
}

bool BundleWriter::Begin(const std::string& path,
                         const harness::WorkloadFactory& factory,
                         std::vector<harness::TraceSetConfig> configs) {
  path_ = path;
  configs_ = std::move(configs);
  // Finish renames over `path`: never over a FIFO, device or directory.
  if (ExistsAndNotRegular(path_)) return false;
  const std::vector<uint64_t> scale = harness::ScaleWords(factory);
  header_words_ = HeaderWords(scale.size(), configs_);
  cursor_ = Align64(header_words_ * 8);
  header_.reserve(header_words_);
  header_.push_back(kMagic);
  header_.push_back(kVersion);
  header_.insert(header_.end(), scale.begin(), scale.end());
  header_.push_back(configs_.size());
  named_ = cursor_;

  // Read as well as write: ViewStreamed maps what was written.
  file_ = std::fopen((path_ + ".tmp").c_str(), "w+b");
  if (file_ == nullptr) return false;
  // The header and its padding stay zeros until Finish() writes the
  // header over them; payloads start right after.
  const char zeros[kAlign] = {0};
  for (uint64_t left = cursor_; left > 0; left -= kAlign) {
    if (std::fwrite(zeros, 1, kAlign, file_) != kAlign) {
      Abandon();
      return false;
    }
  }
  return true;
}

bool BundleWriter::WritePayload(const uint64_t* payload, uint64_t words) {
  const char zeros[kAlign] = {0};
  const uint64_t pad = Align64(words * 8) - words * 8;
  if ((words != 0 &&
       std::fwrite(payload, sizeof(uint64_t), words, file_) != words) ||
      (pad != 0 && std::fwrite(zeros, 1, pad, file_) != pad)) {
    Abandon();
    return false;
  }
  cursor_ += words * 8 + pad;
  return true;
}

bool BundleWriter::Append(const harness::TraceSet& set) {
  if (file_ == nullptr) return false;
  if (appended_ >= configs_.size() ||
      harness::FieldWords(set.config) !=
          harness::FieldWords(configs_[appended_]) ||
      set.traces.size() != harness::TotalClients(set.config)) {
    Abandon();
    return false;
  }
  for (uint64_t v : harness::FieldWords(set.config)) header_.push_back(v);
  header_.push_back(set.total_instructions);
  header_.push_back(set.total_events);
  header_.push_back(set.traces.size());
  for (const trace::ClientTrace& t : set.traces) {
    const uint64_t n = t.payload_words();
    // An empty trace has no payload: its row names the running offset.
    Written row{named_, t.events_size(), t.encoded_bytes(), Checksum().state};
    // A trace viewing a payload already written (a slice of its leader,
    // a streamed set, a re-persisted mapped set) shares its row, checksum
    // included: a streamed payload's was taken as it went by.
    const auto it = n > 0 ? written_.find(t.payload()) : written_.end();
    if (it != written_.end() && it->second.n_events == t.events_size() &&
        it->second.n_bytes == t.encoded_bytes()) {
      row = it->second;
      named_ = std::max(named_, row.offset + Align64(n * 8));
    } else if (n > 0) {
      Checksum payload_sum;
      payload_sum.MixAll(t.payload(), n);
      row.checksum = payload_sum.state;
      // A fresh payload goes right after the ones rows have named; with
      // streamed payloads still unnamed it would land after them instead.
      if (named_ != cursor_ || !WritePayload(t.payload(), n)) {
        Abandon();
        return false;
      }
      named_ = cursor_;
      written_[t.payload()] = row;
    }
    header_.push_back(t.requests);
    header_.push_back(t.total_instructions);
    header_.push_back(row.n_events);
    header_.push_back(row.n_bytes);
    header_.push_back(row.offset);
    header_.push_back(row.checksum);
  }
  ++appended_;
  return true;
}

bool BundleWriter::Stream(const trace::ClientTrace& t) {
  if (file_ == nullptr) return false;
  const uint64_t n = t.payload_words();
  Checksum sum;
  sum.MixAll(t.payload(), n);
  stream_.push_back({cursor_, t.events_size(), t.encoded_bytes(), sum.state});
  return WritePayload(t.payload(), n);
}

bool BundleWriter::ViewStreamed(harness::TraceSet* set) {
  if (file_ == nullptr) return false;
  const std::vector<Written> stream = std::move(stream_);
  stream_.clear();
  bool ok = stream.size() == set->traces.size();
  for (size_t i = 0; ok && i < stream.size(); ++i) {
    ok = stream[i].n_events == set->traces[i].events_size() &&
         stream[i].n_bytes == set->traces[i].encoded_bytes();
  }
  const uint64_t from = stream.empty() ? cursor_ : stream.front().offset;
  std::shared_ptr<MappedBundle> mapping;
  if (ok && cursor_ > from) {
    // Payloads are written through stdio: flush them to the file first.
    ok = std::fflush(file_) == 0 &&
         (mapping = MappedBundle::MapRange(FileDescriptor(file_), from,
                                           cursor_ - from)) != nullptr;
  }
  if (!ok) {
    Abandon();
    return false;
  }
  // An older entry's storage — an earlier mapping — may be gone, and its
  // address reused.
  written_.clear();
  for (size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].n_events == 0) continue;  // no payload to view
    const uint64_t* payload = mapping->words() + (stream[i].offset - from) / 8;
    set->traces[i].SetView(payload, stream[i].n_events, stream[i].n_bytes);
    written_[payload] = stream[i];
  }
  set->backing = mapping;
  return true;
}

bool BundleWriter::Finish() {
  if (file_ == nullptr) return false;
  Checksum header_sum;
  header_sum.MixAll(header_.data(), header_.size());
  header_.push_back(header_sum.state);
  // Surface buffered-write failures (disk full at flush time) before the
  // rename; fclose is checked too, since it performs the last write.
  const bool ok = appended_ == configs_.size() &&
                  header_.size() == header_words_ && named_ == cursor_ &&
                  std::fseek(file_, 0, SEEK_SET) == 0 &&
                  std::fwrite(header_.data(), sizeof(uint64_t),
                              header_.size(), file_) == header_.size() &&
                  std::fflush(file_) == 0 && std::ferror(file_) == 0;
  if (!ok) {
    Abandon();
    return false;
  }
  const std::string tmp = path_ + ".tmp";
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!closed || ExistsAndNotRegular(path_) ||
      std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool SaveTraceBundle(const std::string& path,
                     const harness::WorkloadFactory& factory,
                     const std::vector<const harness::TraceSet*>& sets) {
  std::vector<harness::TraceSetConfig> configs;
  configs.reserve(sets.size());
  for (const harness::TraceSet* ts : sets) configs.push_back(ts->config);
  BundleWriter writer;
  if (!writer.Begin(path, factory, std::move(configs))) return false;
  for (const harness::TraceSet* ts : sets) {
    if (!writer.Append(*ts)) return false;
  }
  return writer.Finish();
}

bool VerifyBundleSet(const harness::TraceSet& set,
                     const std::vector<uint64_t>& checksums) {
  // OpenTraceBundle is the only writer of `backing`: an mmap-served
  // set's backing is the MappedBundle its views point into.
  const auto* mapping = static_cast<const MappedBundle*>(set.backing.get());
  if (mapping == nullptr || checksums.size() != set.traces.size()) {
    return false;
  }
  for (size_t i = 0; i < set.traces.size(); ++i) {
    const trace::ClientTrace& t = set.traces[i];
    Checksum sum;
    sum.MixAll(t.payload(), t.payload_words());
    if (sum.state != checksums[i]) return false;
    // Each restart block holds at least one event of two or more bytes,
    // so its offset lies strictly beyond the previous one, inside the
    // bytes: a cursor's Seek stays in the payload.
    const uint64_t* blocks = t.block_offsets();
    for (uint64_t b = 0; b < trace::BlockCount(t.events_size()); ++b) {
      if (blocks[b] >= t.encoded_bytes() ||
          (b == 0 ? blocks[b] != 0 : blocks[b] <= blocks[b - 1])) {
        return false;
      }
    }
    mapping->DropPages(t.payload(), t.payload_words());
  }
  return true;
}

BundleOpenResult OpenTraceBundle(
    const std::string& path, const harness::WorkloadFactory& factory,
    const std::vector<harness::TraceSetConfig>& expected) {
  BundleOpenResult r;
  const auto map_t0 = std::chrono::steady_clock::now();
  std::shared_ptr<MappedBundle> mapping = MappedBundle::Map(path);
  ParsedHeader ph;
  if (mapping == nullptr ||
      !ParseHeader(mapping->words(), mapping->size_bytes(), factory, expected,
                   &ph)) {
    return r;
  }
  r.mode = "mmap";
  r.mapping = mapping;
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
      t.SetView(mapping->words() + ti.offset_bytes / 8, ti.n_events,
                ti.n_bytes);
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

}  // namespace stagedcmp::sweep
