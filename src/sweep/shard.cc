#include "sweep/shard.h"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <type_traits>

#include "coresim/result_fields.h"
#include "harness/config_fields.h"
#include "sweep/checksum.h"

namespace stagedcmp::sweep {

namespace {

constexpr uint64_t kShardMagic = 0x3144524853435343ULL;  // "CSCSHRD1"
// Schema 3: the word format. Schemas 1 and 2 were JSON text; such files
// fail the magic check rather than merging with guessed fields.
constexpr uint64_t kShardSchema = 3;

constexpr size_t kConfigWords =
    harness::FieldCount<harness::TraceSetConfig>() +
    harness::FieldCount<harness::ExperimentConfig>();

/// Words per cell record: index, config words, the two trace-set totals,
/// sim_wall_seconds, then the SimResult fields.
size_t RecordWords() {
  coresim::SimResult r;
  size_t n = 0;
  const auto count = [&n](const auto&) { ++n; };
  coresim::VisitFields(r, count);
  return 1 + kConfigWords + 2 + 1 + n;
}

void PutConfigWords(const Cell& c, std::vector<uint64_t>* w) {
  for (uint64_t x : harness::FieldWords(c.trace)) w->push_back(x);
  for (uint64_t x : harness::FieldWords(c.exp)) w->push_back(x);
}

/// `s` as words: its byte length, then its bytes packed 8 per word.
void PutString(const std::string& s, std::vector<uint64_t>* w) {
  w->push_back(s.size());
  for (size_t i = 0; i < s.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, s.data() + i, std::min<size_t>(8, s.size() - i));
    w->push_back(word);
  }
}

/// Bounds-checked sequential reader over a word buffer. Reading past the
/// end, or a word that does not fit the field it is read into, yields 0
/// and clears ok(). Doubles come back from their bit pattern.
class WordReader {
 public:
  WordReader(const uint64_t* words, size_t n) : w_(words), n_(n) {}

  uint64_t Next() {
    if (pos_ >= n_) {
      ok_ = false;
      return 0;
    }
    return w_[pos_++];
  }
  template <typename T>
  void operator()(T& field) {
    const uint64_t w = Next();
    if constexpr (std::is_floating_point_v<T>) {
      std::memcpy(&field, &w, sizeof(field));
    } else {
      field = static_cast<T>(w);
      if (static_cast<uint64_t>(field) != w) ok_ = false;
    }
  }
  bool ReadString(std::string* s) {
    const uint64_t len = Next();
    if (!ok_ || len > remaining() * 8) return ok_ = false;
    s->assign(len, '\0');
    for (size_t i = 0; i < len; i += 8) {
      const uint64_t word = Next();
      std::memcpy(&(*s)[i], &word, std::min<size_t>(8, len - i));
    }
    return ok_;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return n_ - pos_; }

 private:
  const uint64_t* w_;
  size_t n_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// One shard file: framing and checksum verified, header parsed, and
/// `records` positioned at the first cell record. `records` points into
/// `words`, so a ShardFile is never copied.
struct ShardFile {
  std::vector<uint64_t> words;
  WordReader records{nullptr, 0};
  std::string spec;
  uint64_t shard_index = 0;
  uint64_t shard_count = 0;
  uint64_t cell_count = 0;
  uint64_t fingerprint = 0;
};

bool Fail(std::string* error, const std::string& msg) {
  *error = msg;
  return false;
}

/// Verifies `text`'s framing and checksum and parses its header. The
/// cell records are only sized here; MergeShardReports decodes them.
bool ParseShard(const std::string& text, ShardFile* f, std::string* error) {
  if (text.size() < 2 * sizeof(uint64_t) || text.size() % 8 != 0) {
    return Fail(error, "is not a shard result file (or is truncated)");
  }
  f->words.resize(text.size() / 8);
  std::memcpy(f->words.data(), text.data(), text.size());
  if (f->words[0] != kShardMagic) {
    return Fail(error, "is not a shard result file");
  }
  const size_t body = f->words.size() - 1;
  Checksum sum;
  sum.MixAll(f->words.data(), body);
  if (sum.state != f->words[body]) {
    return Fail(error, "is truncated or corrupt (checksum mismatch)");
  }
  WordReader in(f->words.data() + 1, body - 1);
  const uint64_t schema = in.Next();
  if (in.ok() && schema != kShardSchema) {
    return Fail(error, "has unsupported shard_schema " +
                           std::to_string(schema));
  }
  in.ReadString(&f->spec);
  f->shard_index = in.Next();
  f->shard_count = in.Next();
  f->cell_count = in.Next();
  f->fingerprint = in.Next();
  if (!in.ok() || in.remaining() % RecordWords() != 0) {
    return Fail(error, "has a malformed header or a partial cell record");
  }
  f->records = in;
  return true;
}

}  // namespace

uint64_t SpecFingerprint(const std::string& spec_name,
                         const std::vector<std::string>& axis_names,
                         const std::vector<const Cell*>& cells,
                         const harness::WorkloadFactory& factory) {
  std::vector<uint64_t> w = harness::ScaleWords(factory);
  PutString(spec_name, &w);
  w.push_back(axis_names.size());
  for (const std::string& a : axis_names) PutString(a, &w);
  w.push_back(cells.size());
  for (const Cell* c : cells) {
    w.push_back(c->index);
    w.push_back(c->values.size());
    for (const std::string& v : c->values) PutString(v, &w);
    PutConfigWords(*c, &w);
  }
  Checksum sum;
  sum.MixAll(w.data(), w.size());
  return sum.state;
}

void WriteShardFile(const SweepReport& report,
                    const harness::WorkloadFactory& factory,
                    std::ostream& os) {
  std::vector<const Cell*> all_cells;
  all_cells.reserve(report.cells.size());
  for (const CellResult& cr : report.cells) all_cells.push_back(&cr.cell);

  std::vector<uint64_t> w = {kShardMagic, kShardSchema};
  PutString(report.spec_name, &w);
  w.push_back(report.shard_index);
  w.push_back(report.shard_count);
  w.push_back(report.cells.size());
  w.push_back(
      SpecFingerprint(report.spec_name, report.axis_names, all_cells, factory));
  const auto put = [&w](const auto& field) {
    w.push_back(harness::FieldWord(field));
  };
  for (size_t i = 0; i < report.cells.size(); ++i) {
    if (report.shard_count > 1 &&
        i % report.shard_count != report.shard_index) {
      continue;
    }
    const CellResult& cr = report.cells[i];
    w.push_back(cr.cell.index);
    PutConfigWords(cr.cell, &w);
    w.push_back(cr.trace_total_instructions);
    w.push_back(cr.trace_total_events);
    put(cr.sim_wall_seconds);
    coresim::SimResult r = cr.result;
    coresim::VisitFields(r, put);
  }
  Checksum sum;
  sum.MixAll(w.data(), w.size());
  w.push_back(sum.state);
  os.write(reinterpret_cast<const char*>(w.data()),
           static_cast<std::streamsize>(w.size() * sizeof(uint64_t)));
}

bool PeekShardSpecName(const std::string& text, std::string* name) {
  ShardFile f;
  std::string err;
  if (!ParseShard(text, &f, &err)) return false;
  *name = f.spec;
  return true;
}

bool MergeShardReports(const SweepSpec& spec,
                       const harness::WorkloadFactory& factory,
                       const std::vector<std::string>& shard_texts,
                       SweepReport* out, std::string* error) {
  error->clear();
  if (shard_texts.empty()) return Fail(error, "no shard files given");

  const std::vector<Cell> cells = spec.Expand();
  std::vector<const Cell*> cell_ptrs;
  cell_ptrs.reserve(cells.size());
  for (const Cell& c : cells) cell_ptrs.push_back(&c);
  const uint64_t expect_fp =
      SpecFingerprint(spec.name(), spec.axis_names(), cell_ptrs, factory);

  *out = SweepReport{};
  out->spec_name = spec.name();
  out->axis_names = spec.axis_names();
  out->baseline = spec.baseline;
  out->cells.resize(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) out->cells[i].cell = cells[i];
  std::vector<char> cell_seen(cells.size(), 0);
  // One entry per file read: nothing is sized by the untrusted count.
  std::vector<uint64_t> shard_indices;
  uint64_t shard_count = 0;

  for (size_t s = 0; s < shard_texts.size(); ++s) {
    ShardFile f;
    std::string why;
    if (!ParseShard(shard_texts[s], &f, &why)) {
      return Fail(error, "shard file " + std::to_string(s) + " " + why);
    }
    if (f.spec != spec.name()) {
      return Fail(error, "shard file is for spec '" + f.spec +
                             "', expected '" + spec.name() + "'");
    }
    if (f.fingerprint != expect_fp) {
      return Fail(error,
                  "spec fingerprint mismatch (different spec definition, "
                  "scale, or binary): got " + std::to_string(f.fingerprint) +
                      ", expected " + std::to_string(expect_fp));
    }
    if (f.shard_count < 2 || f.shard_index >= f.shard_count) {
      return Fail(error, "invalid shard selection " +
                             std::to_string(f.shard_index) + "/" +
                             std::to_string(f.shard_count));
    }
    if (f.cell_count != cells.size()) {
      return Fail(error, "shard expanded " + std::to_string(f.cell_count) +
                             " cells, this spec expands to " +
                             std::to_string(cells.size()));
    }
    if (s == 0) {
      shard_count = f.shard_count;
    } else if (f.shard_count != shard_count) {
      return Fail(error, "shard_count disagrees across files");
    }
    if (std::count(shard_indices.begin(), shard_indices.end(),
                   f.shard_index) > 0) {
      return Fail(error, "overlapping shards: index " +
                             std::to_string(f.shard_index) +
                             " appears twice");
    }
    shard_indices.push_back(f.shard_index);

    WordReader& in = f.records;
    while (in.remaining() > 0) {
      const uint64_t idx = in.Next();
      const std::string cell_name = "cell " + std::to_string(idx);
      if (idx >= cells.size()) return Fail(error, cell_name + " out of range");
      if (idx % shard_count != f.shard_index) {
        return Fail(error, cell_name + " does not belong to shard " +
                               std::to_string(f.shard_index) + "/" +
                               std::to_string(shard_count));
      }
      if (cell_seen[idx]) return Fail(error, cell_name + " appears twice");
      cell_seen[idx] = 1;
      CellResult& cr = out->cells[idx];

      std::vector<uint64_t> expect;
      PutConfigWords(cr.cell, &expect);
      bool config_matches = true;
      for (uint64_t want : expect) config_matches &= in.Next() == want;
      if (!config_matches) {
        return Fail(error, cell_name +
                               " config words do not match the spec's "
                               "expansion");
      }
      cr.trace_total_instructions = in.Next();
      cr.trace_total_events = in.Next();
      in(cr.sim_wall_seconds);
      coresim::VisitFields(cr.result, in);
      if (!in.ok()) {
        return Fail(error, cell_name + " has an out-of-range field");
      }
      if (cr.result.num_tenants > 2) {
        return Fail(error, cell_name + " has an impossible tenant count");
      }
    }
  }
  if (shard_texts.size() != shard_count) {
    // Names at most 8 absent indices: the count may be huge.
    const uint64_t absent = shard_count - shard_texts.size();
    std::string missing;
    for (uint64_t i = 0, named = 0; named < std::min<uint64_t>(absent, 8);
         ++i) {
      if (std::count(shard_indices.begin(), shard_indices.end(), i) > 0) {
        continue;
      }
      missing += (named++ == 0 ? "" : ",") + std::to_string(i);
    }
    if (absent > 8) missing += ",...";
    return Fail(error, "incomplete merge: got " +
                           std::to_string(shard_texts.size()) + " of " +
                           std::to_string(shard_count) +
                           " shards (missing " + missing + ")");
  }
  for (size_t i = 0; i < cell_seen.size(); ++i) {
    if (!cell_seen[i]) {
      return Fail(error,
                  "cell " + std::to_string(i) + " missing from its shard");
    }
  }
  return true;
}

}  // namespace stagedcmp::sweep
