// Relational schema and tuple layout.
//
// Tuples are fixed-width byte arrays laid out column-after-column (CHAR
// columns are padded), so a tuple's memory footprint — what the tracer
// records — directly reflects its schema width, as in a slotted-page row
// store.
#ifndef STAGEDCMP_DB_SCHEMA_H_
#define STAGEDCMP_DB_SCHEMA_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace stagedcmp::db {

enum class ColumnType : uint8_t {
  kInt64,
  kDouble,
  kChar,  ///< fixed-width padded string
};

struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt64;
  uint32_t length = 8;  ///< bytes; only meaningful for kChar

  uint32_t width() const {
    switch (type) {
      case ColumnType::kInt64: return 8;
      case ColumnType::kDouble: return 8;
      case ColumnType::kChar: return length;
    }
    return 8;
  }
};

/// Immutable column layout; computes offsets on construction.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> cols) : cols_(std::move(cols)) {
    offsets_.reserve(cols_.size());
    uint32_t off = 0;
    for (const Column& c : cols_) {
      offsets_.push_back(off);
      off += c.width();
    }
    tuple_size_ = (off + 7u) & ~7u;  // 8-byte aligned rows
  }

  uint32_t tuple_size() const { return tuple_size_; }
  size_t num_columns() const { return cols_.size(); }
  const Column& column(size_t i) const { return cols_[i]; }
  uint32_t offset(size_t i) const { return offsets_[i]; }

  /// Returns the index of `name`, or -1.
  int FindColumn(const std::string& name) const {
    for (size_t i = 0; i < cols_.size(); ++i) {
      if (cols_[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

  /// Concatenation for join outputs.
  static Schema Concat(const Schema& a, const Schema& b) {
    std::vector<Column> cols;
    cols.reserve(a.num_columns() + b.num_columns());
    for (size_t i = 0; i < a.num_columns(); ++i) cols.push_back(a.column(i));
    for (size_t i = 0; i < b.num_columns(); ++i) cols.push_back(b.column(i));
    return Schema(std::move(cols));
  }

 private:
  std::vector<Column> cols_;
  std::vector<uint32_t> offsets_;
  uint32_t tuple_size_ = 0;
};

/// Typed accessors over a raw tuple buffer.
class TupleRef {
 public:
  TupleRef(const Schema* schema, uint8_t* data)
      : schema_(schema), data_(data) {}

  int64_t GetInt(size_t col) const {
    int64_t v;
    std::memcpy(&v, data_ + schema_->offset(col), 8);
    return v;
  }
  double GetDouble(size_t col) const {
    double v;
    std::memcpy(&v, data_ + schema_->offset(col), 8);
    return v;
  }
  std::string GetString(size_t col) const {
    const Column& c = schema_->column(col);
    const char* p = reinterpret_cast<const char*>(data_ + schema_->offset(col));
    size_t n = 0;
    while (n < c.length && p[n] != '\0') ++n;
    return std::string(p, n);
  }

  void SetInt(size_t col, int64_t v) {
    std::memcpy(data_ + schema_->offset(col), &v, 8);
  }
  void SetDouble(size_t col, double v) {
    std::memcpy(data_ + schema_->offset(col), &v, 8);
  }
  void SetString(size_t col, const std::string& s) {
    SetChars(col, s.data(), s.size());
  }
  /// SetString over raw bytes: truncates to the column width and
  /// zero-pads the remainder. The loaders pair this with
  /// Rng::AlphaStringInto to fill CHAR columns without heap traffic.
  void SetChars(size_t col, const char* s, size_t n) {
    const Column& c = schema_->column(col);
    if (n > c.length) n = c.length;
    std::memset(data_ + schema_->offset(col), 0, c.length);
    std::memcpy(data_ + schema_->offset(col), s, n);
  }

  uint8_t* data() const { return data_; }
  const Schema* schema() const { return schema_; }

 private:
  const Schema* schema_;
  uint8_t* data_;
};

/// Column reads off a const tuple buffer, for operators that scan tuples
/// without wrapping them in a TupleRef. Native helpers: like TupleRef's
/// accessors they record no trace events.
inline int64_t GetIntAt(const Schema& s, const uint8_t* tuple, int col) {
  int64_t v;
  std::memcpy(&v, tuple + s.offset(static_cast<size_t>(col)), 8);
  return v;
}
inline double GetDoubleAt(const Schema& s, const uint8_t* tuple, int col) {
  double v;
  std::memcpy(&v, tuple + s.offset(static_cast<size_t>(col)), 8);
  return v;
}

/// 64-bit key mix (MurmurHash3's finalizer) for hash joins, hash
/// aggregation and the staged engine's partitioning.
inline uint64_t HashKey(uint64_t k) {
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDULL;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ULL;
  k ^= k >> 33;
  return k;
}

}  // namespace stagedcmp::db

#endif  // STAGEDCMP_DB_SCHEMA_H_
