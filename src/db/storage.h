// Storage manager: pages, buffer pool, heap files.
//
// The database is memory-resident (the paper tunes workloads to minimize
// I/O), but the buffer pool is still real: page frames come from a shared
// Arena, a page-table lookup precedes every page touch, and that metadata —
// shared by all clients — is part of the primary working set the paper's L2
// sweep chases.
#ifndef STAGEDCMP_DB_STORAGE_H_
#define STAGEDCMP_DB_STORAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "db/schema.h"
#include "trace/cost_model.h"
#include "trace/tracer.h"

namespace stagedcmp::db {

constexpr uint32_t kPageSize = 8192;

/// Record identifier: (global page id, slot).
struct Rid {
  uint32_t page = 0;
  uint32_t slot = 0;

  uint64_t Encode() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static Rid Decode(uint64_t v) {
    return Rid{static_cast<uint32_t>(v >> 16),
               static_cast<uint32_t>(v & 0xFFFF)};
  }
  bool operator==(const Rid& o) const {
    return page == o.page && slot == o.slot;
  }
};

/// Fixed-width-slot page. Header is deliberately touched on every access so
/// hot page headers concentrate in upper cache levels like real systems.
struct alignas(64) Page {
  uint32_t page_id = 0;
  uint32_t file_id = 0;
  uint32_t tuple_size = 0;
  uint32_t capacity = 0;
  uint32_t n_tuples = 0;
  uint32_t pin_count = 0;
  uint8_t pad[40];
  uint8_t data[kPageSize];

  uint8_t* TupleAt(uint32_t slot) {
    return data + static_cast<size_t>(slot) * tuple_size;
  }
  const uint8_t* TupleAt(uint32_t slot) const {
    return data + static_cast<size_t>(slot) * tuple_size;
  }
  bool Full() const { return n_tuples >= capacity; }
};

/// Arena-backed buffer pool: allocates frames, maintains the global page
/// table, and traces every lookup (a shared-metadata access). The page
/// table lives in the arena too, in fixed chunks of kTableChunk entries
/// allocated as it grows, so growing it never leaves a stale copy behind.
class BufferPool {
 public:
  static constexpr uint32_t kTableChunk = 512;  ///< 4 KB of entries

  explicit BufferPool(Arena* arena) : arena_(arena) {
    region_ = trace::RegionId::kBufferPool;
  }

  /// Allocates a new page for `file_id` holding tuples of `tuple_size`.
  Page* NewPage(uint32_t file_id, uint32_t tuple_size);

  /// Fetches by global id, tracing the page-table probe and header touch.
  Page* Fetch(uint32_t page_id, trace::Tracer* t);

 private:
  Page** Entry(uint32_t page_id) const {
    return &chunks_[page_id / kTableChunk][page_id % kTableChunk];
  }

  Arena* arena_;
  std::vector<Page**> chunks_;  // page table: id -> frame, by chunk
  uint32_t num_pages_ = 0;
  trace::RegionId region_;
};

/// Append-only heap file of fixed-width tuples.
class HeapFile {
 public:
  HeapFile(BufferPool* pool, uint32_t file_id, const Schema* schema)
      : pool_(pool), file_id_(file_id), schema_(schema) {}

  /// Appends a tuple; returns its RID. `t` may be null during bulk load.
  Rid Insert(const uint8_t* tuple, trace::Tracer* t);

  /// Returns a pointer to the tuple bytes, tracing page + tuple touches.
  uint8_t* Get(Rid rid, trace::Tracer* t);

  const Schema* schema() const { return schema_; }
  uint32_t file_id() const { return file_id_; }
  const std::vector<uint32_t>& page_ids() const { return page_ids_; }
  uint64_t num_tuples() const { return num_tuples_; }
  BufferPool* pool() const { return pool_; }

 private:
  BufferPool* pool_;
  uint32_t file_id_;
  const Schema* schema_;
  std::vector<uint32_t> page_ids_;
  uint64_t num_tuples_ = 0;
};

/// A named table: schema + heap file.
struct Table {
  std::string name;
  Schema schema;
  std::unique_ptr<HeapFile> heap;
};

}  // namespace stagedcmp::db

#endif  // STAGEDCMP_DB_STORAGE_H_
