// A Database instance: one arena-backed storage universe shared by all
// simulated clients (tables, indexes, lock table, log). Its arena carves
// from the address space it is given (a workload world's), so its
// addresses sit at fixed offsets in that space and logically-shared
// structures are physically shared in the replay.
#ifndef STAGEDCMP_WORKLOAD_DATABASE_H_
#define STAGEDCMP_WORKLOAD_DATABASE_H_

#include <map>
#include <memory>
#include <string>

#include "common/arena.h"
#include "db/bptree.h"
#include "db/storage.h"
#include "db/txn.h"

namespace stagedcmp::workload {

class Database {
 public:
  /// Allocates from `space`, which must outlive the database; the arena
  /// of a standalone database (tests, micro benchmarks) reserves its own.
  explicit Database(AddressSpace* space = nullptr)
      : arena_(space, 4 << 20),
        pool_(&arena_),
        lock_manager_(&arena_),
        log_(&arena_) {}

  db::Table* CreateTable(const std::string& name, db::Schema schema) {
    auto table = std::make_unique<db::Table>();
    table->name = name;
    table->schema = std::move(schema);
    const uint32_t file_id = static_cast<uint32_t>(tables_.size());
    table->heap = std::make_unique<db::HeapFile>(&pool_, file_id,
                                                 &table->schema);
    db::Table* out = table.get();
    tables_[name] = std::move(table);
    return out;
  }

  db::BPlusTree* CreateIndex(const std::string& name) {
    auto idx = std::make_unique<db::BPlusTree>(&arena_);
    db::BPlusTree* out = idx.get();
    indexes_[name] = std::move(idx);
    return out;
  }

  db::Table* table(const std::string& name) {
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : it->second.get();
  }
  db::BPlusTree* index(const std::string& name) {
    auto it = indexes_.find(name);
    return it == indexes_.end() ? nullptr : it->second.get();
  }

  /// The space this database's arena carves from; drivers carve their
  /// per-query scratch arenas from it too.
  AddressSpace* space() { return arena_.space(); }
  Arena* arena() { return &arena_; }
  db::BufferPool* pool() { return &pool_; }
  db::LockManager* lock_manager() { return &lock_manager_; }
  db::LogBuffer* log() { return &log_; }

  /// Total resident data bytes (the workload's maximum data working set).
  size_t data_bytes() const { return arena_.allocated_bytes(); }

 private:
  Arena arena_;
  db::BufferPool pool_;
  db::LockManager lock_manager_;
  db::LogBuffer log_;
  std::map<std::string, std::unique_ptr<db::Table>> tables_;
  std::map<std::string, std::unique_ptr<db::BPlusTree>> indexes_;
};

}  // namespace stagedcmp::workload

#endif  // STAGEDCMP_WORKLOAD_DATABASE_H_
