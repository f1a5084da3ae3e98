// Tuple-at-a-time (Volcano) relational operators: the "conventional DBMS"
// execution model the paper characterizes. Every Next() call hops between
// operator code regions, producing the large interleaved instruction
// footprint typical of commercial engines; the staged engine (db/staged.h)
// removes exactly that behaviour.
#ifndef STAGEDCMP_DB_EXEC_H_
#define STAGEDCMP_DB_EXEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "db/schema.h"
#include "db/storage.h"
#include "trace/cost_model.h"
#include "trace/tracer.h"

namespace stagedcmp::db {

class PacketPool;

/// Per-query execution context: tracer + scratch arena for hash tables,
/// group states, output tuples and materialized intermediates. Everything
/// an operator traces lives in an arena, so it has a fixed place in the
/// recording world's address space.
struct ExecContext {
  trace::Tracer* tracer = nullptr;
  Arena* temp = nullptr;
  /// The running staged pipeline's packet buffers (db/staged.h).
  PacketPool* packets = nullptr;
};

/// A hash-aggregation group's state, in one line-aligned slot of the
/// query's scratch arena: its key values, then each aggregate's
/// accumulator, then each aggregate's count (8 bytes each). Shared by
/// HashAggOp and the staged AggStage.
struct GroupSlot {
  int64_t* keys = nullptr;  ///< also the slot's start
  double* acc = nullptr;
  int64_t* cnt = nullptr;

  /// Carves a slot of at least `min_bytes` from `temp`; the caller
  /// initializes it.
  static GroupSlot New(Arena* temp, size_t n_keys, size_t n_aggs,
                       size_t min_bytes);
};

/// Simple comparison predicate against a column; conjunctions are vectors
/// of these. Kept struct-shaped (no std::function) so evaluation cost is
/// explicit and traceable.
struct Predicate {
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe, kBetween };
  int column = 0;
  Op op = Op::kEq;
  int64_t ival = 0;
  int64_t ival2 = 0;  // kBetween upper bound
  double dval = 0.0;
  double dval2 = 0.0;
  bool is_double = false;

  bool Eval(const Schema& schema, const uint8_t* tuple) const;
};

/// Base Volcano operator.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual void Open(ExecContext* ctx) = 0;
  /// Returns the next tuple (valid until the following call) or nullptr.
  virtual const uint8_t* Next(ExecContext* ctx) = 0;
  virtual void Close(ExecContext* ctx) = 0;
  virtual const Schema& output_schema() const = 0;
};

/// Full scan over a heap file with optional conjunctive predicates.
class SeqScanOp : public Operator {
 public:
  SeqScanOp(HeapFile* file, std::vector<Predicate> preds);
  void Open(ExecContext* ctx) override;
  const uint8_t* Next(ExecContext* ctx) override;
  void Close(ExecContext* ctx) override;
  const Schema& output_schema() const override { return *file_->schema(); }

 private:
  HeapFile* file_;
  std::vector<Predicate> preds_;
  size_t page_idx_ = 0;
  uint32_t slot_ = 0;
  Page* cur_page_ = nullptr;
  trace::RegionId region_;
};

/// In-memory hash join (equi-join on single int64 columns).
/// Build side is fully materialized into the scratch arena.
class HashJoinOp : public Operator {
 public:
  enum class Type { kInner, kLeftOuter };
  HashJoinOp(std::unique_ptr<Operator> build, std::unique_ptr<Operator> probe,
             int build_key, int probe_key, Type type = Type::kInner);
  void Open(ExecContext* ctx) override;
  const uint8_t* Next(ExecContext* ctx) override;
  void Close(ExecContext* ctx) override;
  const Schema& output_schema() const override { return schema_; }

 private:
  struct BuildRow {
    const uint8_t* data;
    int32_t next;  // chain
  };

  void BuildTable(ExecContext* ctx);
  const uint8_t* Emit(ExecContext* ctx, const uint8_t* probe,
                      const uint8_t* build);

  std::unique_ptr<Operator> build_;
  std::unique_ptr<Operator> probe_;
  int build_key_, probe_key_;
  Type type_;
  Schema schema_;
  // The hash table, in ctx->temp: bucket heads and the chained rows.
  int32_t* buckets_ = nullptr;
  size_t nbuckets_ = 0;
  BuildRow* build_rows_ = nullptr;
  size_t n_build_ = 0;
  const uint8_t* cur_probe_ = nullptr;
  int32_t chain_ = -1;
  bool probe_matched_ = false;
  uint8_t* out_buf_ = nullptr;  ///< output tuple, in ctx->temp
  std::vector<uint8_t> null_build_;
  trace::RegionId build_region_;
  trace::RegionId probe_region_;
};

/// Aggregate function kinds.
enum class AggFn { kCount, kSum, kMin, kMax, kAvg };

struct AggSpec {
  AggFn fn = AggFn::kCount;
  int column = -1;     ///< input column (-1 for COUNT(*))
  bool is_double = false;
  std::string name = "agg";
};

/// Hash group-by aggregation. Output columns: group keys then aggregates.
class HashAggOp : public Operator {
 public:
  HashAggOp(std::unique_ptr<Operator> child, std::vector<int> group_cols,
            std::vector<AggSpec> aggs);
  void Open(ExecContext* ctx) override;
  const uint8_t* Next(ExecContext* ctx) override;
  void Close(ExecContext* ctx) override;
  const Schema& output_schema() const override { return schema_; }

 private:
  /// An update is traced as a write of its group slot's first 72 bytes
  /// (two cache lines), whatever the aggregate count.
  static constexpr size_t kGroupTouchBytes = 72;

  std::unique_ptr<Operator> child_;
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  std::unordered_map<uint64_t, GroupSlot> groups_;
  std::vector<GroupSlot> ordered_;
  size_t emit_pos_ = 0;
  std::vector<uint8_t> out_buf_;
  trace::RegionId region_;
};

/// Drains an operator tree, returning the row count (query driver).
uint64_t DrainOperator(Operator* op, ExecContext* ctx);

}  // namespace stagedcmp::db

#endif  // STAGEDCMP_DB_EXEC_H_
