// Staged query execution (StagedDB / QPipe lineage — Section 6.3).
//
// A query is decomposed into *stages*, each wrapping one relational
// operator. Work moves between stages as *packets*: batches of tuples sized
// to fit in L1D. The scheduler runs one stage at a time over a whole packet
// (cohort scheduling, STEPS-style), which:
//   * keeps one operator's code resident in L1I for the whole batch
//     (vs. Volcano's per-tuple operator interleaving), and
//   * bounds the producer→consumer data reuse distance to one packet, so
//     intermediate tuples are still L1D-resident when consumed.
//
// sweep_main --spec cohort measures exactly these two effects.
#ifndef STAGEDCMP_DB_STAGED_H_
#define STAGEDCMP_DB_STAGED_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/exec.h"
#include "trace/cost_model.h"
#include "trace/tracer.h"

namespace stagedcmp::db {

/// Row buffers for a pipeline's packets, carved line-aligned from the
/// query's scratch arena. A dead packet's buffer is reused, last in first
/// out, by the next packet of its size, so a query holds only as many
/// buffers as it has packets alive at once, and where a row lands follows
/// the schedule alone.
class PacketPool {
 public:
  explicit PacketPool(Arena* temp) : temp_(temp) {}

  uint8_t* Take(size_t bytes);
  void Give(uint8_t* rows, size_t bytes) { free_.emplace_back(bytes, rows); }

 private:
  Arena* temp_;
  std::vector<std::pair<size_t, uint8_t*>> free_;
};

/// A batch of fixed-width tuples flowing between stages. Its rows live in
/// a buffer from `pool`, which takes it back when the packet dies.
class Packet {
 public:
  Packet(const Schema* schema, uint32_t capacity, PacketPool* pool)
      : schema_(schema),
        capacity_(capacity),
        pool_(pool),
        rows_(pool->Take(capacity_bytes())) {}
  ~Packet() { pool_->Give(rows_, capacity_bytes()); }

  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  bool Full() const { return count_ >= capacity_; }
  uint32_t count() const { return count_; }
  const Schema* schema() const { return schema_; }

  uint8_t* Append() {
    assert(!Full());
    return rows_ + static_cast<size_t>(count_++) * schema_->tuple_size();
  }
  const uint8_t* Row(uint32_t i) const {
    return rows_ + static_cast<size_t>(i) * schema_->tuple_size();
  }
  size_t bytes() const {
    return static_cast<size_t>(count_) * schema_->tuple_size();
  }

 private:
  size_t capacity_bytes() const {
    return static_cast<size_t>(capacity_) * schema_->tuple_size();
  }

  const Schema* schema_;
  uint32_t capacity_;
  uint32_t count_ = 0;
  PacketPool* pool_;
  uint8_t* rows_;
};

/// Scheduling policy for the staged engine.
enum class StagePolicy {
  kCohort,      ///< run a stage over a full packet before switching
  kTupleAtATime ///< degenerate 1-tuple packets (Volcano-equivalent control
                ///< flow; the ablation baseline)
};

/// A stage: one operator's kernel with an input queue.
/// Stage 0 (the source) pulls from its operator; downstream stages apply
/// their transformation packet-at-a-time.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const std::string& name() const = 0;
  virtual const Schema& output_schema() const = 0;

  /// Processes one input packet, appending results to `out` (may span
  /// multiple output packets via the scheduler). Source stages ignore `in`.
  virtual void Process(const Packet* in, std::vector<std::unique_ptr<Packet>>* out,
                       ExecContext* ctx) = 0;

  /// True once a source stage has produced everything.
  virtual bool Exhausted() const { return false; }
};

/// Source stage: drains a Volcano operator subtree into packets.
class SourceStage : public Stage {
 public:
  SourceStage(std::string name, std::unique_ptr<Operator> op,
              uint32_t packet_tuples);
  const std::string& name() const override { return name_; }
  const Schema& output_schema() const override {
    return op_->output_schema();
  }
  void Process(const Packet* in, std::vector<std::unique_ptr<Packet>>* out,
               ExecContext* ctx) override;
  bool Exhausted() const override { return exhausted_; }
  void Open(ExecContext* ctx);
  void Close(ExecContext* ctx);

 private:
  std::string name_;
  std::unique_ptr<Operator> op_;
  uint32_t packet_tuples_;
  bool exhausted_ = false;
};

/// Filter stage.
class FilterStage : public Stage {
 public:
  FilterStage(std::string name, const Schema* schema,
              std::vector<Predicate> preds, uint32_t packet_tuples);
  const std::string& name() const override { return name_; }
  const Schema& output_schema() const override { return *schema_; }
  void Process(const Packet* in, std::vector<std::unique_ptr<Packet>>* out,
               ExecContext* ctx) override;

 private:
  std::string name_;
  const Schema* schema_;
  std::vector<Predicate> preds_;
  uint32_t packet_tuples_;
  trace::RegionId region_;
};

/// Aggregation stage (terminal; accumulates, emits nothing downstream).
class AggStage : public Stage {
 public:
  AggStage(std::string name, const Schema* in_schema,
           std::vector<int> group_cols, std::vector<AggSpec> aggs);
  const std::string& name() const override { return name_; }
  const Schema& output_schema() const override { return out_schema_; }
  void Process(const Packet* in, std::vector<std::unique_ptr<Packet>>* out,
               ExecContext* ctx) override;

  size_t num_groups() const { return groups_.size(); }
  /// (group keys..., accumulator values...) rows after processing.
  std::vector<std::vector<double>> Results() const;

 private:
  /// An update is traced as a write of its group slot's first line.
  static constexpr size_t kGroupTouchBytes = 64;

  std::string name_;
  const Schema* in_schema_;
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
  Schema out_schema_;
  std::unordered_map<uint64_t, GroupSlot> groups_;
  trace::RegionId region_;
};

/// A linear staged pipeline with a cohort scheduler.
class StagedPipeline {
 public:
  /// `packet_tuples` = 0 picks a packet size that fits half the L1D
  /// (the cohort-scheduling sweet spot); pass 1 for tuple-at-a-time.
  StagedPipeline(std::unique_ptr<SourceStage> source,
                 std::vector<std::unique_ptr<Stage>> stages,
                 StagePolicy policy, uint32_t packet_tuples);

  /// Runs the pipeline to completion; returns tuples that reached the sink.
  uint64_t Run(ExecContext* ctx);

  uint64_t packets_processed() const { return packets_processed_; }

 private:
  std::unique_ptr<SourceStage> source_;
  std::vector<std::unique_ptr<Stage>> stages_;
  StagePolicy policy_;
  uint32_t packet_tuples_;
  uint64_t packets_processed_ = 0;
  trace::RegionId runtime_region_;
};

/// Packet capacity that keeps a packet within half of a 64 KB L1D.
uint32_t DefaultPacketTuples(uint32_t tuple_size);

}  // namespace stagedcmp::db

#endif  // STAGEDCMP_DB_STAGED_H_
