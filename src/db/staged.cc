#include "db/staged.h"

#include <cstring>

namespace stagedcmp::db {

using trace::CostModel;

uint32_t DefaultPacketTuples(uint32_t tuple_size) {
  const uint32_t budget = 32 * 1024;  // half of a 64KB L1D
  uint32_t n = budget / std::max<uint32_t>(tuple_size, 1);
  if (n == 0) n = 1;
  if (n > 512) n = 512;
  return n;
}

// ---------------------------------------------------------------------------
// SourceStage
// ---------------------------------------------------------------------------

SourceStage::SourceStage(std::string name, std::unique_ptr<Operator> op,
                         uint32_t packet_tuples)
    : name_(std::move(name)), op_(std::move(op)),
      packet_tuples_(packet_tuples) {}

void SourceStage::Open(ExecContext* ctx) {
  op_->Open(ctx);
  exhausted_ = false;
}
void SourceStage::Close(ExecContext* ctx) { op_->Close(ctx); }

void SourceStage::Process(const Packet* /*in*/,
                          std::vector<std::unique_ptr<Packet>>* out,
                          ExecContext* ctx) {
  // Produce exactly one packet per invocation (cohort granularity).
  auto packet = std::make_unique<Packet>(&op_->output_schema(),
                                         packet_tuples_);
  const Schema& s = op_->output_schema();
  while (!packet->Full()) {
    const uint8_t* tuple = op_->Next(ctx);
    if (tuple == nullptr) {
      exhausted_ = true;
      break;
    }
    uint8_t* dst = packet->Append();
    std::memcpy(dst, tuple, s.tuple_size());
    if (ctx->tracer != nullptr) {
      ctx->tracer->Write(dst, s.tuple_size(), CostModel::kTupleCopyPerLine);
    }
  }
  if (packet->count() > 0) out->push_back(std::move(packet));
}

// ---------------------------------------------------------------------------
// FilterStage
// ---------------------------------------------------------------------------

FilterStage::FilterStage(std::string name, const Schema* schema,
                         std::vector<Predicate> preds, uint32_t packet_tuples)
    : name_(std::move(name)), schema_(schema), preds_(std::move(preds)),
      packet_tuples_(packet_tuples) {
  region_ = trace::RegionId::kFilter;
}

void FilterStage::Process(const Packet* in,
                          std::vector<std::unique_ptr<Packet>>* out,
                          ExecContext* ctx) {
  if (in == nullptr || in->count() == 0) return;
  trace::Tracer* t = ctx->tracer;
  if (t != nullptr) t->EnterRegion(region_);
  auto packet = std::make_unique<Packet>(schema_, packet_tuples_);
  for (uint32_t i = 0; i < in->count(); ++i) {
    const uint8_t* tuple = in->Row(i);
    if (t != nullptr) {
      // Packet rows were just written by the producer: L1-resident reads.
      t->Read(tuple, schema_->tuple_size(), 2);
      t->Compute(CostModel::kPredicateEval *
                 static_cast<uint32_t>(preds_.size()));
    }
    bool pass = true;
    for (const Predicate& p : preds_) {
      if (!p.Eval(*schema_, tuple)) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    if (packet->Full()) {
      out->push_back(std::move(packet));
      packet = std::make_unique<Packet>(schema_, packet_tuples_);
    }
    uint8_t* dst = packet->Append();
    std::memcpy(dst, tuple, schema_->tuple_size());
    if (t != nullptr) {
      t->Write(dst, schema_->tuple_size(), CostModel::kTupleCopyPerLine);
    }
  }
  if (packet->count() > 0) out->push_back(std::move(packet));
}

// ---------------------------------------------------------------------------
// AggStage
// ---------------------------------------------------------------------------

AggStage::AggStage(std::string name, const Schema* in_schema,
                   std::vector<int> group_cols, std::vector<AggSpec> aggs)
    : name_(std::move(name)), in_schema_(in_schema),
      group_cols_(std::move(group_cols)), aggs_(std::move(aggs)) {
  region_ = trace::RegionId::kAggregate;
  std::vector<Column> out;
  for (int c : group_cols_) {
    out.push_back(in_schema_->column(static_cast<size_t>(c)));
  }
  for (const AggSpec& a : aggs_) {
    out.push_back(Column{a.name, ColumnType::kDouble, 8});
  }
  out_schema_ = Schema(std::move(out));
}

void AggStage::Process(const Packet* in,
                       std::vector<std::unique_ptr<Packet>>* /*out*/,
                       ExecContext* ctx) {
  if (in == nullptr) return;
  trace::Tracer* t = ctx->tracer;
  if (t != nullptr) t->EnterRegion(region_);
  for (uint32_t i = 0; i < in->count(); ++i) {
    const uint8_t* tuple = in->Row(i);
    if (t != nullptr) {
      t->Read(tuple, in_schema_->tuple_size(), 2);
      t->Compute(CostModel::kHashCompute);
    }
    uint64_t h = 0xcbf29ce484222325ULL;
    std::vector<int64_t> keys;
    keys.reserve(group_cols_.size());
    for (int c : group_cols_) {
      const int64_t k = GetIntAt(*in_schema_, tuple, c);
      keys.push_back(k);
      h = HashKey(h ^ static_cast<uint64_t>(k));
    }
    GroupState& g = groups_[h];
    if (t != nullptr) {
      t->Write(&g, 64, CostModel::kAggUpdate, /*dependent=*/true);
    }
    if (g.acc.empty()) {
      g.keys = keys;
      g.acc.assign(aggs_.size(), 0.0);
      g.cnt.assign(aggs_.size(), 0);
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      double v = 0.0;
      if (aggs_[a].column >= 0) {
        v = aggs_[a].is_double
                ? GetDoubleAt(*in_schema_, tuple, aggs_[a].column)
                : static_cast<double>(
                      GetIntAt(*in_schema_, tuple, aggs_[a].column));
      }
      switch (aggs_[a].fn) {
        case AggFn::kCount: g.acc[a] += 1; break;
        case AggFn::kSum:
        case AggFn::kAvg: g.acc[a] += v; break;
        case AggFn::kMin: g.acc[a] = g.cnt[a] ? std::min(g.acc[a], v) : v; break;
        case AggFn::kMax: g.acc[a] = g.cnt[a] ? std::max(g.acc[a], v) : v; break;
      }
      g.cnt[a] += 1;
    }
  }
}

std::vector<std::vector<double>> AggStage::Results() const {
  std::vector<std::vector<double>> rows;
  rows.reserve(groups_.size());
  for (const auto& [h, g] : groups_) {
    std::vector<double> row;
    for (int64_t k : g.keys) row.push_back(static_cast<double>(k));
    for (size_t a = 0; a < g.acc.size(); ++a) {
      if (aggs_[a].fn == AggFn::kAvg && g.cnt[a] > 0) {
        row.push_back(g.acc[a] / static_cast<double>(g.cnt[a]));
      } else {
        row.push_back(g.acc[a]);
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// StagedPipeline
// ---------------------------------------------------------------------------

StagedPipeline::StagedPipeline(std::unique_ptr<SourceStage> source,
                               std::vector<std::unique_ptr<Stage>> stages,
                               StagePolicy policy, uint32_t packet_tuples)
    : source_(std::move(source)), stages_(std::move(stages)), policy_(policy),
      packet_tuples_(packet_tuples == 0
                         ? DefaultPacketTuples(
                               source_->output_schema().tuple_size())
                         : packet_tuples) {
  runtime_region_ = trace::RegionId::kStageRuntime;
}

uint64_t StagedPipeline::Run(ExecContext* ctx) {
  trace::Tracer* t = ctx->tracer;
  source_->Open(ctx);
  uint64_t sink_tuples = 0;

  // Cohort scheduling: pull one packet from the source, then push it depth-
  // first through the whole pipeline while it is cache-hot. With 1-tuple
  // packets this degenerates to Volcano-style per-tuple operator switching.
  while (!source_->Exhausted()) {
    std::vector<std::unique_ptr<Packet>> frontier;
    if (t != nullptr) {
      t->EnterRegion(runtime_region_);
      t->Compute(CostModel::kStagePacketOverhead);
    }
    source_->Process(nullptr, &frontier, ctx);
    ++packets_processed_;
    for (Stage* stage_raw : [&] {
           std::vector<Stage*> v;
           for (auto& s : stages_) v.push_back(s.get());
           return v;
         }()) {
      std::vector<std::unique_ptr<Packet>> next;
      for (const auto& p : frontier) {
        if (t != nullptr) {
          t->EnterRegion(runtime_region_);
          t->Compute(CostModel::kStagePacketOverhead);
        }
        stage_raw->Process(p.get(), &next, ctx);
        ++packets_processed_;
      }
      frontier = std::move(next);
    }
    for (const auto& p : frontier) sink_tuples += p->count();
  }
  source_->Close(ctx);
  return sink_tuples;
}

}  // namespace stagedcmp::db
