#include "db/exec.h"

#include <algorithm>
#include <cstring>

namespace stagedcmp::db {

using trace::CostModel;

bool Predicate::Eval(const Schema& schema, const uint8_t* tuple) const {
  if (is_double) {
    const double v = GetDoubleAt(schema, tuple, column);
    switch (op) {
      case Op::kEq: return v == dval;
      case Op::kNe: return v != dval;
      case Op::kLt: return v < dval;
      case Op::kLe: return v <= dval;
      case Op::kGt: return v > dval;
      case Op::kGe: return v >= dval;
      case Op::kBetween: return v >= dval && v <= dval2;
    }
    return false;
  }
  const int64_t v = GetIntAt(schema, tuple, column);
  switch (op) {
    case Op::kEq: return v == ival;
    case Op::kNe: return v != ival;
    case Op::kLt: return v < ival;
    case Op::kLe: return v <= ival;
    case Op::kGt: return v > ival;
    case Op::kGe: return v >= ival;
    case Op::kBetween: return v >= ival && v <= ival2;
  }
  return false;
}

GroupSlot GroupSlot::New(Arena* temp, size_t n_keys, size_t n_aggs,
                         size_t min_bytes) {
  const size_t bytes = std::max(8 * (n_keys + 2 * n_aggs), min_bytes);
  char* p = static_cast<char*>(temp->Allocate(bytes, 64));
  GroupSlot g;
  g.keys = reinterpret_cast<int64_t*>(p);
  g.acc = reinterpret_cast<double*>(p + 8 * n_keys);
  g.cnt = reinterpret_cast<int64_t*>(p + 8 * (n_keys + n_aggs));
  return g;
}

namespace {

/// A line-aligned tuple of `bytes` in the query's scratch arena: an
/// operator's output buffer or a materialized row copy.
uint8_t* NewTuple(ExecContext* ctx, size_t bytes) {
  return static_cast<uint8_t*>(ctx->temp->Allocate(bytes, 64));
}

}  // namespace

// ---------------------------------------------------------------------------
// SeqScan
// ---------------------------------------------------------------------------

SeqScanOp::SeqScanOp(HeapFile* file, std::vector<Predicate> preds)
    : file_(file), preds_(std::move(preds)) {
  region_ = trace::RegionId::kSeqScan;
}

void SeqScanOp::Open(ExecContext* /*ctx*/) {
  page_idx_ = 0;
  slot_ = 0;
  cur_page_ = nullptr;
}

const uint8_t* SeqScanOp::Next(ExecContext* ctx) {
  trace::Tracer* t = ctx->tracer;
  if (t != nullptr) {
    t->EnterRegion(region_);
    t->Compute(CostModel::kOperatorNextOverhead);
  }
  const Schema& schema = *file_->schema();
  while (true) {
    if (cur_page_ == nullptr || slot_ >= cur_page_->n_tuples) {
      if (page_idx_ >= file_->page_ids().size()) return nullptr;
      cur_page_ = file_->pool()->Fetch(file_->page_ids()[page_idx_++], t);
      if (t != nullptr) t->EnterRegion(region_);
      slot_ = 0;
      if (cur_page_->n_tuples == 0) continue;
    }
    const uint8_t* tuple = cur_page_->TupleAt(slot_++);
    if (t != nullptr) {
      // Sequential tuple read: not dependent (prefetchable by OoO).
      t->Read(tuple, schema.tuple_size(), 3);
    }
    bool pass = true;
    for (const Predicate& p : preds_) {
      if (t != nullptr) t->Compute(CostModel::kPredicateEval);
      if (!p.Eval(schema, tuple)) {
        pass = false;
        break;
      }
    }
    if (pass) return tuple;
  }
}

void SeqScanOp::Close(ExecContext* /*ctx*/) {}

// ---------------------------------------------------------------------------
// HashJoin
// ---------------------------------------------------------------------------

HashJoinOp::HashJoinOp(std::unique_ptr<Operator> build,
                       std::unique_ptr<Operator> probe, int build_key,
                       int probe_key, Type type)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      build_key_(build_key),
      probe_key_(probe_key),
      type_(type) {
  build_region_ = trace::RegionId::kHashBuild;
  probe_region_ = trace::RegionId::kHashProbe;
  schema_ = Schema::Concat(probe_->output_schema(), build_->output_schema());
  null_build_.assign(build_->output_schema().tuple_size(), 0);
}

void HashJoinOp::BuildTable(ExecContext* ctx) {
  trace::Tracer* t = ctx->tracer;
  const Schema& bs = build_->output_schema();
  build_->Open(ctx);
  std::vector<const uint8_t*> staged;
  while (const uint8_t* tuple = build_->Next(ctx)) {
    if (t != nullptr) t->EnterRegion(build_region_);
    uint8_t* copy = NewTuple(ctx, bs.tuple_size());
    std::memcpy(copy, tuple, bs.tuple_size());
    if (t != nullptr) {
      t->Write(copy, bs.tuple_size(), CostModel::kTupleCopyPerLine);
    }
    staged.push_back(copy);
  }
  build_->Close(ctx);

  nbuckets_ = 16;
  while (nbuckets_ < staged.size() * 2) nbuckets_ <<= 1;
  buckets_ = static_cast<int32_t*>(
      ctx->temp->Allocate(nbuckets_ * sizeof(int32_t), 64));
  std::fill(buckets_, buckets_ + nbuckets_, -1);
  build_rows_ = static_cast<BuildRow*>(ctx->temp->Allocate(
      std::max<size_t>(staged.size(), 1) * sizeof(BuildRow),
      alignof(BuildRow)));
  n_build_ = 0;
  for (const uint8_t* row : staged) {
    const uint64_t key =
        static_cast<uint64_t>(GetIntAt(bs, row, build_key_));
    const size_t b = HashKey(key) & (nbuckets_ - 1);
    if (t != nullptr) {
      t->Compute(CostModel::kHashCompute);
      t->Write(&buckets_[b], 4, CostModel::kHashProbeStep);
    }
    build_rows_[n_build_] = {row, buckets_[b]};
    buckets_[b] = static_cast<int32_t>(n_build_++);
  }
}

void HashJoinOp::Open(ExecContext* ctx) {
  out_buf_ = NewTuple(ctx, schema_.tuple_size());
  BuildTable(ctx);
  probe_->Open(ctx);
  cur_probe_ = nullptr;
  chain_ = -1;
  probe_matched_ = false;
}

const uint8_t* HashJoinOp::Emit(ExecContext* ctx, const uint8_t* probe,
                                const uint8_t* build) {
  const Schema& ps = probe_->output_schema();
  const Schema& bs = build_->output_schema();
  std::memcpy(out_buf_, probe, ps.tuple_size());
  std::memcpy(out_buf_ + ps.tuple_size(), build, bs.tuple_size());
  if (ctx->tracer != nullptr) {
    ctx->tracer->Write(out_buf_, schema_.tuple_size(),
                       CostModel::kTupleCopyPerLine);
  }
  return out_buf_;
}

const uint8_t* HashJoinOp::Next(ExecContext* ctx) {
  trace::Tracer* t = ctx->tracer;
  const Schema& ps = probe_->output_schema();
  const Schema& bs = build_->output_schema();
  while (true) {
    if (cur_probe_ != nullptr && chain_ >= 0) {
      // Continue walking the current chain.
      const BuildRow& row = build_rows_[static_cast<size_t>(chain_)];
      if (t != nullptr) {
        t->EnterRegion(probe_region_);
        // Chain walk: dependent pointer chase through the hash table.
        t->Read(row.data, bs.tuple_size(), CostModel::kHashProbeStep,
                /*dependent=*/true);
      }
      const uint64_t pk =
          static_cast<uint64_t>(GetIntAt(ps, cur_probe_, probe_key_));
      const uint64_t bk =
          static_cast<uint64_t>(GetIntAt(bs, row.data, build_key_));
      chain_ = row.next;
      if (pk == bk) {
        probe_matched_ = true;
        return Emit(ctx, cur_probe_, row.data);
      }
      continue;
    }
    if (cur_probe_ != nullptr && type_ == Type::kLeftOuter &&
        !probe_matched_) {
      const uint8_t* out = Emit(ctx, cur_probe_, null_build_.data());
      cur_probe_ = nullptr;
      return out;
    }
    cur_probe_ = probe_->Next(ctx);
    if (cur_probe_ == nullptr) return nullptr;
    probe_matched_ = false;
    if (t != nullptr) {
      t->EnterRegion(probe_region_);
      t->Compute(CostModel::kHashCompute);
    }
    const uint64_t key =
        static_cast<uint64_t>(GetIntAt(ps, cur_probe_, probe_key_));
    const size_t b = HashKey(key) & (nbuckets_ - 1);
    if (t != nullptr) {
      t->Read(&buckets_[b], 4, CostModel::kHashProbeStep, /*dependent=*/true);
    }
    chain_ = buckets_[b];
  }
}

void HashJoinOp::Close(ExecContext* ctx) {
  probe_->Close(ctx);
  buckets_ = nullptr;
  nbuckets_ = 0;
  build_rows_ = nullptr;
  n_build_ = 0;
}

// ---------------------------------------------------------------------------
// HashAgg
// ---------------------------------------------------------------------------

HashAggOp::HashAggOp(std::unique_ptr<Operator> child,
                     std::vector<int> group_cols, std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)) {
  region_ = trace::RegionId::kAggregate;
  std::vector<Column> out;
  for (int c : group_cols_) {
    out.push_back(child_->output_schema().column(static_cast<size_t>(c)));
  }
  for (const AggSpec& a : aggs_) {
    out.push_back(Column{a.name,
                         a.is_double || a.fn == AggFn::kAvg
                             ? ColumnType::kDouble
                             : ColumnType::kInt64,
                         8});
  }
  schema_ = Schema(std::move(out));
  out_buf_.resize(schema_.tuple_size());
}

void HashAggOp::Open(ExecContext* ctx) {
  trace::Tracer* t = ctx->tracer;
  const Schema& in = child_->output_schema();
  groups_.clear();
  ordered_.clear();
  emit_pos_ = 0;
  child_->Open(ctx);
  // Reused across tuples: a fresh vector per input row was a measured
  // allocation hot spot on the DSS trace-build path.
  std::vector<int64_t> keys;
  keys.reserve(group_cols_.size());
  while (const uint8_t* tuple = child_->Next(ctx)) {
    if (t != nullptr) {
      t->EnterRegion(region_);
      t->Compute(CostModel::kHashCompute);
    }
    uint64_t h = 0xcbf29ce484222325ULL;
    keys.clear();
    for (int c : group_cols_) {
      const int64_t k = GetIntAt(in, tuple, c);
      keys.push_back(k);
      h = HashKey(h ^ static_cast<uint64_t>(k));
    }
    const auto [it, fresh] = groups_.try_emplace(h);
    GroupSlot& g = it->second;
    if (fresh) {
      g = GroupSlot::New(ctx->temp, keys.size(), aggs_.size(),
                         kGroupTouchBytes);
      std::copy(keys.begin(), keys.end(), g.keys);
      for (size_t i = 0; i < aggs_.size(); ++i) {
        g.acc[i] = aggs_[i].fn == AggFn::kMin   ? 1e300
                   : aggs_[i].fn == AggFn::kMax ? -1e300
                                                : 0.0;
        g.cnt[i] = 0;
      }
    }
    if (t != nullptr) {
      // Group-state touch: hot for few groups, cold for many.
      t->Write(g.keys, kGroupTouchBytes, CostModel::kAggUpdate,
               /*dependent=*/true);
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const AggSpec& a = aggs_[i];
      double v = 0.0;
      if (a.column >= 0) {
        v = a.is_double ? GetDoubleAt(in, tuple, a.column)
                        : static_cast<double>(GetIntAt(in, tuple, a.column));
      }
      switch (a.fn) {
        case AggFn::kCount: g.acc[i] += 1; break;
        case AggFn::kSum: g.acc[i] += v; break;
        case AggFn::kMin: g.acc[i] = std::min(g.acc[i], v); break;
        case AggFn::kMax: g.acc[i] = std::max(g.acc[i], v); break;
        case AggFn::kAvg: g.acc[i] += v; break;
      }
      g.cnt[i] += 1;
    }
  }
  child_->Close(ctx);
  ordered_.reserve(groups_.size());
  for (const auto& [h, g] : groups_) ordered_.push_back(g);
}

const uint8_t* HashAggOp::Next(ExecContext* ctx) {
  if (emit_pos_ >= ordered_.size()) return nullptr;
  const GroupSlot& g = ordered_[emit_pos_++];
  trace::Tracer* t = ctx->tracer;
  if (t != nullptr) {
    t->EnterRegion(region_);
    t->Compute(CostModel::kAggUpdate);
  }
  TupleRef ref(&schema_, out_buf_.data());
  size_t col = 0;
  for (size_t i = 0; i < group_cols_.size(); ++i, ++col) {
    ref.SetInt(col, g.keys[i]);
  }
  for (size_t i = 0; i < aggs_.size(); ++i, ++col) {
    const AggSpec& a = aggs_[i];
    if (a.fn == AggFn::kAvg) {
      ref.SetDouble(col, g.cnt[i] ? g.acc[i] / static_cast<double>(g.cnt[i])
                                  : 0.0);
    } else if (a.is_double || a.fn == AggFn::kAvg) {
      ref.SetDouble(col, g.acc[i]);
    } else {
      ref.SetInt(col, static_cast<int64_t>(g.acc[i]));
    }
  }
  return out_buf_.data();
}

void HashAggOp::Close(ExecContext* /*ctx*/) {
  groups_.clear();
  ordered_.clear();
}

uint64_t DrainOperator(Operator* op, ExecContext* ctx) {
  op->Open(ctx);
  uint64_t n = 0;
  while (op->Next(ctx) != nullptr) ++n;
  op->Close(ctx);
  return n;
}

}  // namespace stagedcmp::db
