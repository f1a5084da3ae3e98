#include "db/exec.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "db/bptree.h"

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
// IndexScan
// ---------------------------------------------------------------------------

IndexScanOp::IndexScanOp(const BPlusTree* index, HeapFile* file, uint64_t lo,
                         uint64_t hi)
    : index_(index), file_(file), lo_(lo), hi_(hi) {
  region_ = trace::RegionId::kIndexScan;
}

void IndexScanOp::Open(ExecContext* ctx) {
  rids_.clear();
  pos_ = 0;
  index_->Scan(lo_, hi_,
               [&](uint64_t, uint64_t v) {
                 rids_.push_back(v);
                 return true;
               },
               ctx->tracer);
}

const uint8_t* IndexScanOp::Next(ExecContext* ctx) {
  trace::Tracer* t = ctx->tracer;
  if (t != nullptr) {
    t->EnterRegion(region_);
    t->Compute(CostModel::kOperatorNextOverhead);
  }
  if (pos_ >= rids_.size()) return nullptr;
  return file_->Get(Rid::Decode(rids_[pos_++]), t);
}

void IndexScanOp::Close(ExecContext* /*ctx*/) { rids_.clear(); }

// ---------------------------------------------------------------------------
// Filter / Project
// ---------------------------------------------------------------------------

FilterOp::FilterOp(std::unique_ptr<Operator> child,
                   std::vector<Predicate> preds)
    : child_(std::move(child)), preds_(std::move(preds)) {
  region_ = trace::RegionId::kFilter;
}

void FilterOp::Open(ExecContext* ctx) { child_->Open(ctx); }

const uint8_t* FilterOp::Next(ExecContext* ctx) {
  trace::Tracer* t = ctx->tracer;
  const Schema& schema = child_->output_schema();
  while (const uint8_t* tuple = child_->Next(ctx)) {
    if (t != nullptr) {
      t->EnterRegion(region_);
      t->Compute(CostModel::kOperatorNextOverhead);
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
  return nullptr;
}

void FilterOp::Close(ExecContext* ctx) { child_->Close(ctx); }

ProjectOp::ProjectOp(std::unique_ptr<Operator> child, std::vector<int> cols)
    : child_(std::move(child)), columns_(std::move(cols)) {
  region_ = trace::RegionId::kProject;
  std::vector<Column> out;
  for (int c : columns_) {
    out.push_back(child_->output_schema().column(static_cast<size_t>(c)));
  }
  schema_ = Schema(std::move(out));
  buffer_.Resize(schema_.tuple_size());
}

void ProjectOp::Open(ExecContext* ctx) { child_->Open(ctx); }

const uint8_t* ProjectOp::Next(ExecContext* ctx) {
  const uint8_t* in = child_->Next(ctx);
  if (in == nullptr) return nullptr;
  trace::Tracer* t = ctx->tracer;
  if (t != nullptr) {
    t->EnterRegion(region_);
    t->Compute(CostModel::kOperatorNextOverhead);
  }
  const Schema& in_schema = child_->output_schema();
  for (size_t i = 0; i < columns_.size(); ++i) {
    const size_t c = static_cast<size_t>(columns_[i]);
    std::memcpy(buffer_.data() + schema_.offset(i), in + in_schema.offset(c),
                in_schema.column(c).width());
    if (t != nullptr) t->Compute(CostModel::kProjection);
  }
  if (t != nullptr) {
    t->Write(buffer_.data(), schema_.tuple_size(),
             CostModel::kTupleCopyPerLine);
  }
  return buffer_.data();
}

void ProjectOp::Close(ExecContext* ctx) { child_->Close(ctx); }

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
  out_buf_.Resize(schema_.tuple_size());
  null_build_.assign(build_->output_schema().tuple_size(), 0);
}

void HashJoinOp::BuildTable(ExecContext* ctx) {
  trace::Tracer* t = ctx->tracer;
  const Schema& bs = build_->output_schema();
  build_->Open(ctx);
  build_rows_.clear();
  std::vector<const uint8_t*> staged;
  while (const uint8_t* tuple = build_->Next(ctx)) {
    if (t != nullptr) t->EnterRegion(build_region_);
    // Line-aligned so the number of cache lines a build row spans — and
    // therefore the trace's event skeleton — is a function of the tuple
    // width alone, not of where the arena block landed in the heap.
    uint8_t* copy = static_cast<uint8_t*>(
        ctx->temp->Allocate(bs.tuple_size(), 64));
    std::memcpy(copy, tuple, bs.tuple_size());
    if (t != nullptr) {
      t->Write(copy, bs.tuple_size(), CostModel::kTupleCopyPerLine);
    }
    staged.push_back(copy);
  }
  build_->Close(ctx);

  size_t nbuckets = 16;
  while (nbuckets < staged.size() * 2) nbuckets <<= 1;
  buckets_.assign(nbuckets, -1);
  build_rows_.reserve(staged.size());
  for (const uint8_t* row : staged) {
    const uint64_t key =
        static_cast<uint64_t>(GetIntAt(bs, row, build_key_));
    const size_t b = HashKey(key) & (nbuckets - 1);
    if (t != nullptr) {
      t->Compute(CostModel::kHashCompute);
      t->Write(&buckets_[b], 4, CostModel::kHashProbeStep);
    }
    build_rows_.push_back(
        {row, buckets_[b]});
    buckets_[b] = static_cast<int32_t>(build_rows_.size() - 1);
  }
}

void HashJoinOp::Open(ExecContext* ctx) {
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
  std::memcpy(out_buf_.data(), probe, ps.tuple_size());
  std::memcpy(out_buf_.data() + ps.tuple_size(), build, bs.tuple_size());
  if (ctx->tracer != nullptr) {
    ctx->tracer->Write(out_buf_.data(), schema_.tuple_size(),
                       CostModel::kTupleCopyPerLine);
  }
  return out_buf_.data();
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
    const size_t b = HashKey(key) & (buckets_.size() - 1);
    if (t != nullptr) {
      t->Read(&buckets_[b], 4, CostModel::kHashProbeStep, /*dependent=*/true);
    }
    chain_ = buckets_[b];
  }
}

void HashJoinOp::Close(ExecContext* ctx) {
  probe_->Close(ctx);
  buckets_.clear();
  build_rows_.clear();
}

// ---------------------------------------------------------------------------
// NlJoin
// ---------------------------------------------------------------------------

NlJoinOp::NlJoinOp(std::unique_ptr<Operator> outer,
                   std::unique_ptr<Operator> inner, int outer_key,
                   int inner_key)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_key_(outer_key),
      inner_key_(inner_key) {
  region_ = trace::RegionId::kNlJoin;
  schema_ = Schema::Concat(outer_->output_schema(), inner_->output_schema());
  out_buf_.Resize(schema_.tuple_size());
}

void NlJoinOp::Open(ExecContext* ctx) {
  trace::Tracer* t = ctx->tracer;
  const Schema& is = inner_->output_schema();
  inner_rows_.clear();
  inner_->Open(ctx);
  while (const uint8_t* tuple = inner_->Next(ctx)) {
    if (t != nullptr) t->EnterRegion(region_);
    uint8_t* copy =
        static_cast<uint8_t*>(ctx->temp->Allocate(is.tuple_size(), 64));
    std::memcpy(copy, tuple, is.tuple_size());
    if (t != nullptr) {
      t->Write(copy, is.tuple_size(), CostModel::kTupleCopyPerLine);
    }
    inner_rows_.push_back(copy);
  }
  inner_->Close(ctx);
  outer_->Open(ctx);
  cur_outer_ = nullptr;
  inner_pos_ = 0;
}

const uint8_t* NlJoinOp::Next(ExecContext* ctx) {
  trace::Tracer* t = ctx->tracer;
  const Schema& os = outer_->output_schema();
  const Schema& is = inner_->output_schema();
  while (true) {
    if (cur_outer_ == nullptr) {
      cur_outer_ = outer_->Next(ctx);
      if (cur_outer_ == nullptr) return nullptr;
      inner_pos_ = 0;
    }
    if (t != nullptr) t->EnterRegion(region_);
    const int64_t ok = GetIntAt(os, cur_outer_, outer_key_);
    while (inner_pos_ < inner_rows_.size()) {
      const uint8_t* irow = inner_rows_[inner_pos_++];
      if (t != nullptr) {
        t->Read(irow, 8, CostModel::kPredicateEval);  // key probe
      }
      if (GetIntAt(is, irow, inner_key_) == ok) {
        std::memcpy(out_buf_.data(), cur_outer_, os.tuple_size());
        std::memcpy(out_buf_.data() + os.tuple_size(), irow,
                    is.tuple_size());
        if (t != nullptr) {
          t->Write(out_buf_.data(), schema_.tuple_size(),
                   CostModel::kTupleCopyPerLine);
        }
        return out_buf_.data();
      }
    }
    cur_outer_ = nullptr;  // inner exhausted: advance outer
  }
}

void NlJoinOp::Close(ExecContext* ctx) {
  outer_->Close(ctx);
  inner_rows_.clear();
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
    GroupState& g = groups_[h];
    if (t != nullptr) {
      // Group-state touch: hot for few groups, cold for many.
      t->Write(&g, sizeof(GroupState), CostModel::kAggUpdate,
               /*dependent=*/true);
    }
    if (g.acc.empty()) {
      g.ikeys = keys;
      g.acc.assign(aggs_.size(), 0.0);
      g.cnt.assign(aggs_.size(), 0);
      for (size_t i = 0; i < aggs_.size(); ++i) {
        if (aggs_[i].fn == AggFn::kMin) g.acc[i] = 1e300;
        if (aggs_[i].fn == AggFn::kMax) g.acc[i] = -1e300;
      }
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
  for (const auto& [h, g] : groups_) ordered_.push_back(&g);
}

const uint8_t* HashAggOp::Next(ExecContext* ctx) {
  if (emit_pos_ >= ordered_.size()) return nullptr;
  const GroupState& g = *ordered_[emit_pos_++];
  trace::Tracer* t = ctx->tracer;
  if (t != nullptr) {
    t->EnterRegion(region_);
    t->Compute(CostModel::kAggUpdate);
  }
  TupleRef ref(&schema_, out_buf_.data());
  size_t col = 0;
  for (size_t i = 0; i < group_cols_.size(); ++i, ++col) {
    ref.SetInt(col, g.ikeys[i]);
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

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

SortOp::SortOp(std::unique_ptr<Operator> child, int key_col, bool ascending)
    : child_(std::move(child)), key_col_(key_col), ascending_(ascending) {
  region_ = trace::RegionId::kSort;
}

void SortOp::Open(ExecContext* ctx) {
  trace::Tracer* t = ctx->tracer;
  const Schema& s = child_->output_schema();
  rows_.clear();
  pos_ = 0;
  child_->Open(ctx);
  while (const uint8_t* tuple = child_->Next(ctx)) {
    if (t != nullptr) t->EnterRegion(region_);
    // Line-aligned like the hash-join build rows: the number of cache
    // lines a sort row spans — and therefore the trace's event skeleton —
    // must be a function of the tuple width alone, not of where the heap
    // placed the buffer (vector-backed rows made DSS trace totals vary
    // with the sweep's builder-thread count).
    uint8_t* copy =
        static_cast<uint8_t*>(ctx->temp->Allocate(s.tuple_size(), 64));
    std::memcpy(copy, tuple, s.tuple_size());
    rows_.push_back(copy);
    if (t != nullptr) {
      t->Write(copy, s.tuple_size(), CostModel::kTupleCopyPerLine);
    }
  }
  child_->Close(ctx);
  const Schema* sp = &s;
  const int kc = key_col_;
  const bool asc = ascending_;
  std::stable_sort(rows_.begin(), rows_.end(),
                   [sp, kc, asc](const uint8_t* a, const uint8_t* b) {
                     const int64_t ka = GetIntAt(*sp, a, kc);
                     const int64_t kb = GetIntAt(*sp, b, kc);
                     return asc ? ka < kb : kb < ka;
                   });
  if (t != nullptr && !rows_.empty()) {
    // Comparison cost: n log n compares, each touching two rows.
    const double n = static_cast<double>(rows_.size());
    const uint64_t compares = static_cast<uint64_t>(n * std::max(1.0, std::log2(n)));
    for (uint64_t i = 0; i < compares; i += 16) {
      t->Compute(CostModel::kSortCompare * 16);
      const size_t a = static_cast<size_t>(i % rows_.size());
      t->Read(rows_[a], 8, 2);
    }
  }
}

const uint8_t* SortOp::Next(ExecContext* ctx) {
  if (pos_ >= rows_.size()) return nullptr;
  trace::Tracer* t = ctx->tracer;
  if (t != nullptr) {
    t->EnterRegion(region_);
    t->Read(rows_[pos_], child_->output_schema().tuple_size(), 3);
  }
  return rows_[pos_++];
}

void SortOp::Close(ExecContext* /*ctx*/) { rows_.clear(); }

uint64_t DrainOperator(Operator* op, ExecContext* ctx) {
  op->Open(ctx);
  uint64_t n = 0;
  while (op->Next(ctx) != nullptr) ++n;
  op->Close(ctx);
  return n;
}

}  // namespace stagedcmp::db
