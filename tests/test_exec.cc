// Tests for the Volcano operators: correctness against hand-computed and
// reference results on a synthetic table.
#include <gtest/gtest.h>

#include <map>

#include "common/arena.h"
#include "db/exec.h"
#include "db/storage.h"

namespace stagedcmp::db {
namespace {

// Synthetic table: id [0..n), grp = id % 10, val = id * 1.5.
class ExecTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 2000;

  ExecTest()
      : pool_(&arena_),
        schema_({{"id", ColumnType::kInt64, 8},
                 {"grp", ColumnType::kInt64, 8},
                 {"val", ColumnType::kDouble, 8}}),
        heap_(&pool_, 0, &schema_) {
    std::vector<uint8_t> buf(schema_.tuple_size());
    TupleRef t(&schema_, buf.data());
    for (int i = 0; i < kRows; ++i) {
      t.SetInt(0, i);
      t.SetInt(1, i % 10);
      t.SetDouble(2, i * 1.5);
      heap_.Insert(buf.data(), nullptr);
    }
    ctx_.tracer = nullptr;
    ctx_.temp = &scratch_;
  }

  Arena arena_;
  Arena scratch_;
  BufferPool pool_;
  Schema schema_;
  HeapFile heap_;
  ExecContext ctx_;
};

TEST_F(ExecTest, SeqScanCountsAllRows) {
  SeqScanOp scan(&heap_, {});
  EXPECT_EQ(DrainOperator(&scan, &ctx_), static_cast<uint64_t>(kRows));
}

TEST_F(ExecTest, SeqScanWithPredicate) {
  Predicate p;
  p.column = 0;
  p.op = Predicate::Op::kLt;
  p.ival = 100;
  SeqScanOp scan(&heap_, {p});
  EXPECT_EQ(DrainOperator(&scan, &ctx_), 100u);
}

TEST_F(ExecTest, PredicateOperators) {
  struct Case {
    Predicate::Op op;
    int64_t a, b;
    uint64_t expect;
  };
  const Case cases[] = {
      {Predicate::Op::kEq, 5, 0, 1},
      {Predicate::Op::kNe, 5, 0, kRows - 1},
      {Predicate::Op::kLe, 9, 0, 10},
      {Predicate::Op::kGt, 1989, 0, 10},
      {Predicate::Op::kGe, 1990, 0, 10},
      {Predicate::Op::kBetween, 10, 19, 10},
  };
  for (const Case& c : cases) {
    Predicate p;
    p.column = 0;
    p.op = c.op;
    p.ival = c.a;
    p.ival2 = c.b;
    SeqScanOp scan(&heap_, {p});
    EXPECT_EQ(DrainOperator(&scan, &ctx_), c.expect)
        << static_cast<int>(c.op);
  }
}

TEST_F(ExecTest, DoublePredicate) {
  Predicate p;
  p.column = 2;
  p.op = Predicate::Op::kLt;
  p.is_double = true;
  p.dval = 15.0;  // val = id*1.5 < 15 -> id < 10
  SeqScanOp scan(&heap_, {p});
  EXPECT_EQ(DrainOperator(&scan, &ctx_), 10u);
}

TEST_F(ExecTest, HashJoinInnerMatchesReference) {
  // Self-join on grp: each row matches kRows/10 rows -> kRows * 200 pairs.
  auto build = std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{});
  auto probe = std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{});
  HashJoinOp join(std::move(build), std::move(probe), 1, 1);
  EXPECT_EQ(DrainOperator(&join, &ctx_),
            static_cast<uint64_t>(kRows) * (kRows / 10));
}

TEST_F(ExecTest, HashJoinKeyedJoinCorrectPairs) {
  // Join on id (unique): exactly kRows pairs, with matching ids.
  auto build = std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{});
  auto probe = std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{});
  HashJoinOp join(std::move(build), std::move(probe), 0, 0);
  join.Open(&ctx_);
  uint64_t n = 0;
  const size_t probe_cols = schema_.num_columns();
  while (const uint8_t* t = join.Next(&ctx_)) {
    TupleRef ref(&join.output_schema(), const_cast<uint8_t*>(t));
    EXPECT_EQ(ref.GetInt(0), ref.GetInt(probe_cols));  // ids equal
    ++n;
  }
  join.Close(&ctx_);
  EXPECT_EQ(n, static_cast<uint64_t>(kRows));
}

TEST_F(ExecTest, LeftOuterJoinEmitsUnmatchedProbeRows) {
  // Build side: only ids < 100. Probe: everything. Unmatched probe rows
  // must still appear once.
  Predicate p;
  p.column = 0;
  p.op = Predicate::Op::kLt;
  p.ival = 100;
  auto build = std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{p});
  auto probe = std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{});
  HashJoinOp join(std::move(build), std::move(probe), 0, 0,
                  HashJoinOp::Type::kLeftOuter);
  EXPECT_EQ(DrainOperator(&join, &ctx_), static_cast<uint64_t>(kRows));
}

TEST_F(ExecTest, HashJoinBoundedSelfJoinOnGroup) {
  // ids < 100 fall into 10 groups of 10 rows, so the self-join on grp
  // gives 10 * 10 * 10 = 1000 pairs.
  Predicate p;
  p.column = 0;
  p.op = Predicate::Op::kLt;
  p.ival = 100;
  auto build = std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{p});
  auto probe = std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{p});
  HashJoinOp join(std::move(build), std::move(probe), 1, 1);
  EXPECT_EQ(DrainOperator(&join, &ctx_), 1000u);
}

TEST_F(ExecTest, HashJoinEmptyBuildYieldsNothing) {
  Predicate never;
  never.column = 0;
  never.op = Predicate::Op::kLt;
  never.ival = 0;
  auto build =
      std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{never});
  auto probe = std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{});
  HashJoinOp join(std::move(build), std::move(probe), 0, 0);
  EXPECT_EQ(DrainOperator(&join, &ctx_), 0u);
}

TEST_F(ExecTest, HashAggSumCountAvgPerGroup) {
  auto scan = std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{});
  HashAggOp agg(std::move(scan), {1},
                {{AggFn::kCount, -1, false, "cnt"},
                 {AggFn::kSum, 0, false, "sum_id"},
                 {AggFn::kAvg, 2, true, "avg_val"},
                 {AggFn::kMin, 0, false, "min_id"},
                 {AggFn::kMax, 0, false, "max_id"}});
  agg.Open(&ctx_);
  int groups = 0;
  while (const uint8_t* t = agg.Next(&ctx_)) {
    TupleRef ref(&agg.output_schema(), const_cast<uint8_t*>(t));
    const int64_t g = ref.GetInt(0);
    EXPECT_EQ(ref.GetInt(1), kRows / 10);  // count per group
    // sum of ids in group g: sum over k of (10k+g), k in [0,200)
    const int64_t expect_sum = 10 * (199 * 200 / 2) + g * 200;
    EXPECT_EQ(ref.GetInt(2), expect_sum);
    EXPECT_DOUBLE_EQ(ref.GetDouble(3),
                     static_cast<double>(expect_sum) * 1.5 / 200.0);
    EXPECT_EQ(ref.GetInt(4), g);              // min id in group
    EXPECT_EQ(ref.GetInt(5), 1990 + g);       // max id in group
    ++groups;
  }
  agg.Close(&ctx_);
  EXPECT_EQ(groups, 10);
}

TEST_F(ExecTest, HashAggNoGroupsSingleRow) {
  auto scan = std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{});
  HashAggOp agg(std::move(scan), {},
                {{AggFn::kSum, 2, true, "total"}});
  agg.Open(&ctx_);
  const uint8_t* t = agg.Next(&ctx_);
  ASSERT_NE(t, nullptr);
  TupleRef ref(&agg.output_schema(), const_cast<uint8_t*>(t));
  const double expect = 1.5 * (kRows - 1) * kRows / 2;
  EXPECT_DOUBLE_EQ(ref.GetDouble(0), expect);
  EXPECT_EQ(agg.Next(&ctx_), nullptr);
  agg.Close(&ctx_);
}

TEST_F(ExecTest, OperatorsReopenCleanly) {
  Predicate p;
  p.column = 0;
  p.op = Predicate::Op::kLt;
  p.ival = 10;
  SeqScanOp scan(&heap_, {p});
  EXPECT_EQ(DrainOperator(&scan, &ctx_), 10u);
  EXPECT_EQ(DrainOperator(&scan, &ctx_), 10u);  // second run identical
}

}  // namespace
}  // namespace stagedcmp::db
