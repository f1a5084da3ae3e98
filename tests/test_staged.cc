// Tests for the staged engine: packet mechanics and result equivalence
// with the Volcano executor on identical inputs.
#include <gtest/gtest.h>

#include "common/arena.h"
#include "db/exec.h"
#include "db/staged.h"
#include "db/storage.h"

namespace stagedcmp::db {
namespace {

class StagedTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 3000;

  StagedTest()
      : pool_(&arena_),
        schema_({{"id", ColumnType::kInt64, 8},
                 {"grp", ColumnType::kInt64, 8},
                 {"val", ColumnType::kDouble, 8}}),
        heap_(&pool_, 0, &schema_) {
    std::vector<uint8_t> buf(schema_.tuple_size());
    TupleRef t(&schema_, buf.data());
    for (int i = 0; i < kRows; ++i) {
      t.SetInt(0, i);
      t.SetInt(1, i % 4);
      t.SetDouble(2, i * 2.0);
      heap_.Insert(buf.data(), nullptr);
    }
    ctx_.tracer = nullptr;
    ctx_.temp = &scratch_;
  }

  Predicate LtPred(int64_t bound) {
    Predicate p;
    p.column = 0;
    p.op = Predicate::Op::kLt;
    p.ival = bound;
    return p;
  }

  std::unique_ptr<StagedPipeline> MakePipeline(uint32_t packet_tuples) {
    auto scan = std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{});
    auto source = std::make_unique<SourceStage>("src", std::move(scan),
                                                packet_tuples ? packet_tuples
                                                              : 64);
    std::vector<std::unique_ptr<Stage>> stages;
    stages.push_back(std::make_unique<FilterStage>(
        "filter", &schema_, std::vector<Predicate>{LtPred(1000)},
        packet_tuples ? packet_tuples : 64));
    return std::make_unique<StagedPipeline>(std::move(source),
                                            std::move(stages),
                                            StagePolicy::kCohort,
                                            packet_tuples ? packet_tuples : 64);
  }

  Arena arena_;
  Arena scratch_;
  BufferPool pool_;
  Schema schema_;
  HeapFile heap_;
  ExecContext ctx_;
};

TEST_F(StagedTest, PacketAppendAndRead) {
  PacketPool pool(&scratch_);
  Packet p(&schema_, 8, &pool);
  EXPECT_FALSE(p.Full());
  for (int i = 0; i < 8; ++i) {
    TupleRef t(&schema_, p.Append());
    t.SetInt(0, i);
  }
  EXPECT_TRUE(p.Full());
  EXPECT_EQ(p.count(), 8u);
  for (uint32_t i = 0; i < 8; ++i) {
    TupleRef t(&schema_, const_cast<uint8_t*>(p.Row(i)));
    EXPECT_EQ(t.GetInt(0), static_cast<int64_t>(i));
  }
}

TEST_F(StagedTest, DefaultPacketSizeFitsHalfL1D) {
  const uint32_t n = DefaultPacketTuples(schema_.tuple_size());
  EXPECT_GT(n, 0u);
  EXPECT_LE(n * schema_.tuple_size(), 32u * 1024);
}

TEST_F(StagedTest, DefaultPacketSizeClampsForHugeTuples) {
  EXPECT_EQ(DefaultPacketTuples(100000), 1u);
  EXPECT_LE(DefaultPacketTuples(1), 512u);
}

TEST_F(StagedTest, PipelineMatchesVolcanoFilterCount) {
  auto pipeline = MakePipeline(64);
  const uint64_t staged_rows = pipeline->Run(&ctx_);

  // The Volcano plans filter inside the scan (SeqScanOp's predicates).
  SeqScanOp scan(&heap_, {LtPred(1000)});
  EXPECT_EQ(staged_rows, DrainOperator(&scan, &ctx_));
  EXPECT_EQ(staged_rows, 1000u);
}

TEST_F(StagedTest, TuplePacketsSameResults) {
  // 1-tuple packets (Volcano-like control flow) give identical answers.
  EXPECT_EQ(MakePipeline(1)->Run(&ctx_), MakePipeline(128)->Run(&ctx_));
}

TEST_F(StagedTest, AggStageMatchesHashAgg) {
  auto scan = std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{});
  auto source = std::make_unique<SourceStage>("src", std::move(scan), 64);
  std::vector<std::unique_ptr<Stage>> stages;
  auto agg = std::make_unique<AggStage>(
      "agg", &schema_, std::vector<int>{1},
      std::vector<AggSpec>{{AggFn::kSum, 2, true, "sum_val"},
                           {AggFn::kCount, -1, false, "cnt"}});
  AggStage* agg_raw = agg.get();
  stages.push_back(std::move(agg));
  StagedPipeline pipeline(std::move(source), std::move(stages),
                          StagePolicy::kCohort, 64);
  pipeline.Run(&ctx_);
  EXPECT_EQ(agg_raw->num_groups(), 4u);

  // Reference: Volcano HashAgg on the same data.
  auto scan2 = std::make_unique<SeqScanOp>(&heap_, std::vector<Predicate>{});
  HashAggOp ref(std::move(scan2), {1},
                {{AggFn::kSum, 2, true, "sum_val"},
                 {AggFn::kCount, -1, false, "cnt"}});
  ref.Open(&ctx_);
  std::map<int64_t, double> ref_sums;
  while (const uint8_t* t = ref.Next(&ctx_)) {
    TupleRef r(&ref.output_schema(), const_cast<uint8_t*>(t));
    ref_sums[r.GetInt(0)] = r.GetDouble(1);
  }
  ref.Close(&ctx_);

  for (const auto& row : agg_raw->Results()) {
    ASSERT_EQ(row.size(), 3u);  // grp, sum, count
    const int64_t g = static_cast<int64_t>(row[0]);
    EXPECT_DOUBLE_EQ(row[1], ref_sums[g]);
    EXPECT_DOUBLE_EQ(row[2], kRows / 4.0);
  }
}

TEST_F(StagedTest, PacketsProcessedScalesWithGranularity) {
  auto cohort = MakePipeline(128);
  cohort->Run(&ctx_);
  auto tuple = MakePipeline(1);
  tuple->Run(&ctx_);
  // Per-tuple packets mean ~128x more scheduling operations.
  EXPECT_GT(tuple->packets_processed(), cohort->packets_processed() * 16);
}

TEST_F(StagedTest, CohortTraceHasFewerRegionSwitches) {
  // The mechanism behind the staged-L1I claim: count compute events that
  // jump between code regions per tuple processed.
  auto count_jumps = [&](uint32_t packet_tuples) {
    const trace::RegionSet regions;
    trace::Tracer tracer(&regions);
    ExecContext ctx;
    ctx.tracer = &tracer;
    Arena scratch(1 << 20);
    ctx.temp = &scratch;
    MakePipeline(packet_tuples)->Run(&ctx);
    tracer.FlushCompute();
    uint64_t jumps = 0, prev_region = 0;
    for (uint64_t e : trace::DecodeEvents(tracer.TakeTrace())) {
      if (trace::UnpackKind(e) != trace::EventKind::kCompute) continue;
      const uint64_t region = trace::UnpackAddr(e) >> 16;  // coarse bucket
      if (region != prev_region) ++jumps;
      prev_region = region;
    }
    return jumps;
  };
  EXPECT_GT(count_jumps(1), count_jumps(128) * 4);
}

}  // namespace
}  // namespace stagedcmp::db
