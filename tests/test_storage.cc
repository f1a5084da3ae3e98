// Tests for schema/tuple layout and the storage manager.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/arena.h"
#include "db/schema.h"
#include "db/storage.h"
#include "trace/tracer.h"

namespace stagedcmp::db {
namespace {

Schema TestSchema() {
  return Schema({{"id", ColumnType::kInt64, 8},
                 {"val", ColumnType::kDouble, 8},
                 {"name", ColumnType::kChar, 20}});
}

/// The CHAR column `col` of a tuple up to its first NUL, at most its width.
std::string StringAt(const Schema& s, const std::vector<uint8_t>& tuple,
                     size_t col) {
  const char* p = reinterpret_cast<const char*>(tuple.data() + s.offset(col));
  return std::string(p, strnlen(p, s.column(col).length));
}

TEST(SchemaTest, OffsetsAndSize) {
  Schema s = TestSchema();
  EXPECT_EQ(s.offset(0), 0u);
  EXPECT_EQ(s.offset(1), 8u);
  EXPECT_EQ(s.offset(2), 16u);
  EXPECT_EQ(s.tuple_size(), 40u);  // 36 rounded up to 8
}

TEST(SchemaTest, ConcatPreservesColumns) {
  Schema s = Schema::Concat(TestSchema(), TestSchema());
  EXPECT_EQ(s.num_columns(), 6u);
  EXPECT_EQ(s.tuple_size(), 72u);  // 2x36 bytes of columns, 8-aligned
}

TEST(TupleRefTest, RoundtripAllTypes) {
  Schema s = TestSchema();
  std::vector<uint8_t> buf(s.tuple_size());
  TupleRef t(&s, buf.data());
  t.SetInt(0, -12345);
  t.SetDouble(1, 3.25);
  t.SetString(2, "hello");
  EXPECT_EQ(t.GetInt(0), -12345);
  EXPECT_DOUBLE_EQ(t.GetDouble(1), 3.25);
  EXPECT_EQ(StringAt(s, buf, 2), "hello");
}

TEST(TupleRefTest, StringTruncatedToWidth) {
  Schema s = TestSchema();
  std::vector<uint8_t> buf(s.tuple_size());
  TupleRef t(&s, buf.data());
  t.SetString(2, std::string(100, 'x'));
  EXPECT_EQ(StringAt(s, buf, 2), std::string(20, 'x'));
}

TEST(RidTest, EncodeDecodeRoundtrip) {
  Rid r{123456, 789};
  Rid d = Rid::Decode(r.Encode());
  EXPECT_EQ(d, r);
}

class StorageTest : public ::testing::Test {
 protected:
  StorageTest()
      : pool_(&arena_), schema_(TestSchema()),
        heap_(&pool_, 0, &schema_) {}

  Arena arena_;
  BufferPool pool_;
  Schema schema_;
  HeapFile heap_;
};

TEST_F(StorageTest, InsertGetRoundtrip) {
  std::vector<uint8_t> buf(schema_.tuple_size());
  TupleRef t(&schema_, buf.data());
  for (int i = 0; i < 1000; ++i) {
    t.SetInt(0, i);
    t.SetDouble(1, i * 0.5);
    heap_.Insert(buf.data(), nullptr);
  }
  EXPECT_EQ(heap_.num_tuples(), 1000u);
  // Re-read via RIDs reconstructed from page layout.
  uint64_t i = 0;
  for (uint32_t pid : heap_.page_ids()) {
    Page* p = pool_.Fetch(pid, nullptr);
    for (uint32_t slot = 0; slot < p->n_tuples; ++slot, ++i) {
      TupleRef got(&schema_, heap_.Get(Rid{pid, slot}, nullptr));
      EXPECT_EQ(got.GetInt(0), static_cast<int64_t>(i));
    }
  }
  EXPECT_EQ(i, 1000u);
}

TEST_F(StorageTest, PageCapacityMatchesTupleSize) {
  std::vector<uint8_t> buf(schema_.tuple_size());
  Rid first = heap_.Insert(buf.data(), nullptr);
  Page* p = pool_.Fetch(first.page, nullptr);
  EXPECT_EQ(p->capacity, kPageSize / schema_.tuple_size());
  // Fill past one page: new page allocated.
  for (uint32_t i = 1; i <= p->capacity; ++i) heap_.Insert(buf.data(), nullptr);
  EXPECT_EQ(heap_.page_ids().size(), 2u);
}

TEST_F(StorageTest, TracedAccessEmitsEvents) {
  std::vector<uint8_t> buf(schema_.tuple_size());
  Rid rid = heap_.Insert(buf.data(), nullptr);
  const trace::RegionSet regions;
  trace::Tracer tracer(&regions);
  heap_.Get(rid, &tracer);
  tracer.FlushCompute();
  const trace::ClientTrace tr = tracer.TakeTrace();
  EXPECT_FALSE(tr.empty());
  EXPECT_GT(tr.total_instructions, 0u);
}

TEST_F(StorageTest, FramesAre64ByteAligned) {
  std::vector<uint8_t> buf(schema_.tuple_size());
  Rid rid = heap_.Insert(buf.data(), nullptr);
  Page* p = pool_.Fetch(rid.page, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
}

}  // namespace
}  // namespace stagedcmp::db
