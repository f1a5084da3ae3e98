// Tests for the TPC-C workload: loader cardinalities, transaction effects,
// determinism, and trace-generation invariants.
#include <gtest/gtest.h>

#include "db/schema.h"
#include "workload/tpcc.h"

namespace stagedcmp::workload {
namespace {

TpccConfig TinyConfig() {
  TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.districts_per_warehouse = 3;
  cfg.customers_per_district = 60;
  cfg.items = 500;
  cfg.initial_orders_per_district = 20;
  return cfg;
}

class TpccTest : public ::testing::Test {
 protected:
  TpccTest() : cfg_(TinyConfig()) { TpccLoad(&db_, cfg_); }

  Database db_;
  TpccConfig cfg_;
};

TEST_F(TpccTest, LoaderCardinalities) {
  EXPECT_EQ(db_.table("warehouse")->heap->num_tuples(), 2u);
  EXPECT_EQ(db_.table("district")->heap->num_tuples(), 6u);
  EXPECT_EQ(db_.table("customer")->heap->num_tuples(), 2u * 3 * 60);
  EXPECT_EQ(db_.table("item")->heap->num_tuples(), 500u);
  EXPECT_EQ(db_.table("stock")->heap->num_tuples(), 2u * 500);
  EXPECT_EQ(db_.table("orders")->heap->num_tuples(), 6u * 20);
  EXPECT_GT(db_.table("order_line")->heap->num_tuples(), 6u * 20 * 5);
}

TEST_F(TpccTest, IndexesMatchHeaps) {
  EXPECT_EQ(db_.index("customer_pk")->size(),
            db_.table("customer")->heap->num_tuples());
  EXPECT_EQ(db_.index("stock_pk")->size(),
            db_.table("stock")->heap->num_tuples());
  EXPECT_EQ(db_.index("orders_pk")->size(),
            db_.table("orders")->heap->num_tuples());
  EXPECT_EQ(db_.index("order_line_pk")->size(),
            db_.table("order_line")->heap->num_tuples());
  EXPECT_TRUE(db_.index("customer_pk")->CheckInvariants().ok());
  EXPECT_TRUE(db_.index("order_line_pk")->CheckInvariants().ok());
}

TEST_F(TpccTest, KeyEncodersPreserveOrderAndDisjointness) {
  // Order keys sort by (w, d, o).
  EXPECT_LT(TpccKeys::Order(1, 1, 5), TpccKeys::Order(1, 1, 6));
  EXPECT_LT(TpccKeys::Order(1, 1, 1000), TpccKeys::Order(1, 2, 1));
  EXPECT_LT(TpccKeys::Order(1, 3, 1000), TpccKeys::Order(2, 1, 1));
  // Order-line keys nest under order ranges.
  EXPECT_LT(TpccKeys::OrderLine(1, 1, 5, 15), TpccKeys::OrderLine(1, 1, 6, 0));
  // Customer-order keys group by customer.
  EXPECT_LT(TpccKeys::CustomerOrder(1, 1, 7, 999),
            TpccKeys::CustomerOrder(1, 1, 8, 0));
}

TEST_F(TpccTest, NewOrderGrowsOrderTables) {
  TpccDriver driver(&db_, cfg_, 1, 77);
  const uint64_t orders_before = db_.table("orders")->heap->num_tuples();
  const uint64_t lines_before = db_.table("order_line")->heap->num_tuples();
  driver.Run(TpccTxnType::kNewOrder, nullptr);
  EXPECT_EQ(db_.table("orders")->heap->num_tuples(), orders_before + 1);
  const uint64_t new_lines =
      db_.table("order_line")->heap->num_tuples() - lines_before;
  EXPECT_GE(new_lines, 5u);
  EXPECT_LE(new_lines, 15u);
  EXPECT_EQ(driver.new_order_count(), 1u);
}

TEST_F(TpccTest, PaymentWritesHistory) {
  TpccDriver driver(&db_, cfg_, 2, 78);
  const uint64_t hist_before = db_.table("history")->heap->num_tuples();
  driver.Run(TpccTxnType::kPayment, nullptr);
  EXPECT_EQ(db_.table("history")->heap->num_tuples(), hist_before + 1);
}

TEST_F(TpccTest, AllTransactionTypesComplete) {
  TpccDriver driver(&db_, cfg_, 1, 79);
  for (TpccTxnType type :
       {TpccTxnType::kNewOrder, TpccTxnType::kPayment,
        TpccTxnType::kOrderStatus, TpccTxnType::kDelivery,
        TpccTxnType::kStockLevel}) {
    const trace::RegionSet regions;
    trace::Tracer tracer(&regions);
    driver.Run(type, &tracer);
    const trace::ClientTrace tr = tracer.TakeTrace();
    EXPECT_FALSE(tr.empty()) << TpccTxnName(type);
    EXPECT_EQ(tr.requests, 1u);
  }
  EXPECT_EQ(driver.transactions_executed(), 5u);
}

TEST_F(TpccTest, MixRoughlyMatchesSpec) {
  TpccDriver driver(&db_, cfg_, 1, 80);
  int counts[5] = {};
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    counts[static_cast<int>(driver.RunOne(nullptr))]++;
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.45, 0.05);  // NewOrder
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.43, 0.05);  // Payment
  for (int i = 2; i < 5; ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(n), 0.04, 0.02);
  }
}

TEST_F(TpccTest, TracesDeterministicPerSeed) {
  auto gen = [&](uint64_t seed) {
    Database db;
    TpccLoad(&db, cfg_);
    TpccDriver driver(&db, cfg_, 1, seed);
    const trace::RegionSet regions;
    trace::Tracer t(&regions);
    for (int i = 0; i < 5; ++i) driver.RunOne(&t);
    trace::ClientTrace tr = t.TakeTrace();
    // Addresses differ run-to-run (fresh arena), so compare structure:
    // kinds, counts, instruction totals.
    std::vector<uint32_t> shape;
    for (uint64_t e : trace::DecodeEvents(tr)) {
      shape.push_back((static_cast<uint32_t>(trace::UnpackKind(e)) << 16) |
                      trace::UnpackCount(e));
    }
    return std::make_pair(shape, tr.total_instructions);
  };
  EXPECT_EQ(gen(42), gen(42));
  EXPECT_NE(gen(42).first.size(), 0u);
}

TEST_F(TpccTest, DistrictNextOidConsistentWithOrdersIndex) {
  // Run a batch of transactions, then check: for every district, all order
  // ids below next_o_id exist in the orders index (the Delivery cursor
  // invariant).
  TpccDriver driver(&db_, cfg_, 1, 81);
  for (int i = 0; i < 100; ++i) driver.RunOne(nullptr);
  db::Table* district = db_.table("district");
  for (uint32_t pid : district->heap->page_ids()) {
    db::Page* page = db_.pool()->Fetch(pid, nullptr);
    for (uint32_t s = 0; s < page->n_tuples; ++s) {
      db::TupleRef d(&district->schema, page->TupleAt(s));
      const uint64_t w = static_cast<uint64_t>(d.GetInt(1));
      const uint64_t did = static_cast<uint64_t>(d.GetInt(0));
      const int64_t next_o = d.GetInt(5);
      uint64_t v;
      for (int64_t o = next_o - 3; o < next_o; ++o) {
        if (o < 1) continue;
        EXPECT_TRUE(db_.index("orders_pk")
                        ->Lookup(TpccKeys::Order(w, did,
                                                 static_cast<uint64_t>(o)),
                                 &v, nullptr))
            << "w=" << w << " d=" << did << " o=" << o;
      }
    }
  }
}

TEST(TpccScaleTest, DefaultScaleExceedsLargestL2) {
  // DESIGN.md geometry: the OLTP secondary working set must dwarf 26MB.
  Database db;
  TpccConfig cfg;  // defaults
  cfg.initial_orders_per_district = 10;  // cheaper load; static tables only
  TpccLoad(&db, cfg);
  EXPECT_GT(db.data_bytes(), 60ull << 20);
}

}  // namespace
}  // namespace stagedcmp::workload
