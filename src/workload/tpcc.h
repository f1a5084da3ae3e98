// TPC-C-style OLTP workload (schema, loader, and the five transactions).
//
// Scaled-down TPC-C: same schema shape, key structure, transaction logic
// and NURand skew as the benchmark the paper drives its OLTP results with
// (100 warehouses, 64 clients), scaled so the simulated working sets land
// in the same position relative to the 1–26 MB L2 sweep (DESIGN.md §1).
#ifndef STAGEDCMP_WORKLOAD_TPCC_H_
#define STAGEDCMP_WORKLOAD_TPCC_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "trace/tracer.h"
#include "workload/database.h"

namespace stagedcmp::workload {

struct TpccConfig {
  // Default scale keeps the *secondary* working set (~100MB: customers,
  // stock, order lines) well beyond the largest simulated L2, as the
  // paper's 100-warehouse database is to its 26MB cache, while the skewed
  // primary set (districts, hot items/stock, index upper levels) is a few
  // MB (DESIGN.md §5.4).
  uint32_t warehouses = 16;
  uint32_t districts_per_warehouse = 10;
  uint32_t customers_per_district = 1200;
  uint32_t items = 10000;
  uint32_t initial_orders_per_district = 150;
  uint64_t load_seed = 42;
};

/// Composite key encoders (fit in 64 bits, preserve range-scan order).
struct TpccKeys {
  static uint64_t Warehouse(uint64_t w) { return w; }
  static uint64_t District(uint64_t w, uint64_t d) { return (w << 8) | d; }
  static uint64_t Customer(uint64_t w, uint64_t d, uint64_t c) {
    return (w << 28) | (d << 20) | c;
  }
  static uint64_t Item(uint64_t i) { return i; }
  static uint64_t Stock(uint64_t w, uint64_t i) { return (w << 24) | i; }
  static uint64_t Order(uint64_t w, uint64_t d, uint64_t o) {
    return (w << 40) | (d << 32) | o;
  }
  static uint64_t OrderLine(uint64_t w, uint64_t d, uint64_t o, uint64_t ol) {
    return (w << 44) | (d << 36) | (o << 4) | ol;
  }
  static uint64_t CustomerOrder(uint64_t w, uint64_t d, uint64_t c,
                                uint64_t o) {
    return (w << 48) | (d << 40) | (c << 20) | o;
  }
};

/// Builds the TPC-C schema and loads initial data (untraced bulk load).
void TpccLoad(Database* db, const TpccConfig& config);

/// Transaction mix percentages (standard TPC-C).
enum class TpccTxnType : uint8_t {
  kNewOrder,
  kPayment,
  kOrderStatus,
  kDelivery,
  kStockLevel,
};

const char* TpccTxnName(TpccTxnType t);

/// One emulated terminal: issues transactions against its home warehouse
/// with the standard mix, recording memory traces through `tracer`.
class TpccDriver {
 public:
  TpccDriver(Database* db, const TpccConfig& config, uint32_t home_warehouse,
             uint64_t seed);

  /// Executes one transaction from the standard mix; returns its type.
  TpccTxnType RunOne(trace::Tracer* tracer);

  /// Executes a specific transaction type (RunOne's dispatch; tests).
  void Run(TpccTxnType type, trace::Tracer* tracer);

  /// Re-homes the terminal (traffic-shaped warehouse skew: the world's
  /// build loop points each transaction at a shaper-drawn warehouse).
  void set_home_warehouse(uint32_t w) { home_w_ = w; }
  uint32_t home_warehouse() const { return home_w_; }

  uint64_t transactions_executed() const { return executed_; }
  uint64_t new_order_count() const { return new_orders_; }

 private:
  void NewOrder(trace::Tracer* t);
  void Payment(trace::Tracer* t);
  void OrderStatus(trace::Tracer* t);
  void Delivery(trace::Tracer* t);
  void StockLevel(trace::Tracer* t);

  uint32_t RandomDistrict() {
    return static_cast<uint32_t>(rng_.Uniform(1, config_.districts_per_warehouse));
  }
  uint32_t RandomCustomer() {
    // A=255 keeps the per-district hot customer set proportional to the
    // scaled-down district size (spec uses A=1023 over 3000 customers).
    return static_cast<uint32_t>(
        rng_.NuRand(255, 1, config_.customers_per_district, 173));
  }
  uint32_t RandomItem() {
    return static_cast<uint32_t>(rng_.NuRand(8191, 1, config_.items, 7911));
  }

  Database* db_;
  TpccConfig config_;
  uint32_t home_w_;
  Rng rng_;
  uint64_t executed_ = 0;
  uint64_t new_orders_ = 0;
};

}  // namespace stagedcmp::workload

#endif  // STAGEDCMP_WORKLOAD_TPCC_H_
