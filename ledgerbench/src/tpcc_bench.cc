// tpcc: the paper's update-intensive worst case (Fig. 7). The TpccWorkload
// mix (New-Order / Payment / Delivery / Order-Status / Stock-Level at
// 45/43/4/4/4) runs in one session with the four order tables as
// updateable ledger tables and the WAL appended without fsync. The round
// runner (ledger_rounds.cc) does the rest.

#include <algorithm>
#include <cmath>
#include <map>

#include "bench.h"
#include "workload/tpcc.h"

namespace ledgerbench {

using namespace sqlledger;

namespace {

enum TxnType { kNewOrder, kPayment, kDelivery, kOrderStatus, kStockLevel };

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

class TpccMix : public Mix {
 public:
  const char* name() const override { return "tpcc"; }

  MixShape shape() const override {
    MixShape shape;
    shape.txns_per_second = 3000;
    shape.txns_per_round = 6000;
    shape.warmup_txns = 1000;
    shape.tail_txns = 2000;
    shape.rate_chunk = 1000;      // about a tenth of a second
    shape.block_size = 100000;    // the paper's block size
    return shape;
  }

  std::vector<std::string> type_names() const override {
    return {"new_order", "payment", "delivery", "order_status",
            "stock_level"};
  }

  Status Setup(LedgerDatabase* db, bool ledger) override {
    TpccConfig config;
    config.warehouses = 1;
    config.districts_per_warehouse = 10;
    config.customers_per_district = 1000;
    config.items = 30000;
    config.ledger_tables = ledger;
    workload_ = std::make_unique<TpccWorkload>(db, config);
    new_orders_ = 0;
    return workload_->Setup();
  }

  /// The TpccWorkload::RunTransaction mix, drawn here so each type can be
  /// timed on its own.
  size_t Draw(Random* rng, uint64_t) override {
    const uint64_t roll = rng->Uniform(100);
    if (roll < 45) return kNewOrder;
    if (roll < 88) return kPayment;
    if (roll < 92) return kDelivery;
    if (roll < 96) return kOrderStatus;
    return kStockLevel;
  }

  Status Run(size_t type, Random* rng) override {
    Status st;
    switch (type) {
      case kNewOrder:
        st = workload_->NewOrder(rng);
        if (st.ok()) new_orders_++;
        return st;
      case kPayment:
        return workload_->Payment(rng);
      case kDelivery:
        return workload_->Delivery(rng);
      case kOrderStatus:
        return workload_->OrderStatus(rng);
      case kStockLevel:
        return workload_->StockLevel(rng);
    }
    return Status::InvalidArgument("unknown transaction type");
  }

  void Close() override { workload_.reset(); }

  /// The TPC-C consistency conditions this schema can state: W_YTD equals
  /// the sum of its districts' D_YTD; D_NEXT_O_ID - 1 is the district's
  /// largest O_ID; the order-line count equals the sum of O_OL_CNT. Plus
  /// the benchmark's own count of committed New-Orders.
  void Check(LedgerDatabase* db, Report* report) override {
    Transaction* txn = Require(db->Begin("check"), "Begin");
    const auto warehouses = Require(db->Scan(txn, "warehouse"), "Scan");
    const auto districts = Require(db->Scan(txn, "district"), "Scan");
    const auto orders = Require(db->Scan(txn, "orders"), "Scan");
    const auto order_lines = Require(db->Scan(txn, "order_line"), "Scan");
    Require(db->Commit(txn), "Commit");

    std::map<int64_t, double> district_ytd;
    std::map<std::pair<int64_t, int64_t>, int64_t> max_o_id;
    for (const Row& d : districts) {
      district_ytd[d[0].AsInt64()] += d[4].double_value();
      max_o_id[{d[0].AsInt64(), d[1].AsInt64()}] = 0;
    }
    for (const Row& w : warehouses) {
      const int64_t w_id = w[0].AsInt64();
      report->Check(NearlyEqual(w[2].double_value(), district_ytd[w_id]),
                    "tpcc: W_YTD = sum(D_YTD) for warehouse " +
                        std::to_string(w_id));
    }
    int64_t ol_cnt_sum = 0;
    for (const Row& o : orders) {
      int64_t& m = max_o_id[{o[0].AsInt64(), o[1].AsInt64()}];
      m = std::max(m, o[2].AsInt64());
      ol_cnt_sum += o[6].AsInt64();
    }
    for (const Row& d : districts) {
      const int64_t next_o_id = d[3].AsInt64();
      report->Check(
          next_o_id - 1 == max_o_id[{d[0].AsInt64(), d[1].AsInt64()}],
          "tpcc: D_NEXT_O_ID - 1 = max(O_ID) for district " +
              std::to_string(d[1].AsInt64()));
    }
    report->Check(static_cast<int64_t>(order_lines.size()) == ol_cnt_sum,
                  "tpcc: order-line count = sum(O_OL_CNT)");
    report->Check(orders.size() == new_orders_,
                  "tpcc: orders = committed New-Orders");
  }

 private:
  std::unique_ptr<TpccWorkload> workload_;
  uint64_t new_orders_ = 0;
};

}  // namespace

std::unique_ptr<Mix> MakeTpccMix() { return std::make_unique<TpccMix>(); }

}  // namespace ledgerbench
