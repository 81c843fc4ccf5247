// tpce: the paper's representative read-heavy workload (Fig. 7). The
// TpceWorkload mix (77% reads) runs in one session over 33 updateable
// ledger tables, with the WAL appended without fsync. The round runner
// (ledger_rounds.cc) does the rest.

#include <string>

#include "bench.h"
#include "workload/tpce.h"

namespace ledgerbench {

using namespace sqlledger;

namespace {

enum TxnType {
  kTradeOrder,
  kTradeResult,
  kMarketFeed,
  kTradeStatus,
  kCustomerPosition,
  kMarketWatch,
  kSecurityDetail,
};

class TpceMix : public Mix {
 public:
  const char* name() const override { return "tpce"; }

  MixShape shape() const override {
    MixShape shape;
    shape.txns_per_second = 9600;
    shape.txns_per_round = 18000;
    shape.warmup_txns = 2000;
    shape.tail_txns = 2000;
    shape.rate_chunk = 1000;      // about a tenth of a second
    shape.block_size = 100000;    // the paper's block size
    return shape;
  }

  std::vector<std::string> type_names() const override {
    return {"trade_order",  "trade_result", "market_feed",
            "trade_status", "customer_pos", "market_watch",
            "security_detail"};
  }

  Status Setup(LedgerDatabase* db, bool ledger) override {
    TpceConfig config;
    config.customers = 20000;
    config.accounts_per_customer = 2;
    config.securities = 100;
    config.brokers = 10;
    config.ledger_tables = ledger;
    workload_ = std::make_unique<TpceWorkload>(db, config);
    trade_orders_ = 0;
    return workload_->Setup();
  }

  /// The TpceWorkload::RunTransaction mix, drawn here so each type can be
  /// timed on its own. A round starts with Trade-Orders so that no
  /// Trade-Result finds an empty trade table (it would return without
  /// committing).
  size_t Draw(Random* rng, uint64_t n) override {
    const uint64_t roll = rng->Uniform(100);
    if (n < 10 || roll < 10) return kTradeOrder;
    if (roll < 20) return kTradeResult;
    if (roll < 23) return kMarketFeed;
    if (roll < 42) return kTradeStatus;
    if (roll < 55) return kCustomerPosition;
    if (roll < 78) return kMarketWatch;
    return kSecurityDetail;
  }

  Status Run(size_t type, Random* rng) override {
    Status st;
    switch (type) {
      case kTradeOrder:
        st = workload_->TradeOrder(rng);
        if (st.ok()) trade_orders_++;
        return st;
      case kTradeResult:
        return workload_->TradeResult(rng);
      case kMarketFeed:
        return workload_->MarketFeed(rng);
      case kTradeStatus:
        return workload_->TradeStatus(rng);
      case kCustomerPosition:
        return workload_->CustomerPosition(rng);
      case kMarketWatch:
        return workload_->MarketWatch(rng);
      case kSecurityDetail:
        return workload_->SecurityDetail(rng);
    }
    return Status::InvalidArgument("unknown transaction type");
  }

  void Close() override { workload_.reset(); }

  /// The population starts with no trades. Every committed Trade-Order
  /// adds one trade and one "SBMT" history row; every trade a Trade-Result
  /// completed has status "CMPT" and added one history, settlement and
  /// cash row.
  void Check(LedgerDatabase* db, Report* report) override {
    Transaction* txn = Require(db->Begin("check"), "Begin");
    const auto trades = Require(db->Scan(txn, "trade"), "Scan trade");
    Require(db->Commit(txn), "Commit");
    uint64_t completed = 0;
    bool statuses_known = true;
    for (const Row& t : trades) {
      const std::string& status = t[6].string_value();
      if (status == "CMPT") completed++;
      statuses_known =
          statuses_known && (status == "CMPT" || status == "SBMT");
    }
    report->Check(statuses_known, "tpce: every trade is SBMT or CMPT");
    report->Check(trades.size() == trade_orders_,
                  "tpce: trades = committed Trade-Orders");
    report->Check(
        CountRows(db, "trade_history") == trade_orders_ + completed,
        "tpce: trade_history = Trade-Orders + completed trades");
    report->Check(CountRows(db, "settlement") == completed,
                  "tpce: settlement = completed trades");
    report->Check(CountRows(db, "cash_transaction") == completed,
                  "tpce: cash_transaction = completed trades");
  }

 private:
  std::unique_ptr<TpceWorkload> workload_;
  uint64_t trade_orders_ = 0;
};

}  // namespace

std::unique_ptr<Mix> MakeTpceMix() { return std::make_unique<TpceMix>(); }

}  // namespace ledgerbench
