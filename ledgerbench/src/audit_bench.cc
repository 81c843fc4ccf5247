// audit: a ledger shaped like Fig. 9 — five 260-byte rows per transaction
// in one updateable table, with blocks small enough for hundreds of them —
// loaded at set-up and then changed by five-row UPDATE transactions. Its
// DML is simple and light, and its ledger has many blocks and many row
// versions per transaction, so the verification, receipt and digest
// phases of the round runner (ledger_rounds.cc) weigh most here.

#include <string>
#include <vector>

#include "bench.h"

namespace ledgerbench {

using namespace sqlledger;

namespace {

constexpr const char* kTable = "fig9_rows";
constexpr int kRowsPerTxn = 5;
constexpr int kPayloadBytes = 244;  // + two BIGINTs = 260-byte rows
constexpr int64_t kBaseTxns = 2000;
constexpr int64_t kBaseRows = kBaseTxns * kRowsPerTxn;

Schema Fig9Schema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("a", DataType::kBigInt, false);
  s.AddColumn("payload", DataType::kVarchar, false, kPayloadBytes);
  s.SetPrimaryKey({0});
  return s;
}

class AuditMix : public Mix {
 public:
  const char* name() const override { return "audit"; }

  MixShape shape() const override {
    MixShape shape;
    shape.txns_per_second = 4000;
    shape.txns_per_round = 10000;
    shape.warmup_txns = 500;
    shape.tail_txns = 2000;
    shape.rate_chunk = 500;  // about a tenth of a second
    shape.block_size = 100;
    return shape;
  }

  std::vector<std::string> type_names() const override {
    return {"update"};
  }

  /// Creates the table and loads kBaseTxns five-row transactions.
  Status Setup(LedgerDatabase* db, bool ledger) override {
    db_ = db;
    expected_a_.assign(kBaseRows + 1, 0);
    next_a_ = 1;
    Status st = db->CreateTable(
        kTable, Fig9Schema(),
        ledger ? TableKind::kUpdateable : TableKind::kRegular);
    const std::string payload(kPayloadBytes, 'x');
    for (int64_t t = 0; st.ok() && t < kBaseTxns; t++) {
      Transaction* txn = Require(db->Begin("audit"), "Begin");
      for (int r = 0; st.ok() && r < kRowsPerTxn; r++) {
        const int64_t id = t * kRowsPerTxn + r + 1;
        st = db->Insert(txn, kTable,
                        {Value::BigInt(id), Value::BigInt(0),
                         Value::Varchar(payload)});
      }
      st = st.ok() ? db->Commit(txn) : st;
    }
    return st;
  }

  size_t Draw(Random*, uint64_t) override { return 0; }

  /// Updates five random distinct rows with fresh payloads; column a takes
  /// the number of the update, which Check compares with expected_a_.
  Status Run(size_t, Random* rng) override {
    std::vector<Row> rows;
    while (rows.size() < kRowsPerTxn) {
      const int64_t id = rng->UniformRange(1, kBaseRows);
      bool fresh = true;
      for (const Row& r : rows) fresh = fresh && r[0].AsInt64() != id;
      if (!fresh) continue;
      rows.push_back({Value::BigInt(id), Value::BigInt(next_a_),
                      Value::Varchar(rng->AlphaString(kPayloadBytes))});
    }
    Transaction* txn = Require(db_->Begin("audit"), "Begin");
    for (const Row& row : rows) {
      const Status st = db_->Update(txn, kTable, row);
      if (!st.ok()) {
        db_->Abort(txn);
        return st;
      }
    }
    const Status st = db_->Commit(txn);
    if (!st.ok()) return st;
    for (const Row& row : rows) expected_a_[row[0].AsInt64()] = next_a_;
    next_a_++;
    return st;
  }

  void Close() override { db_ = nullptr; }

  /// Every row holds the number of the last committed update that wrote
  /// it (0 when none did).
  void Check(LedgerDatabase* db, Report* report) override {
    Transaction* txn = Require(db->Begin("check"), "Begin");
    const auto rows = Require(db->Scan(txn, kTable), "Scan");
    Require(db->Commit(txn), "Commit");
    bool match = rows.size() == static_cast<size_t>(kBaseRows);
    for (const Row& row : rows) {
      const int64_t id = row[0].AsInt64();
      match = match && id >= 1 && id <= kBaseRows &&
              row[1].AsInt64() == expected_a_[id];
    }
    report->Check(match, "audit: every row holds its last committed update");
  }

 private:
  LedgerDatabase* db_ = nullptr;
  std::vector<int64_t> expected_a_;  // by row id
  int64_t next_a_ = 1;
};

}  // namespace

std::unique_ptr<Mix> MakeAuditMix() { return std::make_unique<AuditMix>(); }

}  // namespace ledgerbench
