// Figure 8 reproduction: single-row DML latency on regular vs ledger
// tables, 260-byte rows, varying number of non-clustered indexes (0-3).
//
// Paper result: ledger overhead ~12us/row for INSERT (hash only),
// ~30us/row for DELETE (hash + history insert), ~40us/row for UPDATE
// (two hashes + history insert); overhead roughly independent of the index
// count. We reproduce the ordering INSERT < DELETE < UPDATE and the
// index-count independence of the *overhead*.
//
// Each figure is the median over kRounds of the mean latency of a fixed
// number of single-row transactions (Begin, DML, Commit), each round on a
// fresh in-memory database preloaded with kPrepopulated rows. Exits 1 if
// any operation fails.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "ledger/ledger_database.h"

using namespace sqlledger;

namespace {

constexpr int64_t kPrepopulated = 4096;
// Timed transactions per figure. No more than kPrepopulated, so the DELETE
// loop never runs out of rows.
constexpr int64_t kIters = 4000;
constexpr int kRounds = 3;

enum class Op { kInsert, kUpdate, kDelete };

// 4 BIGINT columns (32 bytes) + VARCHAR payload of 228 = 260-byte rows,
// matching the paper's §4.1.2 setup.
Schema WideSchema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("a", DataType::kBigInt, false);
  s.AddColumn("b", DataType::kBigInt, false);
  s.AddColumn("c", DataType::kBigInt, false);
  s.AddColumn("payload", DataType::kVarchar, false, 228);
  s.SetPrimaryKey({0});
  return s;
}

Row WideRow(int64_t id) {
  return {Value::BigInt(id), Value::BigInt(id * 2), Value::BigInt(id * 3),
          Value::BigInt(id * 5), Value::Varchar(std::string(228, 'x'))};
}

void CheckOk(const Status& st) {
  if (st.ok()) return;
  std::fprintf(stderr, "fig8_dml_latency: %s\n", st.ToString().c_str());
  std::exit(1);
}

Transaction* BeginOrDie(LedgerDatabase* db, const char* user) {
  auto txn = db->Begin(user);
  CheckOk(txn.status());
  return *txn;
}

// A table "t" with `num_indexes` secondary indexes and rows 1..kPrepopulated.
std::unique_ptr<LedgerDatabase> OpenLoaded(bool ledger, int num_indexes) {
  LedgerDatabaseOptions options;
  options.enable_ledger = ledger;
  options.block_size = 100000;
  auto opened = LedgerDatabase::Open(std::move(options));
  CheckOk(opened.status());
  std::unique_ptr<LedgerDatabase> db = std::move(*opened);
  TableKind kind = ledger ? TableKind::kUpdateable : TableKind::kRegular;
  CheckOk(db->CreateTable("t", WideSchema(), kind));
  static const char* kIndexCols[] = {"a", "b", "c"};
  for (int i = 0; i < num_indexes; i++) {
    CheckOk(db->CreateIndex("t", std::string("idx_") + kIndexCols[i],
                            {kIndexCols[i]}, false));
  }
  Transaction* load = BeginOrDie(db.get(), "load");
  for (int64_t id = 1; id <= kPrepopulated; id++) {
    CheckOk(db->Insert(load, "t", WideRow(id)));
  }
  CheckOk(db->Commit(load));
  return db;
}

// Mean microseconds of one single-row transaction running `op`.
double MeasureUs(Op op, bool ledger, int num_indexes) {
  std::unique_ptr<LedgerDatabase> db = OpenLoaded(ledger, num_indexes);
  auto start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < kIters; i++) {
    Transaction* txn = BeginOrDie(db.get(), "bench");
    const int64_t fresh_id = kPrepopulated + 1 + i;
    switch (op) {
      case Op::kInsert:
        CheckOk(db->Insert(txn, "t", WideRow(fresh_id)));
        break;
      case Op::kUpdate: {
        Row row = WideRow(i + 1);
        row[1] = Value::BigInt(fresh_id);  // perturb an indexed non-key column
        CheckOk(db->Update(txn, "t", row));
        break;
      }
      case Op::kDelete:
        CheckOk(db->Delete(txn, "t", {Value::BigInt(i + 1)}));
        break;
    }
    CheckOk(db->Commit(txn));
  }
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
             .count() /
         kIters;
}

}  // namespace

int main() {
  struct {
    Op op;
    const char* name;
  } const kOps[] = {
      {Op::kInsert, "INSERT"}, {Op::kUpdate, "UPDATE"}, {Op::kDelete, "DELETE"}};

  std::printf("=== Fig. 8: single-row DML latency, 260-byte rows ===\n");
  std::printf("(us per single-row transaction: median of %d rounds of %lld)"
              "\n\n",
              kRounds, static_cast<long long>(kIters));
  std::printf("%-7s %7s %9s %9s %9s\n", "op", "indexes", "regular", "ledger",
              "overhead");
  for (const auto& op : kOps) {
    double overhead_sum = 0;
    for (int indexes = 0; indexes <= 3; indexes++) {
      // Regular and ledger rounds alternate, so drift hits both alike.
      double regular_us[kRounds], ledger_us[kRounds];
      for (int r = 0; r < kRounds; r++) {
        regular_us[r] = MeasureUs(op.op, false, indexes);
        ledger_us[r] = MeasureUs(op.op, true, indexes);
      }
      std::sort(regular_us, regular_us + kRounds);
      std::sort(ledger_us, ledger_us + kRounds);
      double regular = regular_us[kRounds / 2];
      double ledger = ledger_us[kRounds / 2];
      overhead_sum += ledger - regular;
      std::printf("%-7s %7d %9.2f %9.2f %9.2f\n", op.name, indexes, regular,
                  ledger, ledger - regular);
    }
    std::printf("%-7s %7s %29.2f\n", op.name, "mean", overhead_sum / 4);
  }
  std::printf("\npaper: overhead INSERT < DELETE < UPDATE, roughly flat in the "
              "index count\n");
  return 0;
}
