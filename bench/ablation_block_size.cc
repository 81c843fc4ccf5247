// §3.3.1 ablation: the Database Ledger block size. The paper picks 100K
// transactions per block so that block-hash computation and block-row
// storage amortize over many transactions, while Merkle proofs keep
// per-transaction verification cheap.
//
// This bench sweeps the block size and reports commit latency, the blocks
// closed, and the per-transaction proof size, exposing the trade-off the
// paper describes. Each figure is the mean of a fixed number of calls on an
// in-memory database. Exits 1 if any operation fails.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "ledger/ledger_database.h"

using namespace sqlledger;

namespace {

// Timed single-row commits per block size: enough to close blocks of 4096.
constexpr int64_t kCommits = 40000;
// Timed ProveTransaction calls per block size.
constexpr int kProofs = 1000;

Schema SmallSchema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("payload", DataType::kVarchar, false, 64);
  s.SetPrimaryKey({0});
  return s;
}

void CheckOk(const Status& st) {
  if (st.ok()) return;
  std::fprintf(stderr, "ablation_block_size: %s\n", st.ToString().c_str());
  std::exit(1);
}

std::unique_ptr<LedgerDatabase> OpenWithBlockSize(uint64_t block_size) {
  LedgerDatabaseOptions options;
  options.block_size = block_size;
  auto opened = LedgerDatabase::Open(std::move(options));
  CheckOk(opened.status());
  std::unique_ptr<LedgerDatabase> db = std::move(*opened);
  CheckOk(db->CreateTable("t", SmallSchema(), TableKind::kUpdateable));
  return db;
}

// Commits one single-row insert; returns the transaction's id.
uint64_t CommitOneInsert(LedgerDatabase* db, int64_t id,
                         const std::string& payload) {
  auto txn = db->Begin("bench");
  CheckOk(txn.status());
  uint64_t txn_id = (*txn)->id();
  CheckOk(db->Insert(*txn, "t", {Value::BigInt(id), Value::Varchar(payload)}));
  CheckOk(db->Commit(*txn));
  return txn_id;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  std::printf("=== §3.3.1 ablation: ledger block size ===\n\n");

  // Commit latency as a function of the ledger block size.
  std::printf("commit latency (mean of %lld single-row commits)\n",
              static_cast<long long>(kCommits));
  std::printf("%10s %10s %14s\n", "block_size", "commit_us", "blocks_closed");
  const std::string payload(64, 'p');
  for (uint64_t block_size : {16, 256, 4096, 65536}) {
    std::unique_ptr<LedgerDatabase> db = OpenWithBlockSize(block_size);
    auto start = std::chrono::steady_clock::now();
    for (int64_t id = 0; id < kCommits; id++) {
      CommitOneInsert(db.get(), id, payload);
    }
    double commit_us = MicrosSince(start) / kCommits;
    std::printf("%10llu %10.2f %14llu\n",
                static_cast<unsigned long long>(block_size), commit_us,
                static_cast<unsigned long long>(
                    db->database_ledger()->closed_block_count()));
  }

  // Merkle proof size (receipt size driver) as a function of block size:
  // fill exactly one block and prove its middle transaction.
  std::printf("\ninclusion proof (mean of %d ProveTransaction calls)\n",
              kProofs);
  std::printf("%10s %10s %12s %12s\n", "block_size", "prove_us",
              "proof_steps", "proof_bytes");
  for (uint64_t block_size : {16, 256, 1024}) {
    std::unique_ptr<LedgerDatabase> db = OpenWithBlockSize(block_size);
    uint64_t target_txn = 0;
    for (uint64_t i = 0; i < block_size; i++) {
      uint64_t txn_id =
          CommitOneInsert(db.get(), static_cast<int64_t>(i) + 1000, "x");
      if (i == block_size / 2) target_txn = txn_id;
    }
    CheckOk(db->GenerateDigest().status());
    size_t proof_steps = 0;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kProofs; i++) {
      auto proof = db->database_ledger()->ProveTransaction(target_txn);
      CheckOk(proof.status());
      proof_steps = proof->steps.size();
    }
    double prove_us = MicrosSince(start) / kProofs;
    std::printf("%10llu %10.2f %12zu %12zu\n",
                static_cast<unsigned long long>(block_size), prove_us,
                proof_steps, proof_steps * 33);
  }
  return 0;
}
