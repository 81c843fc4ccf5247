// Durability and recovery tests: reopen after clean shutdown, crash
// recovery from checkpoint + WAL tail (paper §3.3.2), digest stability
// across recovery, and point-in-time-restore incarnations (paper §3.6).

#include <gtest/gtest.h>

#include <fstream>

#include "ledger/digest_store.h"
#include "ledger/verifier.h"
#include "test_util.h"

namespace sqlledger {
namespace {

Value VB(int64_t v) { return Value::BigInt(v); }
Value VS(const std::string& s) { return Value::Varchar(s); }

class RecoveryTest : public TempDirTest {
 protected:
  LedgerDatabaseOptions MakeOptions(const std::string& subdir = "db") {
    LedgerDatabaseOptions options;
    options.data_dir = Path(subdir);
    options.database_id = "recoverydb";
    options.block_size = 4;
    options.clock = [this] { return ++clock_; };
    return options;
  }

  std::unique_ptr<LedgerDatabase> Open(const std::string& subdir = "db") {
    auto db = LedgerDatabase::Open(MakeOptions(subdir));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  int64_t clock_ = 1000000;
};

TEST_F(RecoveryTest, ReopenAfterCheckpointRestoresEverything) {
  DatabaseDigest digest;
  {
    auto db = Open();
    ASSERT_TRUE(db->CreateTable("accounts", AccountSchema(),
                                TableKind::kUpdateable)
                    .ok());
    for (int i = 0; i < 6; i++) {
      auto txn = db->Begin("app");
      ASSERT_TRUE(db->Insert(*txn, "accounts",
                             {VS("acct" + std::to_string(i)), VB(i)})
                      .ok());
      ASSERT_TRUE(db->Commit(*txn).ok());
    }
    auto d = db->GenerateDigest();
    ASSERT_TRUE(d.ok());
    digest = *d;
    ASSERT_TRUE(db->Checkpoint().ok());
  }

  auto db = Open();
  auto txn = db->Begin("app");
  auto rows = db->Scan(*txn, "accounts");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 6u);
  ASSERT_TRUE(db->Commit(*txn).ok());

  // The pre-restart digest still verifies against the recovered state.
  auto report = VerifyLedger(db.get(), {digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(RecoveryTest, CrashRecoveryReplaysWalTail) {
  DatabaseDigest digest;
  uint64_t committed;
  {
    auto db = Open();
    ASSERT_TRUE(db->CreateTable("accounts", AccountSchema(),
                                TableKind::kUpdateable)
                    .ok());
    // CreateTable checkpoints; everything after lives only in the WAL.
    for (int i = 0; i < 9; i++) {
      auto txn = db->Begin("app");
      ASSERT_TRUE(db->Insert(*txn, "accounts",
                             {VS("acct" + std::to_string(i)), VB(i)})
                      .ok());
      ASSERT_TRUE(db->Commit(*txn).ok());
    }
    auto txn = db->Begin("app");
    ASSERT_TRUE(db->Update(*txn, "accounts", {VS("acct0"), VB(100)}).ok());
    ASSERT_TRUE(db->Commit(*txn).ok());
    auto d = db->GenerateDigest();
    ASSERT_TRUE(d.ok());
    digest = *d;
    // A read-only commit writes no WAL record, so it must not count either:
    // replay could not restore it and the count would drop on restart.
    auto reader = db->Begin("reader");
    ASSERT_TRUE(db->Scan(*reader, "accounts").ok());
    ASSERT_TRUE(db->Commit(*reader).ok());
    committed = db->committed_txn_count();
    // NO checkpoint, no clean shutdown: destructor simulates the crash
    // (state is only in checkpoint-at-DDL + WAL).
  }

  auto db = Open();
  EXPECT_EQ(db->committed_txn_count(), committed);
  auto txn = db->Begin("app");
  auto row = db->Get(*txn, "accounts", {VS("acct0")});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsInt64(), 100);
  auto rows = db->Scan(*txn, "accounts");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 9u);
  ASSERT_TRUE(db->Commit(*txn).ok());

  // History survived too.
  auto ref = db->GetTableRef("accounts");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->history->row_count(), 1u);

  // The digest issued before the crash verifies after recovery — block
  // closes are replayed deterministically.
  auto report = VerifyLedger(db.get(), {digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(RecoveryTest, RecoveryAfterCheckpointPlusMoreTraffic) {
  DatabaseDigest d1;
  {
    auto db = Open();
    ASSERT_TRUE(db->CreateTable("t", SimpleUserSchema(),
                                TableKind::kUpdateable)
                    .ok());
    for (int i = 0; i < 5; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "pre").ok());
    auto d = db->GenerateDigest();
    ASSERT_TRUE(d.ok());
    d1 = *d;
    ASSERT_TRUE(db->Checkpoint().ok());
    for (int i = 5; i < 11; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "post").ok());
    // crash
  }
  auto db = Open();
  auto txn = db->Begin("app");
  auto rows = db->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 11u);
  ASSERT_TRUE(db->Commit(*txn).ok());

  auto d2 = db->GenerateDigest();
  ASSERT_TRUE(d2.ok());
  auto report = VerifyLedger(db.get(), {d1, *d2});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  // The chain across the crash is intact.
  auto derivable = db->database_ledger()->VerifyDigestChain(d1, *d2);
  ASSERT_TRUE(derivable.ok());
  EXPECT_TRUE(*derivable);
}

TEST_F(RecoveryTest, TransactionIdsResumeAfterRecovery) {
  uint64_t last_txn_id;
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    ASSERT_TRUE(InsertOne(db.get(), "t", 1, "x", &last_txn_id).ok());
  }
  auto db = Open();
  auto txn = db->Begin("app");
  ASSERT_TRUE(txn.ok());
  EXPECT_GT((*txn)->id(), last_txn_id);
  db->Abort(*txn);
}

TEST_F(RecoveryTest, BaselineModeRecoversWithoutLedger) {
  // A ledger-disabled (baseline) database still gets WAL durability.
  {
    LedgerDatabaseOptions options = MakeOptions();
    options.enable_ledger = false;
    auto db = LedgerDatabase::Open(std::move(options));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable("t", SimpleUserSchema(),
                                   TableKind::kUpdateable)
                    .ok());
    for (int i = 0; i < 5; i++)
      ASSERT_TRUE(InsertOne(db->get(), "t", i, "x").ok());
    // crash
  }
  LedgerDatabaseOptions options = MakeOptions();
  options.enable_ledger = false;
  auto db = LedgerDatabase::Open(std::move(options));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto txn = (*db)->Begin("app");
  auto rows = (*db)->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
  ASSERT_TRUE((*db)->Commit(*txn).ok());
}

TEST_F(RecoveryTest, MismatchedLedgerModeRejected) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
  }
  LedgerDatabaseOptions options = MakeOptions();
  options.enable_ledger = false;
  EXPECT_FALSE(LedgerDatabase::Open(std::move(options)).ok());
}

TEST_F(RecoveryTest, RestoreHelperCreatesNewIncarnation) {
  std::string original_create_time;
  DatabaseDigest digest;
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    for (int i = 0; i < 4; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "v").ok());
    auto d = db->GenerateDigest();
    ASSERT_TRUE(d.ok());
    digest = *d;
    ASSERT_TRUE(db->Checkpoint().ok());
    original_create_time = db->create_time();
  }

  auto restored = LedgerDatabase::Restore(Path("db"), MakeOptions("pitr"));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_NE((*restored)->create_time(), original_create_time);
  // Restored state holds the data and verifies against the old digest.
  auto txn = (*restored)->Begin("app");
  auto rows = (*restored)->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
  ASSERT_TRUE((*restored)->Commit(*txn).ok());
  auto report = VerifyLedger(restored->get(), {digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();

  // Guard rails.
  EXPECT_FALSE(LedgerDatabase::Restore(Path("db"), MakeOptions("db")).ok());
  EXPECT_TRUE(LedgerDatabase::Restore(Path("nonexistent"),
                                      MakeOptions("pitr2"))
                  .status()
                  .IsNotFound());
}

TEST_F(RecoveryTest, RestoreCreatesNewIncarnation) {
  std::string original_create_time;
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    ASSERT_TRUE(InsertOne(db.get(), "t", 1, "x").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    original_create_time = db->create_time();
  }
  // Simulate a point-in-time restore: copy the data directory and open the
  // copy as a restored database.
  std::filesystem::copy(Path("db"), Path("restored"),
                        std::filesystem::copy_options::recursive);
  LedgerDatabaseOptions options = MakeOptions("restored");
  options.force_new_incarnation = true;
  auto restored = LedgerDatabase::Open(std::move(options));
  ASSERT_TRUE(restored.ok());
  EXPECT_NE((*restored)->create_time(), original_create_time);

  // Digests of both incarnations coexist in the store.
  InMemoryDigestStore store;
  auto reopened = Open();
  auto d_orig = reopened->GenerateDigest();
  ASSERT_TRUE(d_orig.ok());
  ASSERT_TRUE(store.Upload(*d_orig).ok());
  auto d_restored = (*restored)->GenerateDigest();
  ASSERT_TRUE(d_restored.ok());
  ASSERT_TRUE(store.Upload(*d_restored).ok());
  EXPECT_EQ(store.ListAll()->size(), 2u);
  EXPECT_NE(d_orig->database_create_time, d_restored->database_create_time);
}

TEST_F(RecoveryTest, LeftoverCheckpointTempFileIsIgnored) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    ASSERT_TRUE(InsertOne(db.get(), "t", 1, "x").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // A crash mid-checkpoint leaves a partially written temp file; recovery
  // must load the intact previous checkpoint.
  {
    std::ofstream garbage(Path("db") + "/checkpoint.sldb.tmp");
    garbage << "half-written nonsense";
  }
  auto db = Open();
  auto txn = db->Begin("app");
  EXPECT_TRUE(db->Get(*txn, "t", {Value::BigInt(1)}).ok());
  ASSERT_TRUE(db->Commit(*txn).ok());
}

TEST_F(RecoveryTest, TornNewestCheckpointFallsBackToPreviousGeneration) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    for (int i = 0; i < 3; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "gen1").ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // superseded -> checkpoint.sldb.prev
    for (int i = 3; i < 6; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "gen2").ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // the generation we corrupt
    for (int i = 6; i < 8; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "tail").ok());
    // crash
  }
  // Storage rot tears the newest checkpoint. Recovery must fall back to the
  // previous generation and reach the same state by replaying the rotated
  // WAL plus the live tail.
  {
    std::fstream f(Path("db") + "/checkpoint.sldb",
                   std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    f.seekg(30);
    f.get(byte);
    f.seekp(30);
    f.put(static_cast<char>(byte ^ 0xFF));
  }
  auto db = Open();
  auto txn = db->Begin("app");
  auto rows = db->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 8u);
  ASSERT_TRUE(db->Commit(*txn).ok());
  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(RecoveryTest, MissingNewestCheckpointFallsBackToPreviousGeneration) {
  // The crash window between WriteCheckpoint's two renames leaves only the
  // ".prev" generation on disk. That must still open and recover.
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    for (int i = 0; i < 4; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "x").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  std::filesystem::rename(Path("db") + "/checkpoint.sldb",
                          Path("db") + "/checkpoint.sldb.prev");
  auto db = Open();
  auto txn = db->Begin("app");
  auto rows = db->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
  ASSERT_TRUE(db->Commit(*txn).ok());
}

TEST_F(RecoveryTest, DroppedTableSurvivesRecovery) {
  DatabaseDigest digest;
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    ASSERT_TRUE(InsertOne(db.get(), "t", 1, "x").ok());
    ASSERT_TRUE(db->DropTable("t").ok());
    auto d = db->GenerateDigest();
    ASSERT_TRUE(d.ok());
    digest = *d;
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  auto db = Open();
  EXPECT_TRUE(db->GetTableRef("t").status().IsNotFound());
  // The dropped table's data is still present and verifiable by id.
  auto report = VerifyLedger(db.get(), {digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  // The name can be reused after recovery.
  ASSERT_TRUE(
      db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
}

TEST_F(RecoveryTest, DoubleCrashRecovery) {
  // Recover, add more traffic, crash again without checkpoint, recover.
  {
    auto db = Open();
    ASSERT_TRUE(
        db->CreateTable("t", SimpleUserSchema(), TableKind::kUpdateable).ok());
    for (int i = 0; i < 3; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "one").ok());
  }
  {
    auto db = Open();
    for (int i = 3; i < 6; i++)
      ASSERT_TRUE(InsertOne(db.get(), "t", i, "two").ok());
  }
  auto db = Open();
  auto txn = db->Begin("app");
  auto rows = db->Scan(*txn, "t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 6u);
  ASSERT_TRUE(db->Commit(*txn).ok());
  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(RecoveryTest, SchemaChangesSurviveRecovery) {
  {
    auto db = Open();
    ASSERT_TRUE(db->CreateTable("accounts", AccountSchema(),
                                TableKind::kUpdateable)
                    .ok());
    ASSERT_TRUE(db->AddColumn("accounts", "email", DataType::kVarchar).ok());
    ASSERT_TRUE(db->DropColumn("accounts", "email").ok());
    ASSERT_TRUE(
        db->CreateIndex("accounts", "by_balance", {"balance"}, false).ok());
  }
  auto db = Open();
  auto ref = db->GetTableRef("accounts");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->main->schema().FindColumn("email"), -1);
  EXPECT_NE(ref->main->FindIndex("by_balance"), nullptr);
  auto digest = db->GenerateDigest();
  ASSERT_TRUE(digest.ok());
  auto report = VerifyLedger(db.get(), {*digest});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

}  // namespace
}  // namespace sqlledger
