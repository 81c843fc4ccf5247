// The round runner shared by the tpcc, tpce and audit workloads. A run is a
// number of rounds, each on a fresh database, so set-up is timed at several
// points of the run and the data size stays bounded however long the run
// is. One round:
//
//   1. set-up (timed): open a fresh database, let the mix create and load
//      its tables, and create the probe table every workload shares;
//   2. warm-up: the mix, untimed;
//   3. the timed mix, with one checkpoint tail_txns before its end;
//   4. digest rounds: each commits a five-row insert and a five-row update
//      into the probe table through the public DML calls, protects the
//      ledger through the digest pipeline to an on-disk immutable blob
//      store, re-verifies it incrementally, and issues and checks receipts
//      for random earlier transactions;
//   5. restarts: the database is closed and reopened several times, each
//      reopen replaying the same WAL tail after the checkpoint;
//   6. checks and full verification of the recovered ledger.
//
// The last round also checks that a one-byte change to a row version and
// to a receipt are caught. The traced run then adds the commit-pipeline
// probe (commit_probe.cc). With --ledger 0 (the plain engine) steps 4 and 6
// keep only the mix's own checks.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "ledger/digest_store.h"
#include "ledger/receipt.h"
#include "ledger/verifier.h"

namespace ledgerbench {

using namespace sqlledger;

namespace {

constexpr const char* kProbeTable = "probe_rows";
constexpr int kRowsPerTxn = 5;
constexpr int kPayloadBytes = 244;  // + two BIGINTs = 260-byte rows
constexpr int kReopensPerRound = 5;
constexpr int kDigestRoundsPerRound = 6;
constexpr int kReceiptsPerDigestRound = 8;
constexpr int kFullVerificationsPerRound = 3;
// Spans a digest round records beyond its receipts: two probe
// transactions (five DML calls and a commit each), submit, drain and the
// incremental run.
constexpr size_t kDigestRoundSpans = 2 * (kRowsPerTxn + 1) + 3;

uint64_t Rounds(const RunOptions& options, const MixShape& shape) {
  const uint64_t txns =
      shape.txns_per_second * static_cast<uint64_t>(options.seconds);
  return std::max<uint64_t>(1, txns / shape.txns_per_round);
}

Schema ProbeSchema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("a", DataType::kBigInt, false);
  s.AddColumn("payload", DataType::kVarchar, false, kPayloadBytes);
  s.SetPrimaryKey({0});
  return s;
}

LedgerDatabaseOptions DbOptions(const std::string& data_dir, const Mix& mix,
                                bool ledger) {
  LedgerDatabaseOptions options;
  options.enable_ledger = ledger;
  options.data_dir = data_dir;
  options.database_id = mix.name();
  options.block_size = mix.shape().block_size;
  options.sync_wal = false;
  return options;
}

/// Every sample of a run.
struct Totals {
  explicit Totals(const MixShape& shape) : rate(shape.rate_chunk) {}
  Samples setup_s;
  std::vector<Samples> latency_us;  // by mix transaction type
  RateMeter rate;
  uint64_t committed = 0;  // timed mix transactions
  MetricsSnapshot timed;   // the registry over the timed mixes
  Samples checkpoint_us, checkpoint_bytes_per_txn;
  Samples reopen_us, replay_ms, wal_tail_bytes;
  // Digest rounds.
  MetricsSnapshot digest_rounds;  // the registry over them
  Samples insert_us, update_us, commit_us;
  Samples submit_us, drain_us, protect_ms;
  Samples incremental_us, reanchor_ms, rows_hashed;
  Samples make_us, check_us, receipt_us;
  // Full verification.
  Samples full_us, tree_hash_ms, view_check_ms, rows_per_s;
};

/// The round's ledger as the benchmark knows it, apart from the program.
struct RoundLedger {
  std::unique_ptr<ImmutableBlobDigestStore> store;
  std::vector<DatabaseDigest> digests;  // every durable digest, in order
  std::vector<uint64_t> receipt_txns;   // committed before the digest rounds
  /// Row versions verification must hash: those the seeding run found,
  /// plus one per probe row inserted and two per probe row updated (the
  /// new version and the retired one in history).
  uint64_t row_versions = 0;
  int64_t probe_rows = 0;
};

double HistogramSumMs(const MetricsSnapshot& before,
                      const MetricsSnapshot& after, const std::string& name) {
  const MetricsSnapshot delta = SnapshotDelta(before, after);
  return static_cast<double>(delta.histograms.at(name).sum) / 1e3;
}

/// Commits one five-row insert and one five-row update of earlier probe
/// rows, timing each DML call and commit.
void CommitProbeTxns(LedgerDatabase* db, Random* rng, Probe* probe,
                     Totals* totals, Report* report, RoundLedger* ledger) {
  for (int kind = 0; kind < 2; kind++) {
    const bool insert = kind == 0;
    std::vector<Row> rows;
    while (rows.size() < kRowsPerTxn) {
      const int64_t id = insert ? ledger->probe_rows + 1 +
                                      static_cast<int64_t>(rows.size())
                                : rng->UniformRange(1, ledger->probe_rows);
      bool fresh = true;
      for (const Row& r : rows) fresh = fresh && r[0].AsInt64() != id;
      if (!fresh) continue;
      rows.push_back({Value::BigInt(id),
                      Value::BigInt(static_cast<int64_t>(rng->Uniform(1000))),
                      Value::Varchar(rng->AlphaString(kPayloadBytes))});
    }
    Transaction* txn = Require(db->Begin("probe"), "Begin");
    const uint64_t txn_id = txn->id();
    Status st;
    for (const Row& row : rows) {
      st = insert ? probe->Time(&totals->insert_us, "ledger.insert", "ledger",
                                txn_id,
                                [&] { return db->Insert(txn, kProbeTable,
                                                        row); })
                  : probe->Time(&totals->update_us, "ledger.update", "ledger",
                                txn_id, [&] {
                                  return db->Update(txn, kProbeTable, row);
                                });
      if (!st.ok()) break;
    }
    if (st.ok()) {
      st = probe->Time(&totals->commit_us, "ledger.commit", "ledger", txn_id,
                       [&] { return db->Commit(txn); });
    } else {
      db->Abort(txn);
    }
    report->Attempt(st.ok());
    if (!st.ok()) continue;
    ledger->row_versions += (insert ? 1 : 2) * kRowsPerTxn;
    if (insert) ledger->probe_rows += kRowsPerTxn;
  }
}

/// Closes the open block, queues its digest durably in the outbox and
/// uploads it to the blob store.
void Protect(LedgerDatabase* db, uint64_t id, Probe* probe, Totals* totals,
             Report* report, RoundLedger* ledger) {
  DigestUploadPipeline* pipeline = db->digest_pipeline();
  const Status submitted =
      probe->Time(&totals->submit_us, "digest.submit", "digest", id,
                  [&] { return pipeline->GenerateAndSubmit(); });
  const Status drained =
      probe->Time(&totals->drain_us, "digest.drain", "digest", id,
                  [&] { return pipeline->DrainFully(); });
  const std::optional<DatabaseDigest> durable = db->latest_durable_digest();
  const bool ok = submitted.ok() && drained.ok() &&
                  pipeline->status().fully_protected() && durable.has_value();
  report->Attempt(ok);
  report->Check(ok, "digest round " + std::to_string(id) + " protected");
  if (!ok) Require(Status::Corruption("ledger not protected"), "Protect");
  totals->protect_ms.Add(
      (totals->submit_us.last() + totals->drain_us.last()) / 1e3);
  ledger->digests.push_back(*durable);
}

/// Re-verifies from the watermark: clean, no fallback, and checked +
/// skipped covering every row version.
void VerifyIncremental(LedgerDatabase* db, uint64_t id, Probe* probe,
                       Totals* totals, Report* report, RoundLedger* ledger) {
  VerificationOptions options;
  options.parallelism = 1;
  const MetricsSnapshot before = db->MetricsSnapshot();
  auto result = probe->Time(&totals->incremental_us, "verify.incremental",
                            "verifier", id, [&] {
                              return VerifyLedgerIncremental(
                                  db, {ledger->digests.back()}, options);
                            });
  const bool ok = result.ok() && result->ok() && !result->fell_back_to_full &&
                  result->row_versions_checked + result->row_versions_skipped ==
                      ledger->row_versions;
  report->Attempt(ok);
  report->Check(ok, "incremental verification clean, no fallback, checked + "
                    "skipped = all row versions (digest round " +
                        std::to_string(id) + ")");
  if (!result.ok()) return;
  totals->reanchor_ms.Add(
      HistogramSumMs(before, db->MetricsSnapshot(), "verify.reanchor_micros"));
  totals->rows_hashed.Add(static_cast<double>(result->row_versions_checked));
}

/// Issues and checks receipts for random transactions in closed blocks.
void IssueReceipts(LedgerDatabase* db, Random* rng, Probe* probe,
                   Totals* totals, Report* report,
                   const RoundLedger& ledger) {
  for (int r = 0; r < kReceiptsPerDigestRound; r++) {
    const uint64_t txn_id =
        ledger.receipt_txns[rng->Uniform(ledger.receipt_txns.size())];
    auto receipt =
        probe->Time(&totals->make_us, "receipt.make", "receipt", txn_id,
                    [&] { return MakeTransactionReceipt(db, txn_id); });
    const bool valid =
        receipt.ok() &&
        probe->Time(&totals->check_us, "receipt.verify", "receipt", txn_id,
                    [&] {
                      return VerifyTransactionReceipt(*receipt, db->signer());
                    });
    report->Attempt(valid);
    report->Check(valid,
                  "receipt for txn " + std::to_string(txn_id) + " verifies");
    if (valid)
      totals->receipt_us.Add(totals->make_us.last() + totals->check_us.last());
  }
}

/// The digest rounds of step 4. The first protection closes the timed
/// mix's block and its incremental run seeds the watermark (a full pass,
/// not sampled). Receipts are drawn from the transactions committed before
/// it (set-up, warm-up and the timed mix), so each proves a transaction in
/// the mix's own blocks; the probe transactions' two-transaction blocks
/// would make cheap receipts of a different kind.
void RunDigestRounds(LedgerDatabase* db, const std::string& round_dir,
                     uint64_t round, Random* rng, Probe* probe,
                     Totals* totals, Report* report, RoundLedger* ledger) {
  ledger->store = Require(
      ImmutableBlobDigestStore::Open(round_dir + "/blobs"), "open blob store");
  DigestPipelineOptions pipeline_options;
  pipeline_options.outbox_dir = round_dir + "/outbox";
  Require(db->StartDigestProtection(ledger->store.get(), pipeline_options),
          "StartDigestProtection");
  const MetricsSnapshot before = db->MetricsSnapshot();

  Probe untraced(nullptr);
  Totals seeding(MixShape{});
  Protect(db, round * kDigestRoundsPerRound, &untraced, &seeding, report,
          ledger);
  VerificationOptions options;
  options.parallelism = 1;
  auto seeded = VerifyLedgerIncremental(db, ledger->digests, options);
  const bool seeded_ok = seeded.ok() && seeded->ok();
  report->Attempt(seeded_ok);
  report->Check(seeded_ok, "watermark-seeding verification clean");
  ledger->row_versions = seeded_ok ? seeded->row_versions_checked : 0;
  for (const TransactionEntry& e : db->database_ledger()->Snapshot().entries)
    ledger->receipt_txns.push_back(e.txn_id);

  for (int d = 0; d < kDigestRoundsPerRound; d++) {
    const uint64_t id = round * kDigestRoundsPerRound + d;
    CommitProbeTxns(db, rng, probe, totals, report, ledger);
    Protect(db, id, probe, totals, report, ledger);
    VerifyIncremental(db, id, probe, totals, report, ledger);
    IssueReceipts(db, rng, probe, totals, report, *ledger);
  }
  totals->digest_rounds.Merge(SnapshotDelta(before, db->MetricsSnapshot()));
}

/// Full verification over every durable digest; it must check every row
/// version the benchmark counted.
void VerifyFull(LedgerDatabase* db, uint64_t round, Probe* probe,
                Totals* totals, Report* report, const RoundLedger& ledger) {
  VerificationOptions options;
  options.parallelism = 1;
  const MetricsSnapshot before = db->MetricsSnapshot();
  auto full =
      probe->Time(&totals->full_us, "verify.full", "verifier", round,
                  [&] { return VerifyLedger(db, ledger.digests, options); });
  const MetricsSnapshot after = db->MetricsSnapshot();
  const bool ok = full.ok() && full->ok() &&
                  full->row_versions_checked == ledger.row_versions;
  report->Attempt(ok);
  report->Check(ok, "full verification clean and checked every row version");
  totals->tree_hash_ms.Add(
      HistogramSumMs(before, after, "verify.tree_hash_micros"));
  totals->view_check_ms.Add(
      HistogramSumMs(before, after, "verify.view_check_micros"));
  if (full.ok())
    totals->rows_per_s.Add(static_cast<double>(full->row_versions_checked) /
                           (totals->full_us.last() / 1e6));
}

/// A one-byte change to one row version must be reported as invariant 4
/// on its table, and a receipt with one flipped byte must fail.
void CheckTamperEvidence(LedgerDatabase* db, const RoundLedger& ledger,
                         Report* report) {
  TableStore* store = db->GetStoreForTesting(kProbeTable);
  Row* row = store->mutable_clustered()->MutableGet({Value::BigInt(1)});
  report->Check(row != nullptr, "probe row 1 present");
  if (row != nullptr) {
    const Value original = (*row)[2];
    std::string forged = original.string_value();
    forged[0] = static_cast<char>(forged[0] ^ 1);
    (*row)[2] = Value::Varchar(forged);
    VerificationOptions options;
    options.parallelism = 1;
    auto tampered = VerifyLedger(db, ledger.digests, options);
    bool caught = false;
    if (tampered.ok()) {
      for (const Violation& v : tampered->violations)
        caught = caught || (v.invariant == 4 &&
                            v.message.find(kProbeTable) != std::string::npos);
    }
    report->Check(caught, "a one-byte row change is reported as invariant 4 "
                          "on " + std::string(kProbeTable));
    (*row)[2] = original;
  }
  auto receipt = MakeTransactionReceipt(db, ledger.receipt_txns.front());
  report->Check(receipt.ok(), "receipt issued");
  if (receipt.ok()) {
    std::string& name = receipt->entry.user_name;
    name[0] = static_cast<char>(name[0] ^ 1);
    report->Check(!VerifyTransactionReceipt(*receipt, db->signer()),
                  "a receipt with one flipped byte fails verification");
  }
}

void RunRound(const RunOptions& options, Mix* mix, uint64_t round,
              bool last_round, const std::vector<std::string>& type_names,
              Probe* probe, Report* report, Totals* totals) {
  const MixShape shape = mix->shape();
  const std::string round_dir = options.dir + "/round";
  const std::string data_dir = round_dir + "/db";
  FreshDir(round_dir);

  const Clock::time_point setup_start = Clock::now();
  auto db = OpenDatabase(DbOptions(data_dir, *mix, options.ledger));
  Require(mix->Setup(db.get(), options.ledger), "set-up");
  if (options.ledger) {
    Require(db->CreateTable(kProbeTable, ProbeSchema(), TableKind::kUpdateable),
            "CreateTable " + std::string(kProbeTable));
  }
  totals->setup_s.Add(MicrosBetween(setup_start, Clock::now()) / 1e6);

  Random rng(StreamSeed(options.seed, 16 + round));
  uint64_t committed = 0;  // this round, warm-up included
  for (uint64_t n = 0; n < shape.warmup_txns; n++) {
    Require(mix->Run(mix->Draw(&rng, n), &rng), "warm-up transaction");
    committed++;
  }

  const MetricsSnapshot before = db->MetricsSnapshot();
  totals->rate.Start();
  for (uint64_t i = 0; i < shape.txns_per_round; i++) {
    const uint64_t id = round * shape.txns_per_round + i;
    if (i == shape.txns_per_round - shape.tail_txns) {
      Require(probe->Time(&totals->checkpoint_us, "storage.checkpoint",
                          "storage", id, [&] { return db->Checkpoint(); }),
              "Checkpoint");
      totals->checkpoint_bytes_per_txn.Add(
          static_cast<double>(DirectoryBytes(data_dir)) /
          static_cast<double>(committed));
    }
    const size_t type = mix->Draw(&rng, shape.warmup_txns + i);
    const Status st =
        probe->Time(&totals->latency_us[type], type_names[type].c_str(),
                    mix->name(), id, [&] { return mix->Run(type, &rng); });
    report->Attempt(st.ok());
    if (!st.ok()) {
      std::fprintf(stderr, "ledgerbench: %s.%s: %s\n", mix->name(),
                   type_names[type].c_str(), st.ToString().c_str());
      continue;
    }
    committed++;
    totals->committed++;
    totals->rate.Tick();
  }
  totals->timed.Merge(SnapshotDelta(before, db->MetricsSnapshot()));

  RoundLedger ledger;
  if (options.ledger)
    RunDigestRounds(db.get(), round_dir, round, &rng, probe, totals, report,
                    &ledger);

  // Restart several times over the same WAL tail.
  const uint64_t txns_before_close = db->committed_txn_count();
  mix->Close();
  db.reset();
  totals->wal_tail_bytes.Add(
      static_cast<double>(std::filesystem::file_size(data_dir + "/wal.log")));
  for (int r = 0; r < kReopensPerRound; r++) {
    db.reset();
    db = probe->Time(&totals->reopen_us, "recovery.open", "recovery", round,
                     [&] {
                       return OpenDatabase(
                           DbOptions(data_dir, *mix, options.ledger));
                     });
    totals->replay_ms.Add(
        static_cast<double>(
            db->MetricsSnapshot().histograms["recovery.duration_micros"].sum) /
        1e3);
    // A restart must restore the committed-transaction count; it does not
    // while Commit counts read-only transactions that leave no WAL record.
    report->Attempt(db->committed_txn_count() == txns_before_close);
  }

  mix->Check(db.get(), report);
  if (!options.ledger) return;
  for (int v = 0; v < kFullVerificationsPerRound; v++)
    VerifyFull(db.get(), round, probe, totals, report, ledger);
  if (last_round) CheckTamperEvidence(db.get(), ledger, report);
}

}  // namespace

size_t LedgerWorkloadSpanCapacity(const RunOptions& options, const Mix& mix) {
  const MixShape shape = mix.shape();
  const size_t per_round =
      shape.txns_per_round + 1 + kReopensPerRound +
      kDigestRoundsPerRound * (kDigestRoundSpans + 2 * kReceiptsPerDigestRound) +
      kFullVerificationsPerRound;
  return Rounds(options, shape) * per_round + CommitProbeSpanCapacity();
}

void RunLedgerWorkload(const RunOptions& options, Mix* mix, Probe* probe,
                       Report* report) {
  const MixShape shape = mix->shape();
  const std::vector<std::string> type_names = mix->type_names();
  Totals totals(shape);
  totals.latency_us.resize(type_names.size());
  const uint64_t rounds = Rounds(options, shape);
  for (uint64_t round = 0; round < rounds; round++)
    RunRound(options, mix, round, round + 1 == rounds, type_names, probe,
             report, &totals);

  const double wal_bytes =
      static_cast<double>(totals.timed.counters["wal.bytes_total"]);
  report->EndToEnd("setup_s", totals.setup_s.Median(), "s");
  report->EndToEnd("peak_rss_mb", PeakRssMiB(), "MiB");
  report->EndToEnd("txn_per_s", totals.rate.Median(), "1/s");
  report->EndToEnd("wal_bytes_per_txn",
                   wal_bytes / static_cast<double>(totals.committed), "B");
  report->EndToEnd("recovery_s", totals.reopen_us.Median() / 1e6, "s");
  for (size_t t = 0; t < type_names.size(); t++) {
    report->Reference(std::string(mix->name()) + "." + type_names[t] + "_p50_us",
                      totals.latency_us[t].Median(), "us");
  }

  if (options.trace && options.ledger)
    RunCommitProbe(options.dir + "/commit", StreamSeed(options.seed, 7), probe,
                   report);

  report->Layer("wal.append_us",
                totals.timed.histograms["wal.append_micros"].Percentile(50),
                "us");
  report->Layer("checkpoint.duration_ms", totals.checkpoint_us.Median() / 1e3,
                "ms");
  report->Layer("checkpoint.bytes_per_txn",
                totals.checkpoint_bytes_per_txn.Median(), "B");
  report->Layer("recovery.open_ms", totals.reopen_us.Median() / 1e3, "ms");
  report->Layer("recovery.replay_ms", totals.replay_ms.Median(), "ms");
  report->Layer("recovery.wal_bytes", totals.wal_tail_bytes.Median(), "B");
  if (!options.ledger) return;

  report->EndToEnd("verify_full_s", totals.full_us.Median() / 1e6, "s");
  report->EndToEnd("receipt_us", totals.receipt_us.Median(), "us");
  report->Reference("protect_ms", totals.protect_ms.Median(), "ms");

  report->Layer("dml.ledger_insert_us", totals.insert_us.Median(), "us");
  report->Layer("dml.ledger_update_us", totals.update_us.Median(), "us");
  report->Layer("commit.call_us", totals.commit_us.Median(), "us");
  report->Layer("digest.submit_us", totals.submit_us.Median(), "us");
  report->Layer("digest.drain_us", totals.drain_us.Median(), "us");
  report->Layer(
      "digest.upload_us",
      totals.digest_rounds.histograms["digest.upload_micros"].Percentile(50),
      "us");
  report->Layer("verify.tree_hash_ms", totals.tree_hash_ms.Median(), "ms");
  report->Layer("verify.view_check_ms", totals.view_check_ms.Median(), "ms");
  report->Layer("verify.row_versions_per_s", totals.rows_per_s.Median(),
                "1/s");
  report->Layer("verify.incremental_ms", totals.incremental_us.Median() / 1e3,
                "ms");
  report->Layer("verify.reanchor_ms", totals.reanchor_ms.Median(), "ms");
  report->Layer("verify.row_versions_hashed", totals.rows_hashed.Median(),
                "count");
  report->Layer("receipt.make_us", totals.make_us.Median(), "us");
  report->Layer("receipt.verify_us", totals.check_us.Median(), "us");
}

}  // namespace ledgerbench
