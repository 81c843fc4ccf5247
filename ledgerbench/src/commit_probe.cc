// The commit-pipeline probe of the traced run (DESIGN.md §10). Three
// sessions commit single-row inserts with distinct keys into an
// append-only ledger table with sync_wal on, so commit groups have more
// than one member and every group pays one fsync. Then a durability probe
// commits from three sessions on a FaultInjectionEnv, simulates a crash,
// and reopens on the plain Env. The mixes run one session without fsync,
// so this is where the commit pipeline and fsync batching are measured.
// Every figure here waits on the disk, so they are per-layer figures only.

#include <algorithm>
#include <cstdio>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "ledger/verifier.h"
#include "storage/env.h"
#include "util/random.h"

namespace ledgerbench {

using namespace sqlledger;

namespace {

constexpr const char* kTable = "events";
constexpr int kSessions = 3;
constexpr int64_t kPreloadRows = 1000;
constexpr uint64_t kWarmupCommitsPerSession = 20;
constexpr uint64_t kCommitsPerSession = 200;  // timed
constexpr uint64_t kProbeCommitsPerSession = 100;
constexpr int64_t kPayloadBytes = 64;  // committed rows carry 32..64

Schema EventSchema() {
  Schema s;
  s.AddColumn("id", DataType::kBigInt, false);
  s.AddColumn("session", DataType::kBigInt, false);
  s.AddColumn("payload", DataType::kVarchar, false, kPayloadBytes);
  s.SetPrimaryKey({0});
  return s;
}

LedgerDatabaseOptions DbOptions(const std::string& data_dir, Env* env) {
  LedgerDatabaseOptions options;
  options.data_dir = data_dir;
  options.database_id = "commit_probe";
  options.block_size = 1000;  // groups' slot ranges cross block boundaries
  options.sync_wal = true;
  options.env = env;
  return options;
}

/// What one session did: keys and transaction ids of acknowledged commits,
/// commit latencies, and failed commits.
struct SessionLog {
  std::vector<int64_t> acked_keys;
  std::vector<uint64_t> acked_txns;
  Samples commit_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Commits `count` single-row inserts as session `session`, with keys
/// first_key + k * kSessions + session.
void RunSession(LedgerDatabase* db, Probe* probe, int session,
                int64_t first_key, uint64_t count, uint64_t seed, bool timed,
                SessionLog* log) {
  Random rng(seed);
  for (uint64_t k = 0; k < count; k++) {
    const int64_t key =
        first_key + static_cast<int64_t>(k) * kSessions + session;
    const size_t payload_bytes = static_cast<size_t>(
        rng.UniformRange(kPayloadBytes / 2, kPayloadBytes));
    const Row row = {Value::BigInt(key), Value::BigInt(session),
                     Value::Varchar(rng.AlphaString(payload_bytes))};
    auto begun = db->Begin("session" + std::to_string(session));
    Status st = begun.status();
    uint64_t txn_id = 0;
    if (st.ok()) {
      txn_id = (*begun)->id();
      st = db->Insert(*begun, kTable, row);
      if (st.ok()) {
        st = timed ? probe->Time(&log->commit_us, "ledger.commit", "commit",
                                 txn_id, [&] { return db->Commit(*begun); })
                   : db->Commit(*begun);
      } else {
        db->Abort(*begun);
      }
    }
    log->attempted++;
    if (!st.ok()) {
      log->failed++;
      continue;
    }
    log->acked_keys.push_back(key);
    log->acked_txns.push_back(txn_id);
  }
}

/// Runs kSessions sessions concurrently, releasing them together. Returns
/// the seconds from release to the last session's end.
double RunSessions(LedgerDatabase* db, Probe* probe, int64_t first_key,
                   uint64_t count, uint64_t seed, bool timed,
                   std::vector<SessionLog>* logs) {
  std::latch ready(kSessions + 1);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; s++) {
    threads.emplace_back([&, s] {
      ready.arrive_and_wait();
      RunSession(db, probe, s, first_key, count, StreamSeed(seed, 100 + s),
                 timed, &(*logs)[s]);
    });
  }
  ready.arrive_and_wait();
  const Clock::time_point start = Clock::now();
  for (std::thread& t : threads) t.join();
  return MicrosBetween(start, Clock::now()) / 1e6;
}

std::unique_ptr<LedgerDatabase> CreateAndLoad(const std::string& data_dir) {
  FreshDir(data_dir);
  auto db = OpenDatabase(DbOptions(data_dir, nullptr));
  Require(db->CreateTable(kTable, EventSchema(), TableKind::kAppendOnly),
          "CreateTable");
  const std::string payload(kPayloadBytes, 'p');
  Transaction* txn = Require(db->Begin("loader"), "Begin");
  for (int64_t id = 1; id <= kPreloadRows; id++) {
    Require(db->Insert(txn, kTable,
                       {Value::BigInt(id), Value::BigInt(-1),
                        Value::Varchar(payload)}),
            "Insert");
  }
  Require(db->Commit(txn), "Commit");
  return db;
}

/// Every acknowledged key is in the table exactly once (beside the
/// preloaded rows), every acknowledged transaction has exactly one ledger
/// entry, and each block's ordinals run 0..n-1 with no gap.
void CheckLedger(LedgerDatabase* db, const std::vector<SessionLog>& logs,
                 Report* report) {
  std::vector<int64_t> expected;
  for (int64_t id = 1; id <= kPreloadRows; id++) expected.push_back(id);
  std::map<uint64_t, int> acked_txns;
  for (const SessionLog& log : logs) {
    expected.insert(expected.end(), log.acked_keys.begin(),
                    log.acked_keys.end());
    for (uint64_t t : log.acked_txns) acked_txns[t] = 0;
  }
  std::sort(expected.begin(), expected.end());
  std::vector<int64_t> present;
  Transaction* txn = Require(db->Begin("check"), "Begin");
  for (const Row& row : Require(db->Scan(txn, kTable), "Scan"))
    present.push_back(row[0].AsInt64());
  Require(db->Commit(txn), "Commit");
  report->Check(present == expected,
                "commit probe: every acknowledged key present exactly once");

  // Close the open block and drain the ledger queue into its table so
  // the snapshot holds every entry.
  Require(db->GenerateDigest().status(), "GenerateDigest");
  Require(db->Checkpoint(), "Checkpoint");
  const DatabaseLedger::LedgerSnapshot snapshot =
      db->database_ledger()->Snapshot();
  std::map<uint64_t, std::vector<uint64_t>> ordinals;
  for (const TransactionEntry& e : snapshot.entries) {
    ordinals[e.block_id].push_back(e.block_ordinal);
    auto it = acked_txns.find(e.txn_id);
    if (it != acked_txns.end()) it->second++;
  }
  bool dense = !ordinals.empty() && ordinals.begin()->first == 0 &&
               ordinals.rbegin()->first + 1 == ordinals.size();
  for (auto& [block, ords] : ordinals) {
    std::sort(ords.begin(), ords.end());
    for (size_t i = 0; i < ords.size(); i++) dense = dense && ords[i] == i;
  }
  report->Check(dense, "commit probe: block ids and block ordinals are dense");
  bool once = true;
  for (const auto& [txn_id, seen] : acked_txns) once = once && seen == 1;
  report->Check(once,
                "commit probe: every acknowledged transaction has one entry");
}

/// Commits from three sessions on a FaultInjectionEnv, crashes, and reopens
/// on the plain Env: every acknowledged commit must be readable and the
/// ledger must verify.
void DurabilityProbe(const std::string& data_dir, uint64_t seed,
                     Report* report) {
  FreshDir(data_dir);
  std::vector<SessionLog> logs(kSessions);
  {
    FaultInjectionEnv env(nullptr, seed);
    auto db = OpenDatabase(DbOptions(data_dir, &env));
    Require(db->CreateTable(kTable, EventSchema(), TableKind::kAppendOnly),
            "CreateTable");
    Probe untimed(nullptr);
    RunSessions(db.get(), &untimed, 1, kProbeCommitsPerSession, seed, false,
                &logs);
    env.SimulateCrash();
    db.reset();  // the crashed env fails its I/O; nothing more is durable
  }
  auto db = OpenDatabase(DbOptions(data_dir, nullptr));
  Transaction* txn = Require(db->Begin("check"), "Begin");
  bool all_readable = true;
  uint64_t acked = 0;
  for (const SessionLog& log : logs) {
    for (int64_t key : log.acked_keys) {
      all_readable =
          all_readable && db->Get(txn, kTable, {Value::BigInt(key)}).ok();
      acked++;
    }
  }
  Require(db->Commit(txn), "Commit");
  report->Check(acked == kSessions * kProbeCommitsPerSession,
                "crash probe: every commit acknowledged before the "
                "crash");
  report->Check(all_readable,
                "crash probe: every acknowledged commit survives the "
                "crash");
  auto verified = VerifyLedger(db.get(), {});
  report->Check(verified.ok() && verified->ok(),
                "crash probe: VerifyLedger clean after the crash");
}

}  // namespace

size_t CommitProbeSpanCapacity() { return kSessions * kCommitsPerSession; }

void RunCommitProbe(const std::string& dir, uint64_t seed, Probe* probe,
                    Report* report) {
  const std::string data_dir = dir + "/db";
  auto db = CreateAndLoad(data_dir);
  std::vector<SessionLog> warmup(kSessions);
  RunSessions(db.get(), probe, kPreloadRows + 1, kWarmupCommitsPerSession,
              StreamSeed(seed, 0), false, &warmup);
  std::vector<SessionLog> logs(kSessions);
  const MetricsSnapshot before = db->MetricsSnapshot();
  RunSessions(db.get(), probe,
              kPreloadRows + 1 +
                  static_cast<int64_t>(kWarmupCommitsPerSession) * kSessions,
              kCommitsPerSession, StreamSeed(seed, 1), true, &logs);
  MetricsSnapshot timed = SnapshotDelta(before, db->MetricsSnapshot());

  // The probe's commits are not counted in `attempted`, so the traced and
  // the untraced run attempt the same operations; a failed one fails the
  // run's checks instead.
  Samples commit_us;
  uint64_t committed = 0;
  for (const SessionLog& log : logs) {
    commit_us.Merge(log.commit_us);
    committed += log.acked_keys.size();
    report->Check(log.failed == 0, "commit probe: every commit succeeds");
  }
  for (const SessionLog& log : warmup)
    report->Check(log.failed == 0, "commit probe: warm-up commits succeed");
  logs.insert(logs.end(), warmup.begin(), warmup.end());
  CheckLedger(db.get(), logs, report);
  db.reset();
  DurabilityProbe(dir + "/crash", StreamSeed(seed, 2), report);

  const double txn_count =
      static_cast<double>(std::max<uint64_t>(1, committed));
  const double groups = static_cast<double>(
      std::max<uint64_t>(1, timed.counters["commit.groups_total"]));
  const HistogramSnapshot& wait = timed.histograms["commit.wait_micros"];
  report->Layer("commit.durable_us", commit_us.Median(), "us");
  report->Layer("wal.sync_us",
                timed.histograms["wal.sync_micros"].Percentile(50), "us");
  report->Layer(
      "wal.syncs_per_txn",
      static_cast<double>(timed.counters["wal.syncs_total"]) / txn_count,
      "count");
  report->Layer(
      "commit.group_size_mean",
      static_cast<double>(timed.counters["commit.group_txns_total"]) / groups,
      "count");
  report->Layer("commit.wait_us_p50", wait.Percentile(50), "us");
  report->Layer("commit.wait_us_p99", wait.Percentile(99), "us");
}

}  // namespace ledgerbench
