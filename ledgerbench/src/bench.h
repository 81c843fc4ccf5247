// Shared pieces of the ledger benchmark: run options, per-operation latency
// samples, the span log of the traced run, and the result report that the
// program prints as its last line of output.
//
// Every timing is taken from the benchmark's own files, around calls into
// the program's public API; nothing inside src/ is instrumented for it.

#ifndef LEDGERBENCH_BENCH_H_
#define LEDGERBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ledger/ledger_database.h"
#include "util/json.h"
#include "util/random.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ledgerbench {

using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Scales the run's operation counts; counts, not durations, fix a run's
  /// length.
  int seconds = 10;
  bool trace = false;
  /// false = the same workload on the plain engine (enable_ledger = false),
  /// for the ledger-vs-regular reference figures; tpcc and tpce only.
  bool ledger = true;
  /// Scratch directory for data directories; created and removed by main.
  std::string dir;
  /// Where the traced run writes its Chrome trace JSON.
  std::string trace_path;
};

/// Microseconds between two steady-clock instants (sub-microsecond digits
/// kept).
double MicrosBetween(Clock::time_point start, Clock::time_point end);

/// All samples of one operation type within a run.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  /// The most recent sample.
  double last() const { return values_.back(); }
  /// Linearly interpolated quantile, q in [0, 1]. Aborts when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Throughput over chunks of consecutive operations: Tick() once per
/// completed operation; every `chunk` ticks the chunk's rate is recorded.
/// Start() begins a new chunk (and drops a partial one).
class RateMeter {
 public:
  explicit RateMeter(uint64_t chunk) : chunk_(chunk) {}
  void Start() {
    start_ = Clock::now();
    count_ = 0;
  }
  void Tick();
  /// The median chunk rate, operations per second.
  double Median() const { return rates_.Median(); }

 private:
  const uint64_t chunk_;
  Clock::time_point start_{};
  uint64_t count_ = 0;
  Samples rates_;
};

/// Spans of the traced run, recorded with the program's Tracer: one span
/// per call into a layer, each tagged with the id of the transaction or
/// round it belongs to. Capacity is fixed up front so nothing is dropped.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity);

  void Record(const char* name, const char* layer, uint64_t id,
              Clock::time_point start, Clock::time_point end);
  uint64_t dropped() const { return tracer_.dropped_count(); }
  /// The tracer's Chrome trace JSON with an "id" argument on every span.
  std::string ToChromeJson() const;

 private:
  sqlledger::MetricRegistry registry_;
  sqlledger::Tracer tracer_;
  mutable std::mutex mu_;  // keeps ids_ in the tracer's recording order
  std::vector<uint64_t> ids_;
};

/// Times calls into the program. In the traced run it also records a span
/// for each call; in the untraced run it records nothing but the sample.
class Probe {
 public:
  explicit Probe(SpanLog* spans) : spans_(spans) {}

  /// Runs fn(), adds its duration in microseconds to `samples` (when not
  /// null) and returns fn's result.
  template <typename F>
  auto Time(Samples* samples, const char* name, const char* layer,
            uint64_t id, F&& fn) {
    const Clock::time_point start = Clock::now();
    auto result = fn();
    const Clock::time_point end = Clock::now();
    if (samples != nullptr) samples->Add(MicrosBetween(start, end));
    if (spans_ != nullptr) spans_->Record(name, layer, id, start, end);
    return result;
  }

 private:
  SpanLog* spans_;
};

/// The run's result: output checks, operation counts and metrics.
class Report {
 public:
  /// An end-to-end metric (printed by the untraced run).
  void EndToEnd(const std::string& name, double value,
                const std::string& unit) {
    metrics_.push_back({name, value, unit, Kind::kEndToEnd});
  }
  /// A per-layer metric (printed by the traced run).
  void Layer(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit, Kind::kLayer});
  }
  /// A figure recorded for the README but kept out of the result: one
  /// that exists in one workload only (a transaction type's latency), or
  /// one that does not repeat within any allowed bound on the shared host
  /// (fsync-bound latencies).
  void Reference(const std::string& name, double value,
                 const std::string& unit) {
    metrics_.push_back({name, value, unit, Kind::kReference});
  }
  /// Records an output check; a false `ok` makes the run incorrect.
  void Check(bool ok, const std::string& what);
  /// Counts one attempted operation, and a failure when !ok.
  void Attempt(bool ok) { Attempts(1, ok ? 0 : 1); }
  void Attempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return correct_; }
  /// The one-line JSON result: correct, attempted, failed and the
  /// per-layer (traced run) or end-to-end metrics.
  std::string ToJson(bool per_layer) const;
  /// The reference figures as one JSON object.
  std::string ReferenceJson() const;

 private:
  enum class Kind { kEndToEnd, kLayer, kReference };
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    Kind kind;
  };
  sqlledger::JsonValue Metrics(Kind kind) const;
  std::vector<Metric> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- Helpers around the program's public API ----

/// Stops the run without a result when an operation the benchmark cannot
/// go on without fails.
void Require(const sqlledger::Status& status, const std::string& what);

template <typename T>
T Require(sqlledger::Result<T> result, const std::string& what) {
  Require(result.status(), what);
  return std::move(*result);
}

/// Opens a database or stops the run.
std::unique_ptr<sqlledger::LedgerDatabase> OpenDatabase(
    sqlledger::LedgerDatabaseOptions options);

/// Empties `dir` (creating it if needed).
void FreshDir(const std::string& dir);

/// Total size of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// Peak resident set size of this process, MiB.
double PeakRssMiB();

/// What the registry recorded between two snapshots: counter and histogram
/// differences (a histogram's max is the later snapshot's). Deltas of
/// several phases add up with MetricsSnapshot::Merge.
sqlledger::MetricsSnapshot SnapshotDelta(
    const sqlledger::MetricsSnapshot& before,
    const sqlledger::MetricsSnapshot& after);

/// Row count of a table, read in its own transaction.
size_t CountRows(sqlledger::LedgerDatabase* db, const std::string& table);

/// Independent random stream `stream` of the run's seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

// ---- Workloads ----

/// How a transaction mix is sized for the round runner (ledger_rounds.cc).
struct MixShape {
  uint64_t txns_per_second;  // timed transactions per --seconds
  uint64_t txns_per_round;   // timed transactions per round
  uint64_t warmup_txns;      // per round, not timed
  uint64_t tail_txns;        // timed transactions after the checkpoint
  uint64_t rate_chunk;       // transactions per RateMeter chunk
  uint64_t block_size;       // the ledger's block size
};

/// A workload's transaction mix. The round runner sets up a fresh database
/// through it, draws and runs its transactions, and has it check its data
/// after the restarts; everything else a round does is the same for every
/// mix.
class Mix {
 public:
  virtual ~Mix() = default;
  virtual const char* name() const = 0;
  virtual MixShape shape() const = 0;
  /// Names of the transaction types: span names (in the category named
  /// after the mix) and, prefixed with "<mix>.", reference-figure names.
  /// At most 15 characters, so the traced run's span names fit a
  /// std::string without a heap allocation, which would change the heap
  /// layout the untraced run is timed on.
  virtual std::vector<std::string> type_names() const = 0;
  /// Creates and loads the mix's tables in a fresh database (timed as
  /// set-up) and resets the mix's own counts.
  virtual sqlledger::Status Setup(sqlledger::LedgerDatabase* db,
                                  bool ledger) = 0;
  /// Draws the type of the round's n-th transaction (warm-up included).
  virtual size_t Draw(sqlledger::Random* rng, uint64_t n) = 0;
  /// Runs one transaction of `type`; its effects count for Check only
  /// when it returns OK.
  virtual sqlledger::Status Run(size_t type, sqlledger::Random* rng) = 0;
  /// Drops every reference to the database before it is closed.
  virtual void Close() = 0;
  /// Checks the mix's tables, after the restarts, against the mix's own
  /// count of what committed.
  virtual void Check(sqlledger::LedgerDatabase* db, Report* report) = 0;
};

std::unique_ptr<Mix> MakeTpccMix();
std::unique_ptr<Mix> MakeTpceMix();
std::unique_ptr<Mix> MakeAuditMix();

/// Runs a mix in rounds on fresh databases (ledger_rounds.cc) and reports
/// the end-to-end and per-layer metrics every mix shares.
void RunLedgerWorkload(const RunOptions& options, Mix* mix, Probe* probe,
                       Report* report);
size_t LedgerWorkloadSpanCapacity(const RunOptions& options, const Mix& mix);

/// The traced run's commit-pipeline probe (commit_probe.cc): concurrent
/// durable commits and a crash, in their own database under `dir`.
void RunCommitProbe(const std::string& dir, uint64_t seed, Probe* probe,
                    Report* report);
size_t CommitProbeSpanCapacity();

}  // namespace ledgerbench

#endif  // LEDGERBENCH_BENCH_H_
