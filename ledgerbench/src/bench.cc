#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

namespace ledgerbench {

using namespace sqlledger;

double MicrosBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

double Samples::Quantile(double q) const {
  if (values_.empty()) {
    std::fprintf(stderr, "ledgerbench: quantile of an empty sample\n");
    std::exit(2);
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void RateMeter::Tick() {
  if (++count_ < chunk_) return;
  const double seconds = MicrosBetween(start_, Clock::now()) / 1e6;
  rates_.Add(static_cast<double>(chunk_) / seconds);
  Start();
}

SpanLog::SpanLog(size_t capacity)
    : registry_(SteadyClockMicros), tracer_(&registry_, capacity) {
  ids_.reserve(capacity);
}

void SpanLog::Record(const char* name, const char* layer, uint64_t id,
                     Clock::time_point start, Clock::time_point end) {
  using std::chrono::duration_cast;
  using std::chrono::microseconds;
  const int64_t start_us =
      duration_cast<microseconds>(start.time_since_epoch()).count();
  const int64_t dur_us = duration_cast<microseconds>(end - start).count();
  std::lock_guard<std::mutex> lock(mu_);
  tracer_.RecordComplete(name, layer, start_us, dur_us);
  ids_.push_back(id);
}

std::string SpanLog::ToChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const JsonValue doc = tracer_.ToChromeJson();
  const JsonValue& events = doc.Get("traceEvents");
  JsonValue tagged = JsonValue::Array();
  // With nothing dropped, the exported events are exactly the recorded
  // spans, in recording order.
  for (size_t i = 0; i < events.size(); i++) {
    JsonValue ev = JsonValue::Object();
    for (const auto& [key, value] : events[i].members()) ev.Set(key, value);
    if (i < ids_.size() && dropped() == 0) {
      JsonValue args = JsonValue::Object();
      args.Set("id", JsonValue::Int(static_cast<int64_t>(ids_[i])));
      ev.Set("args", std::move(args));
    }
    tagged.Append(std::move(ev));
  }
  JsonValue out = JsonValue::Object();
  out.Set("traceEvents", std::move(tagged));
  out.Set("displayTimeUnit", doc.Get("displayTimeUnit"));
  out.Set("otherData", doc.Get("otherData"));
  return out.Dump();
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "ledgerbench: check failed: %s\n", what.c_str());
}

JsonValue Report::Metrics(Kind kind) const {
  JsonValue metrics = JsonValue::Object();
  for (const Metric& m : metrics_) {
    if (m.kind != kind) continue;
    JsonValue v = JsonValue::Object();
    v.Set("value", JsonValue::Double(m.value));
    v.Set("unit", JsonValue::Str(m.unit));
    metrics.Set(m.name, std::move(v));
  }
  return metrics;
}

std::string Report::ToJson(bool per_layer) const {
  JsonValue doc = JsonValue::Object();
  doc.Set("correct", JsonValue::Bool(correct_));
  doc.Set("attempted", JsonValue::Int(static_cast<int64_t>(attempted_)));
  doc.Set("failed", JsonValue::Int(static_cast<int64_t>(failed_)));
  doc.Set("metrics", Metrics(per_layer ? Kind::kLayer : Kind::kEndToEnd));
  return doc.Dump();
}

std::string Report::ReferenceJson() const {
  return Metrics(Kind::kReference).Dump();
}

void Require(const Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "ledgerbench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

std::unique_ptr<LedgerDatabase> OpenDatabase(LedgerDatabaseOptions options) {
  return Require(LedgerDatabase::Open(std::move(options)), "Open");
}

void FreshDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

MetricsSnapshot SnapshotDelta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    auto b = before.counters.find(name);
    delta.counters[name] = value - (b == before.counters.end() ? 0 : b->second);
  }
  for (const auto& [name, hist] : after.histograms) {
    HistogramSnapshot d = hist;
    auto b = before.histograms.find(name);
    if (b != before.histograms.end()) {
      d.count -= b->second.count;
      d.sum -= b->second.sum;
      for (size_t i = 0; i < HistogramSnapshot::kNumBuckets; i++)
        d.buckets[i] -= b->second.buckets[i];
    }
    delta.histograms[name] = d;
  }
  return delta;
}

size_t CountRows(LedgerDatabase* db, const std::string& table) {
  Transaction* txn = Require(db->Begin("check"), "Begin");
  size_t n = Require(db->Scan(txn, table), "Scan " + table).size();
  Require(db->Commit(txn), "Commit");
  return n;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream;
}

}  // namespace ledgerbench
