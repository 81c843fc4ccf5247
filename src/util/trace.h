// Bounded in-memory trace-event ring buffer (DESIGN.md §13), exported as
// Chrome trace-event JSON (load chrome://tracing or https://ui.perfetto.dev).
//
// Two event shapes:
//   - complete spans (ph "X"): name + category + start ts + duration, emitted
//     by TraceSpan RAII or Tracer::RecordComplete;
//   - instant events (ph "i"): point-in-time markers (breaker transitions,
//     verification fallbacks) with one optional string argument.
//
// Determinism: timestamps come from the owning MetricRegistry's injectable
// clock, and thread ids are small logical ids handed out in first-use order
// by a process-wide counter — never OS thread ids — so a single-threaded
// deterministic-simulator run serializes byte-identically across reruns.
//
// Tracer::mu_ is a LEAF in the lock hierarchy: Record* takes only this
// mutex and calls nothing that locks. Call sites may hold commit_mu_ or
// DigestUploadPipeline::mu_ while recording (the edges are declared in
// scripts/lock_hierarchy.txt); nothing may be acquired under Tracer::mu_.

#ifndef SQLLEDGER_UTIL_TRACE_H_
#define SQLLEDGER_UTIL_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"
#include "util/metrics.h"
#include "util/thread_annotations.h"

namespace sqlledger {

struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';    // 'X' = complete span, 'i' = instant
  int64_t ts_micros = 0;
  int64_t dur_micros = 0;  // spans only
  uint32_t tid = 0;        // logical thread id, first-use order
  std::string arg_name;    // optional single argument ("" = none)
  std::string arg_value;
};

/// Fixed-capacity ring of trace events. When full, the oldest event is
/// overwritten and dropped_count() grows; export order is always
/// oldest-to-newest. Recording takes the tracer's leaf mutex and writes the
/// event's strings into its ring slot in place, so once the ring has
/// wrapped a slot's string capacity is reused instead of reallocated.
/// Cheap, but not for per-row hot loops; instrument phase-level operations
/// (group commit, upload attempt, verify pass).
class Tracer {
 public:
  explicit Tracer(const MetricRegistry* registry, size_t capacity = 4096);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records a completed span [start_micros, start_micros+dur_micros).
  void RecordComplete(std::string_view name, std::string_view category,
                      int64_t start_micros, int64_t dur_micros) EXCLUDES(mu_);

  /// Records an instant event stamped with the registry clock's current
  /// time, with an optional single argument.
  void RecordInstant(std::string_view name, std::string_view category,
                     std::string_view arg_name = {},
                     std::string_view arg_value = {}) EXCLUDES(mu_);

  /// Events currently buffered, oldest first.
  std::vector<TraceEvent> Events() const EXCLUDES(mu_);
  /// Events evicted to make room since construction.
  uint64_t dropped_count() const EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

  /// Chrome trace-event JSON: {"traceEvents":[...], "displayTimeUnit":"ms",
  /// "otherData":{"dropped_events":N}}. Deterministic given deterministic
  /// events (insertion-ordered objects, integer timestamps).
  JsonValue ToChromeJson() const EXCLUDES(mu_);

  /// Reads the owning registry's clock.
  int64_t NowMicros() const { return registry_->NowMicros(); }

  /// Logical id of the calling thread, assigned on first use (1, 2, ...).
  static uint32_t CurrentTid();

 private:
  const MetricRegistry* registry_;
  const size_t capacity_;
  mutable Mutex mu_;
  std::vector<TraceEvent> ring_ GUARDED_BY(mu_);
  size_t next_ GUARDED_BY(mu_) = 0;  // ring slot for the next event
  uint64_t dropped_ GUARDED_BY(mu_) = 0;

  /// Writes every field of the next ring slot in place: a wrapped slot
  /// keeps its string capacity and none of the evicted event's fields.
  void Record(std::string_view name, std::string_view category, char phase,
              int64_t ts_micros, int64_t dur_micros, std::string_view arg_name,
              std::string_view arg_value) EXCLUDES(mu_);
};

/// RAII span: reads the clock at construction and records a complete event
/// at destruction (or Stop). Null tracer = fully disabled, zero clock reads.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, std::string name, std::string category)
      : tracer_(tracer),
        name_(std::move(name)),
        category_(std::move(category)),
        start_(tracer_ != nullptr ? tracer_->NowMicros() : 0) {}
  ~TraceSpan() { Stop(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void Stop();

 private:
  Tracer* tracer_;
  std::string name_;
  std::string category_;
  int64_t start_;
};

}  // namespace sqlledger

#endif  // SQLLEDGER_UTIL_TRACE_H_
