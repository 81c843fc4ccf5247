#include "util/trace.h"

#include <atomic>
#include <utility>

namespace sqlledger {

namespace {
std::atomic<uint32_t> g_next_tid{1};
}  // namespace

uint32_t Tracer::CurrentTid() {
  thread_local uint32_t tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

Tracer::Tracer(const MetricRegistry* registry, size_t capacity)
    : registry_(registry), capacity_(capacity == 0 ? 1 : capacity) {
  MutexLock lock(&mu_);
  ring_.reserve(capacity_);
}

void Tracer::Record(std::string_view name, std::string_view category,
                    char phase, int64_t ts_micros, int64_t dur_micros,
                    std::string_view arg_name, std::string_view arg_value) {
  const uint32_t tid = CurrentTid();
  MutexLock lock(&mu_);
  TraceEvent* ev;
  if (ring_.size() < capacity_) {
    ev = &ring_.emplace_back();
  } else {
    ev = &ring_[next_];
    ++dropped_;
  }
  next_ = (next_ + 1) % capacity_;
  ev->name.assign(name);
  ev->category.assign(category);
  ev->phase = phase;
  ev->ts_micros = ts_micros;
  ev->dur_micros = dur_micros;
  ev->tid = tid;
  ev->arg_name.assign(arg_name);
  ev->arg_value.assign(arg_value);
}

void Tracer::RecordComplete(std::string_view name, std::string_view category,
                            int64_t start_micros, int64_t dur_micros) {
  Record(name, category, 'X', start_micros, dur_micros < 0 ? 0 : dur_micros,
         {}, {});
}

void Tracer::RecordInstant(std::string_view name, std::string_view category,
                           std::string_view arg_name,
                           std::string_view arg_value) {
  Record(name, category, 'i', registry_->NowMicros(), 0, arg_name, arg_value);
}

std::vector<TraceEvent> Tracer::Events() const {
  MutexLock lock(&mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // Full ring: next_ points at the oldest event.
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

uint64_t Tracer::dropped_count() const {
  MutexLock lock(&mu_);
  return dropped_;
}

JsonValue Tracer::ToChromeJson() const {
  std::vector<TraceEvent> events = Events();
  uint64_t dropped = dropped_count();
  JsonValue doc = JsonValue::Object();
  JsonValue arr = JsonValue::Array();
  for (const TraceEvent& ev : events) {
    JsonValue obj = JsonValue::Object();
    obj.Set("name", JsonValue::Str(ev.name));
    obj.Set("cat", JsonValue::Str(ev.category));
    obj.Set("ph", JsonValue::Str(std::string(1, ev.phase)));
    obj.Set("ts", JsonValue::Int(ev.ts_micros));
    if (ev.phase == 'X') {
      obj.Set("dur", JsonValue::Int(ev.dur_micros));
    } else {
      // Chrome instant events need a scope; "t" = thread.
      obj.Set("s", JsonValue::Str("t"));
    }
    obj.Set("pid", JsonValue::Int(1));
    obj.Set("tid", JsonValue::Int(static_cast<int64_t>(ev.tid)));
    if (!ev.arg_name.empty()) {
      JsonValue args = JsonValue::Object();
      args.Set(ev.arg_name, JsonValue::Str(ev.arg_value));
      obj.Set("args", std::move(args));
    }
    arr.Append(std::move(obj));
  }
  doc.Set("traceEvents", std::move(arr));
  doc.Set("displayTimeUnit", JsonValue::Str("ms"));
  JsonValue other = JsonValue::Object();
  other.Set("dropped_events", JsonValue::Int(static_cast<int64_t>(dropped)));
  doc.Set("otherData", std::move(other));
  return doc;
}

void TraceSpan::Stop() {
  if (tracer_ == nullptr) return;
  int64_t end = tracer_->NowMicros();
  tracer_->RecordComplete(name_, category_, start_, end - start_);
  tracer_ = nullptr;
}

}  // namespace sqlledger
