// Tier-1 coverage for the observability layer (DESIGN.md §13): histogram
// bucket boundaries and the overflow bucket, concurrent recording, snapshot
// merge algebra, percentile estimation, metric-name validation, trace
// ring-buffer wraparound, and byte-identical JSON under a pinned clock.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/metrics.h"
#include "util/trace.h"

namespace sqlledger {
namespace {

// ---- Histogram bucket layout ----------------------------------------

TEST(HistogramBuckets, BoundariesMatchBase2Layout) {
  // Bucket 0 holds exactly 0; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(HistogramSnapshot::BucketLowerBound(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(0), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketLowerBound(1), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(1), 2u);
  EXPECT_EQ(HistogramSnapshot::BucketLowerBound(5), 16u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(5), 32u);

  EXPECT_EQ(HistogramSnapshot::BucketIndex(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(1), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(2), 2u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(3), 2u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(4), 3u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(1023), 10u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(1024), 11u);

  // Every bucket's bounds agree with BucketIndex: lower bound maps into the
  // bucket, upper bound maps into the next.
  for (size_t i = 0; i + 1 < HistogramSnapshot::kNumBuckets; i++) {
    EXPECT_EQ(HistogramSnapshot::BucketIndex(
                  HistogramSnapshot::BucketLowerBound(i)),
              i);
    EXPECT_EQ(HistogramSnapshot::BucketIndex(
                  HistogramSnapshot::BucketUpperBound(i)),
              i + 1);
  }
}

TEST(HistogramBuckets, OverflowBucketCatchesHugeValues) {
  constexpr size_t kLast = HistogramSnapshot::kNumBuckets - 1;
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(kLast), UINT64_MAX);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(UINT64_MAX), kLast);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(uint64_t{1} << 50), kLast);

  Histogram h;
  const uint64_t huge = uint64_t{1} << 45;
  h.Record(huge);
  h.Record(huge + 7);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.buckets[kLast], 2u);
  EXPECT_EQ(s.max, huge + 7);
  // The overflow bucket has no finite upper bound to interpolate against;
  // percentiles landing there report the exact tracked max.
  EXPECT_EQ(s.Percentile(99), static_cast<double>(huge + 7));
}

TEST(Histogram, CountSumMaxAndPercentiles) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; v++) h.Record(v);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 5050u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);
  // Buckets are coarse (base 2), so percentile estimates are interpolated;
  // they must stay within the holding bucket and never exceed the max.
  double p50 = s.Percentile(50);
  EXPECT_GE(p50, 32.0);
  EXPECT_LT(p50, 64.0);
  EXPECT_LE(s.Percentile(99), 100.0);
  // The final rank reports the exact max, not an interpolation.
  EXPECT_EQ(s.Percentile(100), 100.0);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  Histogram h;
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.Percentile(50), 0.0);
  EXPECT_EQ(s.Mean(), 0.0);
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; i++)
        h.Record(static_cast<uint64_t>(t) * kPerThread + i);
    });
  }
  for (auto& th : threads) th.join();
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.max, kThreads * kPerThread - 1);
  const uint64_t n = kThreads * kPerThread;
  EXPECT_EQ(s.sum, n * (n - 1) / 2);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(HistogramSnapshot, MergeIsCommutativeAndAssociative) {
  Histogram ha, hb, hc;
  for (uint64_t v = 0; v < 50; v++) ha.Record(v * 3);
  for (uint64_t v = 0; v < 70; v++) hb.Record(v * 17 + 1);
  for (uint64_t v = 0; v < 30; v++) hc.Record(v * 1000);
  HistogramSnapshot a = ha.Snapshot(), b = hb.Snapshot(), c = hc.Snapshot();

  HistogramSnapshot ab = a;
  ab.Merge(b);
  HistogramSnapshot ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab.count, ba.count);
  EXPECT_EQ(ab.sum, ba.sum);
  EXPECT_EQ(ab.max, ba.max);
  EXPECT_EQ(ab.buckets, ba.buckets);

  HistogramSnapshot ab_c = ab;
  ab_c.Merge(c);
  HistogramSnapshot bc = b;
  bc.Merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.Merge(bc);
  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_EQ(ab_c.sum, a_bc.sum);
  EXPECT_EQ(ab_c.max, a_bc.max);
  EXPECT_EQ(ab_c.buckets, a_bc.buckets);
  EXPECT_EQ(ab_c.count, 150u);
}

// ---- Registry --------------------------------------------------------

TEST(MetricRegistry, GetReturnsStablePointersPerName) {
  MetricRegistry reg;
  Counter* c1 = reg.GetCounter("wal.syncs_total");
  Counter* c2 = reg.GetCounter("wal.syncs_total");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, reg.GetCounter("commit.txns_total"));
  Histogram* h1 = reg.GetHistogram("wal.sync_micros");
  EXPECT_EQ(h1, reg.GetHistogram("wal.sync_micros"));

  c1->Add(3);
  reg.GetGauge("digest.outbox_depth")->Set(5);
  h1->Record(12);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("wal.syncs_total"), 3u);
  EXPECT_EQ(snap.gauges.at("digest.outbox_depth"), 5);
  EXPECT_EQ(snap.histograms.at("wal.sync_micros").count, 1u);
}

TEST(MetricRegistry, PinnedClockMakesJsonByteIdentical) {
  auto run = [] {
    int64_t t = 0;
    MetricRegistry reg([&t] { return t += 10; });
    reg.GetCounter("commit.txns_total")->Add(42);
    reg.GetGauge("digest.breaker_state")->Set(1);
    Histogram* h = reg.GetHistogram("wal.sync_micros");
    LatencyTimer timer(&reg, h);
    timer.Stop();
    h->Record(100);
    return MetricsToJson(reg.Snapshot()).Dump();
  };
  std::string first = run();
  EXPECT_EQ(first, run());
  // Shape: the documented top-level sections are present.
  EXPECT_NE(first.find("\"counters\""), std::string::npos);
  EXPECT_NE(first.find("\"gauges\""), std::string::npos);
  EXPECT_NE(first.find("\"histograms\""), std::string::npos);
  EXPECT_NE(first.find("\"commit.txns_total\":42"), std::string::npos);
  EXPECT_NE(first.find("\"p99\""), std::string::npos);
}

TEST(MetricsSnapshotTest, MergeAddsCountersAndHistograms) {
  MetricRegistry a, b;
  a.GetCounter("commit.txns_total")->Add(5);
  b.GetCounter("commit.txns_total")->Add(7);
  b.GetCounter("commit.aborts_total")->Add(1);
  a.GetHistogram("commit.group_size")->Record(4);
  b.GetHistogram("commit.group_size")->Record(9);
  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.counters.at("commit.txns_total"), 12u);
  EXPECT_EQ(merged.counters.at("commit.aborts_total"), 1u);
  EXPECT_EQ(merged.histograms.at("commit.group_size").count, 2u);
  EXPECT_EQ(merged.histograms.at("commit.group_size").max, 9u);
}

TEST(MetricNames, ValidatorEnforcesSubsystemNounUnit) {
  EXPECT_TRUE(IsValidMetricName("wal.sync_micros"));
  EXPECT_TRUE(IsValidMetricName("commit.group_size"));
  EXPECT_TRUE(IsValidMetricName("digest.outbox_depth"));
  EXPECT_TRUE(IsValidMetricName("verify.blocks_reverified_total"));
  EXPECT_TRUE(IsValidMetricName("digest.breaker_state"));

  EXPECT_FALSE(IsValidMetricName("walSyncs"));           // no dot
  EXPECT_FALSE(IsValidMetricName("wal.syncMicros"));     // camelCase
  EXPECT_FALSE(IsValidMetricName("wal.sync_seconds"));   // unknown unit
  EXPECT_FALSE(IsValidMetricName("Wal.sync_micros"));    // uppercase
  EXPECT_FALSE(IsValidMetricName("wal."));               // empty noun
  EXPECT_FALSE(IsValidMetricName(".sync_micros"));       // empty subsystem
  EXPECT_FALSE(IsValidMetricName("wal.a.b_micros"));     // two dots
}

// ---- Tracer ----------------------------------------------------------

TEST(Tracer, RecordsSpansAndInstantsWithPinnedClock) {
  int64_t t = 1000;
  MetricRegistry reg([&t] { return t += 5; });
  Tracer tracer(&reg, 16);
  tracer.RecordComplete("commit.group", "commit", 100, 40);
  tracer.RecordInstant("digest.breaker", "digest", "from", "healthy");
  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].ts_micros, 100);
  EXPECT_EQ(events[0].dur_micros, 40);
  EXPECT_EQ(events[1].phase, 'i');
  EXPECT_EQ(events[1].ts_micros, 1005);  // stamped from the pinned clock
  EXPECT_EQ(events[1].arg_name, "from");
  EXPECT_EQ(events[1].arg_value, "healthy");

  std::string json = tracer.ToChromeJson().Dump();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(Tracer, RingWrapsOldestFirstAndCountsDrops) {
  MetricRegistry reg([] { return int64_t{0}; });
  constexpr size_t kCap = 8;
  Tracer tracer(&reg, kCap);
  EXPECT_EQ(tracer.capacity(), kCap);
  for (int i = 0; i < 20; i++)
    tracer.RecordComplete("ev" + std::to_string(i), "test", i, 1);
  EXPECT_EQ(tracer.dropped_count(), 20u - kCap);
  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), kCap);
  // The surviving window is the newest kCap events, exported oldest first.
  for (size_t i = 0; i < kCap; i++) {
    EXPECT_EQ(events[i].name, "ev" + std::to_string(20 - kCap + i));
    EXPECT_EQ(events[i].ts_micros, static_cast<int64_t>(20 - kCap + i));
  }
  std::string json = tracer.ToChromeJson().Dump();
  EXPECT_NE(json.find("\"dropped_events\":12"), std::string::npos);
}

TEST(Tracer, OverwrittenSlotKeepsNoStaleFields) {
  // Recording assigns into the evicted event's ring slot in place, so every
  // field must be rewritten, not only those the new event uses.
  MetricRegistry reg([] { return int64_t{50}; });
  Tracer tracer(&reg, 2);
  tracer.RecordInstant("digest.breaker", "digest", "from", "open");
  tracer.RecordComplete("commit.group", "commit", 10, 7);
  tracer.RecordComplete("checkpoint", "storage", 20, 3);  // evicts the instant
  tracer.RecordInstant("verify.fallback", "verify");  // evicts the first span
  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "checkpoint");
  EXPECT_EQ(events[0].category, "storage");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].dur_micros, 3);
  EXPECT_EQ(events[0].arg_name, "");
  EXPECT_EQ(events[0].arg_value, "");
  EXPECT_EQ(events[1].name, "verify.fallback");
  EXPECT_EQ(events[1].phase, 'i');
  EXPECT_EQ(events[1].ts_micros, 50);
  EXPECT_EQ(events[1].dur_micros, 0);
  EXPECT_EQ(events[1].arg_name, "");
  EXPECT_EQ(tracer.ToChromeJson().Dump().find("\"args\""), std::string::npos);
}

TEST(Tracer, DisabledSpanNeverReadsClock) {
  std::atomic<int> reads{0};
  MetricRegistry reg([&reads] {
    reads.fetch_add(1);
    return int64_t{0};
  });
  {
    TraceSpan span(nullptr, "noop", "test");
  }
  LatencyTimer timer(&reg, nullptr);
  timer.Stop();
  EXPECT_EQ(reads.load(), 0);
  // A live span against the pinned registry reads exactly twice.
  Tracer tracer(&reg, 4);
  {
    TraceSpan span(&tracer, "op", "test");
  }
  EXPECT_EQ(reads.load(), 2);
  ASSERT_EQ(tracer.Events().size(), 1u);
}

}  // namespace
}  // namespace sqlledger
