// Tests for the observability subsystem (DESIGN.md §10): histogram bucket
// math and quantile bounds, sharded-counter conservation under ParallelFor,
// span trees on a manual clock, logger rate limiting, and the registry's
// text/JSONL exposition.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/threadpool.h"
#include "src/util/timer.h"

namespace lightlt::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram buckets and quantiles

TEST(ObsHistogramTest, BucketBoundsAreConsistent) {
  // Buckets are half-open [lower, upper): values strictly inside the
  // interval map to bucket i, values just past the upper bound to i + 1.
  // (Exact boundary values are nudged by 1e-9 relative — well inside the
  // ~19% bucket width — so libm rounding at the quarter-octave boundaries
  // cannot flip the expected index.)
  for (size_t i = 1; i + 1 < Histogram::kNumBuckets; ++i) {
    const double lower = Histogram::BucketLowerBound(i);
    const double upper = Histogram::BucketUpperBound(i);
    ASSERT_LT(lower, upper);
    EXPECT_EQ(Histogram::BucketIndex(lower * (1.0 + 1e-9)), i)
        << "bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(upper * (1.0 - 1e-9)), i)
        << "bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(upper * (1.0 + 1e-9)), i + 1)
        << "bucket " << i;
    EXPECT_NEAR(upper / lower, Histogram::BucketRatio(), 1e-9);
  }
}

TEST(ObsHistogramTest, ClampBucketsCatchExtremes) {
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-3.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
  EXPECT_TRUE(std::isinf(
      Histogram::BucketUpperBound(Histogram::kNumBuckets - 1)));
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0.0);
}

TEST(ObsHistogramTest, SnapshotCountsAndSumAreExact) {
  Histogram h;
  const std::vector<double> values = {1e-4, 2e-4, 3e-3, 0.5, 0.5, 7.0};
  double expected_sum = 0.0;
  for (double v : values) {
    h.Record(v);
    expected_sum += v;
  }
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, values.size());
  EXPECT_NEAR(snap.sum, expected_sum, 1e-12);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, values.size());
  EXPECT_NEAR(snap.Mean(), expected_sum / values.size(), 1e-12);
}

TEST(ObsHistogramTest, QuantileReturnsRankBucketUpperBound) {
  Histogram h;
  // 100 observations of 1.0 and one of 100.0: p50 must report the bucket
  // holding 1.0, p995 the bucket holding 100.0 — each as its upper bound,
  // so the true value lies in [bound / ratio, bound).
  for (int i = 0; i < 100; ++i) h.Record(1.0);
  h.Record(100.0);
  const HistogramSnapshot snap = h.Snapshot();
  const double ratio = Histogram::BucketRatio();

  const double p50 = snap.Quantile(0.50);
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 1.0 * ratio * (1.0 + 1e-9));

  const double p995 = snap.Quantile(0.995);
  EXPECT_GT(p995, 100.0);
  EXPECT_LE(p995, 100.0 * ratio * (1.0 + 1e-9));

  EXPECT_EQ(HistogramSnapshot{}.Quantile(0.5), 0.0);
}

TEST(ObsHistogramTest, QuantileRankUsesCeil) {
  Histogram h;
  h.Record(1.0);
  h.Record(1000.0);
  const HistogramSnapshot snap = h.Snapshot();
  // rank(0.5) = ceil(0.5 * 2) = 1 → the first (smaller) observation.
  EXPECT_LT(snap.Quantile(0.5), 2.0);
  EXPECT_GT(snap.Quantile(0.51), 999.0);
}

// ---------------------------------------------------------------------------
// Counter conservation under concurrency

TEST(ObsCounterTest, ShardedIncrementsConserveUnderParallelFor) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test_events_total");
  ThreadPool pool(8);
  constexpr size_t kItems = 100000;
  ParallelFor(&pool, kItems, [&](size_t i) {
    counter->Increment();
    if (i % 10 == 0) counter->Increment(2);
  });
  EXPECT_EQ(counter->Value(), kItems + 2 * (kItems / 10));
}

TEST(ObsCounterTest, GaugeSetAndAdd) {
  Gauge g;
  g.Set(41.0);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.Value(), 42.5);
}

TEST(ObsCounterTest, HistogramRecordsConserveUnderParallelFor) {
  Histogram h;
  ThreadPool pool(8);
  constexpr size_t kItems = 50000;
  ParallelFor(&pool, kItems, [&](size_t i) {
    h.Record(1e-3 * static_cast<double>(1 + (i % 7)));
  });
  EXPECT_EQ(h.Snapshot().count, kItems);
}

// ---------------------------------------------------------------------------
// Tracing

TEST(ObsTraceTest, SpanTreeShapeOnManualClock) {
  uint64_t now = 100;
  Trace trace([&now]() { return now; });

  Span query = trace.StartSpan("query");
  now = 110;
  {
    Span embed = trace.StartSpan("embed", query);
    now = 150;
  }  // embed ends at 150
  Span search = trace.StartSpan("search", query);
  now = 180;
  Span scan = trace.StartSpan("adc_scan", search);
  now = 250;
  scan.End();
  scan.End();  // idempotent
  search.End();
  now = 260;
  query.End();

  const auto records = trace.Records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].name, "query");
  EXPECT_EQ(records[0].parent, -1);
  EXPECT_EQ(records[0].start_ns, 100u);
  EXPECT_EQ(records[0].end_ns, 260u);
  EXPECT_EQ(records[1].name, "embed");
  EXPECT_EQ(records[1].parent, 0);
  EXPECT_EQ(records[1].start_ns, 110u);
  EXPECT_EQ(records[1].end_ns, 150u);
  EXPECT_EQ(records[2].name, "search");
  EXPECT_EQ(records[2].parent, 0);
  EXPECT_EQ(records[3].name, "adc_scan");
  EXPECT_EQ(records[3].parent, 2);
  EXPECT_EQ(records[3].end_ns - records[3].start_ns, 70u);

  const std::string rendered = trace.Render();
  EXPECT_NE(rendered.find("query"), std::string::npos);
  EXPECT_NE(rendered.find("adc_scan"), std::string::npos);
}

TEST(ObsTraceTest, MovedSpanEndsOnce) {
  uint64_t now = 0;
  Trace trace([&now]() { return now; });
  Span outer;
  {
    Span inner = trace.StartSpan("moved");
    now = 5;
    outer = std::move(inner);
  }  // moved-from inner must not close the record
  const auto mid = trace.Records();
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid[0].end_ns, 0u);  // still open
  now = 9;
  outer.End();
  EXPECT_EQ(trace.Records()[0].end_ns, 9u);
}

// ---------------------------------------------------------------------------
// Histogram snapshot merge (fleet aggregation, DESIGN.md §15)

TEST(ObsHistogramMergeTest, MergeAddsBucketsCountAndSumExactly) {
  Histogram a, b;
  a.Record(0.001);
  a.Record(0.5);
  b.Record(0.5);
  b.Record(7.0);
  b.Record(7.0);
  const HistogramSnapshot sa = a.Snapshot();
  const HistogramSnapshot sb = b.Snapshot();

  HistogramSnapshot merged = sa;
  ASSERT_TRUE(merged.MergeFrom(sb).ok());
  EXPECT_EQ(merged.count, sa.count + sb.count);
  EXPECT_DOUBLE_EQ(merged.sum, sa.sum + sb.sum);
  ASSERT_EQ(merged.counts.size(), sa.counts.size());
  for (size_t i = 0; i < merged.counts.size(); ++i) {
    EXPECT_EQ(merged.counts[i], sa.counts[i] + sb.counts[i]) << "bucket " << i;
  }
}

TEST(ObsHistogramMergeTest, EmptyAccumulatorAdoptsLayout) {
  Histogram h;
  h.Record(0.25);
  HistogramSnapshot acc;  // zero-initialised, no buckets
  ASSERT_TRUE(acc.MergeFrom(h.Snapshot()).ok());
  EXPECT_EQ(acc.count, 1u);
  EXPECT_EQ(acc.counts.size(), Histogram::kNumBuckets);
  // Merging an empty (bucketless) other into a shaped accumulator is a
  // no-op, not an error.
  ASSERT_TRUE(acc.MergeFrom(HistogramSnapshot{}).ok());
  EXPECT_EQ(acc.count, 1u);
}

TEST(ObsHistogramMergeTest, MismatchedLayoutIsRejectedUntouched) {
  Histogram h;
  h.Record(1.0);
  HistogramSnapshot acc = h.Snapshot();
  const HistogramSnapshot before = acc;

  HistogramSnapshot alien;  // a build with different bucket constants
  alien.count = 5;
  alien.sum = 5.0;
  alien.counts.assign(7, 0);
  alien.counts[3] = 5;

  const Status s = acc.MergeFrom(alien);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(acc.count, before.count);
  EXPECT_EQ(acc.counts, before.counts);
  EXPECT_DOUBLE_EQ(acc.sum, before.sum);
}

TEST(ObsHistogramMergeTest, FleetAggregateConservesAcrossMembers) {
  // Merging N per-shard snapshots must equal one histogram that saw every
  // observation — count, sum, and every bucket, exactly.
  constexpr size_t kMembers = 4;
  Histogram shard[kMembers];
  Histogram all;
  uint64_t x = 12345;
  for (size_t m = 0; m < kMembers; ++m) {
    for (int i = 0; i < 100; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const double v = 1e-4 * static_cast<double>(1 + (x >> 33) % 100000);
      shard[m].Record(v);
      all.Record(v);
    }
  }
  HistogramSnapshot merged;
  for (size_t m = 0; m < kMembers; ++m) {
    ASSERT_TRUE(merged.MergeFrom(shard[m].Snapshot()).ok());
  }
  const HistogramSnapshot expected = all.Snapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.counts, expected.counts);
  EXPECT_NEAR(merged.sum, expected.sum, 1e-9 * expected.sum);
  EXPECT_DOUBLE_EQ(merged.Quantile(0.95), expected.Quantile(0.95));
}

TEST(ObsRegistryTest, AddLabelComposesWithExistingLabels) {
  EXPECT_EQ(AddLabel("x_total", "shard", "3"), "x_total{shard=\"3\"}");
  EXPECT_EQ(AddLabel("x_total{outcome=\"ok\"}", "shard", "3"),
            "x_total{outcome=\"ok\",shard=\"3\"}");
  EXPECT_EQ(AddLabel(AddLabel("x", "shard", "1"), "replica", "2"),
            "x{shard=\"1\",replica=\"2\"}");
  // Values are escaped the same way WithLabel escapes them.
  EXPECT_EQ(AddLabel("x", "k", "a\"b"), "x{k=\"a\\\"b\"}");
}

TEST(ObsRegistryTest, SnapshotDumpsEveryKindWithBuckets) {
  MetricsRegistry registry;
  registry.GetCounter("b_total")->Increment(2);
  registry.GetCounter("a_total")->Increment(1);
  registry.GetGauge("g")->Set(1.5);
  registry.RegisterCallbackGauge("cb", []() { return 9.0; });
  registry.GetHistogram("h_seconds")->Record(0.125);

  const RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a_total");  // sorted by name
  EXPECT_EQ(snap.counters[0].value, 1u);
  EXPECT_EQ(snap.counters[1].name, "b_total");
  EXPECT_EQ(snap.counters[1].value, 2u);
  ASSERT_EQ(snap.gauges.size(), 2u);  // plain gauges, then callback gauges
  EXPECT_EQ(snap.gauges[0].name, "g");
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.5);
  EXPECT_EQ(snap.gauges[1].name, "cb");
  EXPECT_DOUBLE_EQ(snap.gauges[1].value, 9.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "h_seconds");
  EXPECT_EQ(snap.histograms[0].snapshot.count, 1u);
  EXPECT_EQ(snap.histograms[0].snapshot.counts.size(),
            Histogram::kNumBuckets);
}

// ---------------------------------------------------------------------------
// Distributed tracing primitives (DESIGN.md §15)

TEST(ObsTraceTest, EpochAnchorAlignsSteadyReadingsToUnixTime) {
  uint64_t steady = 1000;
  uint64_t unix_ns = 5000000;
  Trace trace([&steady]() { return steady; }, [&unix_ns]() { return unix_ns; });
  EXPECT_EQ(trace.epoch_steady_nanos(), 1000u);
  EXPECT_EQ(trace.epoch_unix_nanos(), 5000000u);
  EXPECT_EQ(trace.unix_minus_steady(), 5000000 - 1000);
  EXPECT_EQ(trace.AbsoluteUnixNanos(1500), 5000500u);
}

TEST(ObsTraceTest, TraceIdsAreNonZeroUniqueAndOverridable) {
  Trace a, b;
  EXPECT_NE(a.trace_id(), 0u);
  EXPECT_NE(b.trace_id(), 0u);
  EXPECT_NE(a.trace_id(), b.trace_id());
  a.set_trace_id(42);
  EXPECT_EQ(a.trace_id(), 42u);
  EXPECT_EQ(TraceIdHex(42), "000000000000002a");
  EXPECT_EQ(TraceIdHex(0xDEADBEEFCAFEF00Dull), "deadbeefcafef00d");
}

TEST(ObsTraceTest, StartSpanAtBackdatesAndAddCompleteSpanCloses) {
  uint64_t now = 500;
  Trace trace([&now]() { return now; });
  Span root = trace.StartSpanAt("rpc_recv", Span(), 100);
  const int32_t child = trace.AddCompleteSpan("decode", root, 120, 180);
  now = 900;
  root.End();

  const auto records = trace.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].start_ns, 100u);
  EXPECT_EQ(records[0].end_ns, 900u);
  EXPECT_EQ(child, 1);
  EXPECT_EQ(records[1].parent, 0);
  EXPECT_EQ(records[1].start_ns, 120u);
  EXPECT_EQ(records[1].end_ns, 180u);
}

TEST(ObsTraceTest, AttachRemoteRebasesParentsAndMarksShard) {
  uint64_t now = 10;
  Trace trace([&now]() { return now; });
  Span local_root = trace.StartSpan("rpc");  // index 0

  std::vector<Trace::SpanRecord> remote(3);
  remote[0].name = "rpc_recv";
  remote[0].parent = -1;  // remote root → hangs off the local parent
  remote[0].start_ns = 20;
  remote[0].end_ns = 90;
  remote[1].name = "scan";
  remote[1].parent = 0;  // remote-local index → re-based by +1
  remote[1].start_ns = 30;
  remote[1].end_ns = 80;
  remote[2].name = "mangled";
  remote[2].parent = 7;  // out of range (forward ref) → clamped to parent
  remote[2].start_ns = 40;
  remote[2].end_ns = 50;
  trace.AttachRemote(local_root, std::move(remote), /*shard=*/2);
  local_root.End();

  const auto records = trace.Records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_FALSE(records[0].remote);
  EXPECT_EQ(records[0].shard, -1);
  EXPECT_EQ(records[1].name, "rpc_recv");
  EXPECT_EQ(records[1].parent, 0);  // spliced under the local rpc span
  EXPECT_TRUE(records[1].remote);
  EXPECT_EQ(records[1].shard, 2);
  EXPECT_EQ(records[2].name, "scan");
  EXPECT_EQ(records[2].parent, 1);  // remote index 0 → trace index 1
  EXPECT_EQ(records[3].name, "mangled");
  EXPECT_EQ(records[3].parent, 0);  // malformed parent clamped, not trusted
  EXPECT_TRUE(records[3].remote);
}

TEST(ObsTraceTest, ShiftSpanTimesClampsAndPreservesOpenMarkers) {
  std::vector<Trace::SpanRecord> records(3);
  records[0].start_ns = 100;
  records[0].end_ns = 200;
  records[1].start_ns = 50;
  records[1].end_ns = 0;  // still open
  records[2].start_ns = 10;
  records[2].end_ns = 30;

  ShiftSpanTimes(&records, -60);
  EXPECT_EQ(records[0].start_ns, 40u);
  EXPECT_EQ(records[0].end_ns, 140u);
  EXPECT_EQ(records[1].start_ns, 0u);   // clamped at zero
  EXPECT_EQ(records[1].end_ns, 0u);     // open marker preserved
  EXPECT_EQ(records[2].start_ns, 0u);
  EXPECT_GE(records[2].end_ns, 1u);     // closed span stays closed

  ShiftSpanTimes(&records, 1000);
  EXPECT_EQ(records[0].start_ns, 1040u);
  EXPECT_EQ(records[1].end_ns, 0u);  // still open after a positive shift
}

TEST(ObsTraceTest, RenderJsonlEmitsAbsoluteTimesAndShardAttribution) {
  uint64_t steady = 100;
  uint64_t unix_ns = 1000000;
  Trace trace([&steady]() { return steady; }, [&unix_ns]() { return unix_ns; });
  trace.set_trace_id(0xABC);
  Span rpc = trace.StartSpan("rpc");
  std::vector<Trace::SpanRecord> remote(1);
  remote[0].name = "rpc_recv";
  remote[0].parent = -1;
  remote[0].start_ns = 120;
  remote[0].end_ns = 150;
  trace.AttachRemote(rpc, std::move(remote), /*shard=*/1);
  steady = 200;
  rpc.End();

  const std::string jsonl = trace.RenderJsonl();
  EXPECT_NE(jsonl.find("\"trace_id\":\"0000000000000abc\""),
            std::string::npos);
  // steady 120 + (1000000 − 100) anchor offset.
  EXPECT_NE(jsonl.find("\"start_unix_ns\":1000020"), std::string::npos);
  EXPECT_NE(jsonl.find("\"shard\":1"), std::string::npos);
  EXPECT_NE(jsonl.find("\"remote\":true"), std::string::npos);
  // One line per span.
  size_t lines = 0;
  for (char c : jsonl) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

// ---------------------------------------------------------------------------
// Logging

TEST(ObsLoggerTest, RateLimitSuppressesAndCounts) {
  double now = 0.0;
  std::vector<std::string> lines;
  Logger::Options opts;
  opts.min_level = LogLevel::kInfo;
  opts.stream = nullptr;
  opts.rate_per_second = 1.0;
  opts.burst = 2.0;
  opts.clock = [&now]() { return now; };
  opts.callback = [&lines](const std::string& line) {
    lines.push_back(line);
  };
  Logger logger(opts);

  logger.Log(LogLevel::kInfo, "test", "a");
  logger.Log(LogLevel::kInfo, "test", "b");
  logger.Log(LogLevel::kInfo, "test", "c");  // bucket empty → suppressed
  EXPECT_EQ(lines.size(), 2u);
  EXPECT_EQ(logger.emitted_count(), 2u);
  EXPECT_EQ(logger.suppressed_count(), 1u);

  now = 1.5;  // refills 1.5 tokens
  logger.Log(LogLevel::kInfo, "test", "d");
  // The first grant after a suppression run is preceded by a summary line
  // naming what was lost; the summary is not itself a counted event.
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[2].find("rate limit lifted"), std::string::npos);
  EXPECT_NE(lines[2].find("suppressed=1"), std::string::npos);
  EXPECT_NE(lines[3].find("\"d\""), std::string::npos);
  EXPECT_EQ(logger.emitted_count(), 3u);
  EXPECT_EQ(logger.suppressed_count(), 1u);
}

TEST(ObsLoggerTest, LevelsAndFieldFormatting) {
  std::vector<std::string> lines;
  Logger::Options opts;
  opts.min_level = LogLevel::kWarn;
  opts.stream = nullptr;
  opts.callback = [&lines](const std::string& line) {
    lines.push_back(line);
  };
  Logger logger(opts);

  logger.Log(LogLevel::kInfo, "trainer", "below threshold");
  EXPECT_TRUE(lines.empty());
  EXPECT_FALSE(logger.Enabled(LogLevel::kInfo));

  logger.Log(LogLevel::kWarn, "trainer", "epoch \"done\"",
             {{"epoch", 3}, {"loss", 0.25}, {"path", "a b"}});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("level=warn"), std::string::npos);
  EXPECT_NE(lines[0].find("component=trainer"), std::string::npos);
  EXPECT_NE(lines[0].find("msg=\"epoch \\\"done\\\"\""), std::string::npos);
  EXPECT_NE(lines[0].find("epoch=3"), std::string::npos);
  EXPECT_NE(lines[0].find("loss=0.25"), std::string::npos);
  EXPECT_NE(lines[0].find("path=\"a b\""), std::string::npos);

  logger.set_min_level(LogLevel::kDebug);
  logger.Log(LogLevel::kDebug, "trainer", "now visible");
  EXPECT_EQ(lines.size(), 2u);
}

// ---------------------------------------------------------------------------
// Registry exposition

TEST(ObsRegistryTest, GetReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x_total");
  Counter* b = registry.GetCounter("x_total");
  EXPECT_EQ(a, b);
  a->Increment(5);
  EXPECT_EQ(b->Value(), 5u);
  EXPECT_NE(static_cast<void*>(registry.GetGauge("x")),
            static_cast<void*>(nullptr));
}

TEST(ObsRegistryTest, RenderTextExposesAllKinds) {
  MetricsRegistry registry;
  registry.GetCounter(WithLabel("serving_requests_total", "outcome", "served"))
      ->Increment(7);
  registry.GetGauge("serving_queue_depth")->Set(1.0);
  registry.RegisterCallbackGauge("serving_in_flight", []() { return 3.0; });
  Histogram* lat = registry.GetHistogram(
      WithLabel("serving_latency_seconds", "outcome", "served"));
  lat->Record(0.010);
  lat->Record(0.020);

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# TYPE serving_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("serving_requests_total{outcome=\"served\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE serving_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("serving_in_flight 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serving_latency_seconds summary"),
            std::string::npos);
  EXPECT_NE(
      text.find("serving_latency_seconds{outcome=\"served\",quantile=\"0.5\""),
      std::string::npos);
  EXPECT_NE(text.find("serving_latency_seconds_count{outcome=\"served\"} 2"),
            std::string::npos);
}

TEST(ObsRegistryTest, RenderJsonlOneObjectPerMetric) {
  MetricsRegistry registry;
  registry.GetCounter("a_total")->Increment();
  registry.GetGauge("b")->Set(2.5);
  registry.GetHistogram("c_seconds")->Record(0.5);
  const std::string jsonl = registry.RenderJsonl();
  size_t objects = 0;
  for (size_t pos = 0; (pos = jsonl.find('\n', pos)) != std::string::npos;
       ++pos) {
    ++objects;
  }
  EXPECT_EQ(objects, 3u);
  EXPECT_NE(jsonl.find("\"name\":\"a_total\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"p99\""), std::string::npos);
}

TEST(ObsRegistryTest, EscapeLabelValueHandlesPathologicalCharacters) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("back\\slash"), "back\\\\slash");
  EXPECT_EQ(EscapeLabelValue("quo\"te"), "quo\\\"te");
  EXPECT_EQ(EscapeLabelValue("new\nline"), "new\\nline");
  EXPECT_EQ(EscapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
}

TEST(ObsRegistryTest, RenderTextEscapesPathologicalLabelValues) {
  // Prometheus exposition format: inside a label value, backslash, double
  // quote and newline must be escaped as \\, \" and \n. A counter whose
  // label value carries all three must render as valid exposition text —
  // one physical line, escapes intact.
  MetricsRegistry registry;
  registry.GetCounter(WithLabel("evil_total", "path", "a\\b\"c\nd"))
      ->Increment();
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("evil_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
            std::string::npos)
      << text;
  // Exactly the HELP and TYPE headers plus one sample line: the raw
  // newline inside the label value must not have produced a fourth
  // physical line.
  size_t lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3u) << text;
  // No raw (unescaped) quote-newline sequence from the label value.
  EXPECT_EQ(text.find("c\nd"), std::string::npos);
}

TEST(ObsRegistryTest, ScopedTimerRecordsOnDestruction) {
  Histogram h;
  {
    ScopedTimer timer(&h);
  }
  EXPECT_EQ(h.Snapshot().count, 1u);
  {
    ScopedTimer timer(&h);
    timer.Cancel();
  }
  EXPECT_EQ(h.Snapshot().count, 1u);  // cancelled → no second record
  ScopedTimer null_sink(nullptr);     // must not crash on destruction
}

}  // namespace
}  // namespace lightlt::obs
