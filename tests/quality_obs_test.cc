// Online quality monitoring tests (DESIGN.md §11): Wilson intervals and
// the streaming shadow-recall estimator against offline eval recall, PSI
// drift detection with hysteresis, multi-window SLO burn rates on a manual
// clock, the slow-query ring under chaos-injected latency, and the bench
// regression gate. Built as its own ctest binary with the `obs` label.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pipeline.h"
#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/eval/bench_gate.h"
#include "src/index/flat_index.h"
#include "src/obs/quality.h"
#include "src/obs/slo.h"
#include "src/serving/service.h"
#include "src/serving/shadow.h"
#include "src/util/chaos.h"
#include "src/util/threadpool.h"

namespace lightlt {
namespace {

using obs::DriftDetector;
using obs::DriftWatchOptions;
using obs::PopulationStabilityIndex;
using obs::SloTracker;
using obs::SlowQueryLog;
using obs::SlowQueryRecord;
using obs::WilsonInterval;
using obs::WilsonScore;
using serving::RetrievalService;
using serving::ServedHit;
using serving::ServiceOptions;
using serving::ServiceStats;

// ---------------------------------------------------------------------------
// Fixture (mirrors the chaos suite): a tiny long-tailed synthetic stack.

struct ServiceFixture {
  data::RetrievalBenchmark bench;
  std::shared_ptr<core::LightLtModel> model;
};

ServiceFixture MakeFixture() {
  data::SyntheticConfig cfg;
  cfg.num_classes = 5;
  cfg.feature_dim = 16;
  cfg.train_spec.num_classes = 5;
  cfg.train_spec.head_size = 40;
  cfg.train_spec.imbalance_factor = 8.0;
  cfg.queries_per_class = 4;
  cfg.database_per_class = 30;
  cfg.class_separation = 3.0f;
  cfg.nuisance_scale = 0.3f;
  cfg.seed = 444;

  ServiceFixture f;
  f.bench = data::GenerateSynthetic(cfg);

  core::ModelConfig mc;
  mc.input_dim = 16;
  mc.hidden_dims = {24};
  mc.embed_dim = 12;
  mc.num_classes = 5;
  mc.dsq.num_codebooks = 2;
  mc.dsq.num_codewords = 16;
  f.model = std::make_shared<core::LightLtModel>(mc, 3);

  core::TrainOptions opts;
  opts.epochs = 6;
  opts.learning_rate = 3e-3f;
  auto stats = core::TrainLightLt(f.model.get(), f.bench.train, opts);
  EXPECT_TRUE(stats.ok());
  return f;
}

struct ChaosGuard {
  ~ChaosGuard() { DisarmChaos(); }
};

// ---------------------------------------------------------------------------
// Wilson intervals and the streaming estimator

TEST(QualityObsTest, WilsonScoreBasicProperties) {
  const WilsonInterval vacuous = WilsonScore(0, 0);
  EXPECT_EQ(vacuous.lower, 0.0);
  EXPECT_EQ(vacuous.upper, 1.0);

  const WilsonInterval half = WilsonScore(5, 10);
  EXPECT_DOUBLE_EQ(half.center, 0.5);
  EXPECT_LT(half.lower, 0.5);
  EXPECT_GT(half.upper, 0.5);

  // Perfect recall: the interval hugs 1 from below, never exceeds it.
  const WilsonInterval perfect = WilsonScore(10, 10);
  EXPECT_DOUBLE_EQ(perfect.center, 1.0);
  EXPECT_LT(perfect.lower, 1.0);
  EXPECT_GT(perfect.lower, 0.5);
  EXPECT_DOUBLE_EQ(perfect.upper, 1.0);

  // More trials at the same proportion shrink the interval.
  const WilsonInterval small = WilsonScore(5, 10);
  const WilsonInterval large = WilsonScore(500, 1000);
  EXPECT_LT(large.upper - large.lower, small.upper - small.lower);

  // Overclaimed successes are clamped, not UB.
  const WilsonInterval clamped = WilsonScore(20, 10);
  EXPECT_DOUBLE_EQ(clamped.center, 1.0);
}

TEST(QualityObsTest, StreamingEstimatorSegmentsAndConcurrency) {
  obs::StreamingRecallEstimator estimator;
  // Concurrent feeds must lose nothing (relaxed atomics, exact totals).
  ParallelFor(&GlobalThreadPool(), 300, [&](size_t i) {
    estimator.Add(static_cast<int>(i % 3), /*successes=*/4, /*trials=*/5);
  });
  const auto overall = estimator.Snapshot(0);
  EXPECT_EQ(overall.queries, 300u);
  EXPECT_EQ(overall.successes, 1200u);
  EXPECT_EQ(overall.trials, 1500u);
  EXPECT_DOUBLE_EQ(overall.recall.center, 0.8);
  uint64_t segment_queries = 0;
  for (size_t s = 1; s < obs::kNumRecallSegments; ++s) {
    segment_queries += estimator.Snapshot(s).queries;
    EXPECT_EQ(estimator.Snapshot(s).queries, 100u);
  }
  EXPECT_EQ(segment_queries, overall.queries);

  // Unknown bucket feeds only the overall segment.
  estimator.Add(-1, 1, 1);
  EXPECT_EQ(estimator.Snapshot(0).queries, 301u);
  EXPECT_EQ(estimator.Snapshot(1).queries + estimator.Snapshot(2).queries +
                estimator.Snapshot(3).queries,
            300u);
}

// ---------------------------------------------------------------------------
// Shadow verification against offline eval recall

TEST(ShadowServingTest, EstimatorMatchesOfflineEvalRecallAtFullSampling) {
  auto f = MakeFixture();
  constexpr size_t kTopK = 5;
  ServiceOptions opts;
  opts.shadow.sample_rate = 1.0;
  opts.shadow.seed = 9;
  opts.shadow.recall_k = kTopK;
  opts.shadow.max_in_flight = 64;
  opts.shadow.pool = nullptr;  // inline: deterministic, synchronous
  opts.shadow.db_labels = f.bench.database.labels;
  opts.shadow.class_counts = f.bench.train.ClassCounts();
  auto built =
      RetrievalService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& service = built.value();
  ASSERT_NE(service.Shadow(), nullptr);

  // Offline oracle: the exact flat index over the same embedded database
  // the shadow verifier scans.
  const Matrix embedded_db =
      core::EmbedInChunks(*f.model, f.bench.database.features);
  index::FlatIndex oracle(embedded_db);

  const size_t num_queries = f.bench.query.size();
  uint64_t offline_successes = 0;
  uint64_t offline_trials = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    const Matrix query = f.bench.query.features.RowCopy(q);
    auto served = service.Query(query, kTopK);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    const Matrix embedded_query = f.model->Embed(query);
    const auto exact = oracle.Search(embedded_query.row(0), kTopK);
    offline_trials += exact.size();
    for (const auto& hit : exact) {
      for (const ServedHit& s : served.value()) {
        if (s.id == hit.id) {
          ++offline_successes;
          break;
        }
      }
    }
  }
  service.Shadow()->Flush();

  // Every served query was sampled (rate 1), none skipped, and the
  // streaming estimate agrees with the offline computation exactly.
  EXPECT_EQ(service.Shadow()->sampled_count(), num_queries);
  EXPECT_EQ(service.Shadow()->completed_count(), num_queries);
  EXPECT_EQ(service.Shadow()->skipped_budget_count(), 0u);
  const auto overall = service.Shadow()->estimator().Snapshot(0);
  EXPECT_EQ(overall.queries, num_queries);
  EXPECT_EQ(overall.successes, offline_successes);
  EXPECT_EQ(overall.trials, offline_trials);
  const double offline_recall = static_cast<double>(offline_successes) /
                                static_cast<double>(offline_trials);
  EXPECT_NEAR(overall.recall.center, offline_recall, 1e-12);
  EXPECT_LE(overall.recall.lower, offline_recall);
  EXPECT_GE(overall.recall.upper, offline_recall);

  // Head/mid/tail segmentation partitions the overall stream.
  uint64_t segmented = 0;
  for (size_t s = 1; s < obs::kNumRecallSegments; ++s) {
    segmented += service.Shadow()->estimator().Snapshot(s).queries;
  }
  EXPECT_EQ(segmented, overall.queries);

  // The per-segment recall gauges render through the registry.
  const std::string text = service.Metrics().RenderText();
  EXPECT_NE(text.find("shadow_recall{segment=\"overall\"}"),
            std::string::npos);
  EXPECT_NE(text.find("shadow_recall{segment=\"tail\"}"), std::string::npos);
}

TEST(ShadowServingTest, SeededSamplingIsDeterministicAcrossRuns) {
  auto f = MakeFixture();
  auto run = [&](uint64_t seed) {
    ServiceOptions opts;
    opts.shadow.sample_rate = 0.5;
    opts.shadow.seed = seed;
    opts.shadow.recall_k = 5;
    opts.shadow.pool = nullptr;
    auto built =
        RetrievalService::Build(f.model, f.bench.database.features, opts);
    EXPECT_TRUE(built.ok());
    const auto& service = built.value();
    for (size_t q = 0; q < f.bench.query.size(); ++q) {
      EXPECT_TRUE(
          service.Query(f.bench.query.features.RowCopy(q), 5).ok());
    }
    service.Shadow()->Flush();
    const auto snap = service.Shadow()->estimator().Snapshot(0);
    return std::pair<uint64_t, uint64_t>(snap.queries, snap.successes);
  };
  const auto a = run(123);
  const auto b = run(123);
  EXPECT_EQ(a, b);  // same seed, same traffic -> identical sample set
  // Rate 0.5 over 20 queries: all-or-nothing selection has probability
  // 2^-19 per tail; any strict subset proves the rate is applied.
  EXPECT_GT(a.first, 0u);
  EXPECT_LT(a.first, f.bench.query.size());
}

TEST(ShadowServingTest, InFlightBudgetBoundsShadowBacklog) {
  auto f = MakeFixture();
  ThreadPool pool(2);
  PoolStarver starver(&pool, 2);
  while (pool.ApproxQueueDepth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ServiceOptions opts;
  opts.shadow.sample_rate = 1.0;
  opts.shadow.seed = 7;
  opts.shadow.recall_k = 5;
  opts.shadow.max_in_flight = 1;
  opts.shadow.pool = &pool;
  auto built =
      RetrievalService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& service = built.value();

  // With the pool starved, the first sampled query holds the single
  // in-flight slot forever; every later served query is selected (rate 1)
  // but must be skipped at the budget, not queued.
  constexpr size_t kQueries = 6;
  for (size_t q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(service.Query(f.bench.query.features.RowCopy(q), 3).ok());
  }
  EXPECT_EQ(service.Shadow()->sampled_count(), 1u);
  EXPECT_EQ(service.Shadow()->skipped_budget_count(), kQueries - 1);
  EXPECT_EQ(service.Shadow()->completed_count(), 0u);

  starver.Release();
  service.Shadow()->Flush();
  EXPECT_EQ(service.Shadow()->completed_count(), 1u);
  EXPECT_EQ(service.Shadow()->estimator().Snapshot(0).queries, 1u);
}

TEST(ShadowServingTest, ConcurrentBatchSamplingStaysConsistent) {
  auto f = MakeFixture();
  ThreadPool pool(4);
  ServiceOptions opts;
  opts.shadow.sample_rate = 1.0;
  opts.shadow.seed = 21;
  opts.shadow.recall_k = 5;
  opts.shadow.max_in_flight = 8;
  opts.shadow.pool = &pool;
  auto built =
      RetrievalService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& service = built.value();

  // Batch rows race through Acquire/Submit while shadow tasks drain on the
  // same pool — the TSan-relevant path. Conservation must hold exactly:
  // every served row was either sampled or budget-skipped, and every
  // sampled task completes by Flush.
  auto rows = service.QueryBatch(f.bench.query.features, 5, &pool);
  ASSERT_TRUE(rows.ok());
  size_t served = 0;
  for (const auto& row : rows.value()) {
    if (row.ok()) ++served;
  }
  service.Shadow()->Flush();
  EXPECT_EQ(served, f.bench.query.size());
  EXPECT_EQ(service.Shadow()->sampled_count() +
                service.Shadow()->skipped_budget_count(),
            served);
  EXPECT_EQ(service.Shadow()->completed_count(),
            service.Shadow()->sampled_count());
}

// ---------------------------------------------------------------------------
// Drift detection

TEST(QualityObsTest, PopulationStabilityIndexSeparatesSameAndShifted) {
  obs::Histogram base, same, shifted;
  for (int i = 0; i < 300; ++i) base.Record(0.25);
  for (int i = 0; i < 400; ++i) base.Record(0.5);
  for (int i = 0; i < 300; ++i) base.Record(1.0);
  for (int i = 0; i < 150; ++i) same.Record(0.25);
  for (int i = 0; i < 200; ++i) same.Record(0.5);
  for (int i = 0; i < 150; ++i) same.Record(1.0);
  for (int i = 0; i < 500; ++i) shifted.Record(8.0);

  const double psi_same =
      PopulationStabilityIndex(base.Snapshot(), same.Snapshot());
  const double psi_shift =
      PopulationStabilityIndex(base.Snapshot(), shifted.Snapshot());
  EXPECT_NEAR(psi_same, 0.0, 1e-9);  // identical proportions
  EXPECT_GT(psi_shift, 1.0);         // fully disjoint support

  // Degenerate inputs are quiet, not NaN.
  EXPECT_EQ(PopulationStabilityIndex(base.Snapshot(), obs::HistogramSnapshot{}),
            0.0);
}

TEST(QualityObsTest, DriftDetectorFiresOnShiftQuietOnSteadyWithHysteresis) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  obs::Histogram* util = registry->GetHistogram("dsq_codebook_utilization");
  std::vector<std::string> events;
  obs::Logger::Options lo;
  lo.stream = nullptr;
  lo.min_level = obs::LogLevel::kInfo;
  lo.callback = [&events](const std::string& line) { events.push_back(line); };
  obs::Logger logger(lo);

  DriftDetector::Options dopts;
  dopts.logger = &logger;
  dopts.registry = registry.get();
  DriftDetector detector(dopts);
  DriftWatchOptions watch;
  watch.psi_fire = 0.25;
  watch.psi_clear = 0.10;
  watch.consecutive = 2;
  watch.min_window_count = 100;
  detector.AddWatch("dsq_codebook_utilization", util, watch);

  auto feed_steady = [&](int n) {
    for (int i = 0; i < n; ++i) util->Record(0.25);
    for (int i = 0; i < n; ++i) util->Record(0.5);
    for (int i = 0; i < n; ++i) util->Record(1.0);
  };
  auto feed_shifted = [&](int n) {
    // Codebook-utilization collapse: mass moves to one far bucket.
    for (int i = 0; i < n; ++i) util->Record(16.0);
  };

  feed_steady(300);
  ASSERT_TRUE(detector.FreezeBaseline("dsq_codebook_utilization"));

  // Steady traffic: identical proportions, PSI ~ 0, no alert.
  feed_steady(150);
  detector.CheckAll();
  EXPECT_FALSE(detector.Drifted("dsq_codebook_utilization"));
  EXPECT_LT(detector.LastPsi("dsq_codebook_utilization"), 0.10);

  // One shifted window is a strike, not yet an alert (consecutive = 2)...
  feed_shifted(400);
  detector.CheckAll();
  EXPECT_FALSE(detector.Drifted("dsq_codebook_utilization"));
  EXPECT_GT(detector.LastPsi("dsq_codebook_utilization"), 0.25);
  // ...and a clean window resets the strike count (hysteresis).
  feed_steady(150);
  detector.CheckAll();
  EXPECT_FALSE(detector.Drifted("dsq_codebook_utilization"));
  EXPECT_EQ(detector.fire_count(), 0u);

  // Two consecutive shifted windows fire exactly one alert.
  feed_shifted(400);
  detector.CheckAll();
  feed_shifted(400);
  detector.CheckAll();
  EXPECT_TRUE(detector.Drifted("dsq_codebook_utilization"));
  EXPECT_EQ(detector.fire_count(), 1u);
  EXPECT_EQ(registry
                ->GetGauge(obs::WithLabel("drift_active", "watch",
                                          "dsq_codebook_utilization"))
                ->Value(),
            1.0);
  ASSERT_FALSE(events.empty());
  EXPECT_NE(events.back().find("distribution drift"), std::string::npos);

  // A sub-threshold window is skipped without consuming the accumulating
  // traffic or flapping state.
  util->Record(0.25);
  detector.CheckAll();
  EXPECT_TRUE(detector.Drifted("dsq_codebook_utilization"));

  // Recovery clears the alert (and logs the transition).
  feed_steady(150);
  detector.CheckAll();
  EXPECT_FALSE(detector.Drifted("dsq_codebook_utilization"));
  EXPECT_EQ(detector.fire_count(), 1u);
  EXPECT_NE(events.back().find("drift cleared"), std::string::npos);
  EXPECT_EQ(registry
                ->GetGauge(obs::WithLabel("drift_active", "watch",
                                          "dsq_codebook_utilization"))
                ->Value(),
            0.0);
}

// ---------------------------------------------------------------------------
// SLO burn rates on a manual clock

TEST(QualityObsTest, SloMultiWindowBurnRateWalk) {
  double now = 0.0;
  std::vector<std::string> events;
  obs::Logger::Options lo;
  lo.stream = nullptr;
  lo.min_level = obs::LogLevel::kInfo;
  lo.callback = [&events](const std::string& line) { events.push_back(line); };
  obs::Logger logger(lo);
  auto registry = std::make_shared<obs::MetricsRegistry>();

  SloTracker::Options opts;
  opts.name = "latency";
  opts.objective = 0.9;  // error budget: 10% of requests
  opts.windows = {{/*short=*/10.0, /*long=*/100.0, /*threshold=*/2.0}};
  opts.bucket_seconds = 1.0;
  opts.horizon_seconds = 200.0;
  opts.clock = [&now] { return now; };
  opts.logger = &logger;
  opts.registry = registry.get();
  SloTracker slo(opts);

  // 50 s of healthy traffic: burn 0 on both windows.
  for (int t = 0; t < 50; ++t) {
    now = t;
    slo.Record(true);
  }
  EXPECT_FALSE(slo.Check().firing);
  EXPECT_EQ(slo.BurnRate(10.0), 0.0);

  // 20 s of outage. Short window: 100% bad = burn 10. Long window:
  // 20 bad / 70 total = 0.286 bad fraction = burn 2.86. Both >= 2 -> fire.
  for (int t = 50; t < 70; ++t) {
    now = t;
    slo.Record(false);
  }
  const auto fired = slo.Check();
  EXPECT_TRUE(fired.firing);
  ASSERT_EQ(fired.short_burn.size(), 1u);
  EXPECT_NEAR(fired.short_burn[0], 10.0, 1e-9);
  EXPECT_NEAR(fired.long_burn[0], (20.0 / 70.0) / 0.1, 1e-9);
  EXPECT_EQ(slo.fire_count(), 1u);
  EXPECT_EQ(registry
                ->GetGauge(obs::WithLabel("slo_firing", "slo", "latency"))
                ->Value(),
            1.0);
  ASSERT_FALSE(events.empty());
  EXPECT_NE(events.back().find("burn-rate alert firing"), std::string::npos);

  // Recovery: 15 s of good traffic empties the short window, so the alert
  // clears promptly even though the long window still remembers the outage
  // — the whole point of the multi-window pattern.
  for (int t = 70; t < 85; ++t) {
    now = t;
    slo.Record(true);
  }
  EXPECT_FALSE(slo.Check().firing);
  EXPECT_FALSE(slo.firing());
  EXPECT_EQ(slo.fire_count(), 1u);  // no re-fire, one transition each way
  EXPECT_NE(events.back().find("burn-rate alert cleared"), std::string::npos);
  EXPECT_EQ(slo.BadFraction(10.0), 0.0);
  EXPECT_GT(slo.BurnRate(100.0), 2.0);  // long memory persists, as designed
}

// ---------------------------------------------------------------------------
// Slow-query log

TEST(QualityObsTest, SlowQueryRingEvictsOldestAndCounts) {
  SlowQueryLog::Options opts;
  opts.capacity = 2;
  SlowQueryLog log(opts);
  for (int i = 0; i < 3; ++i) {
    SlowQueryRecord rec;
    rec.kind = "latency";
    rec.latency_seconds = 0.1 * (i + 1);
    log.Add(std::move(rec));
  }
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].id, 1u);  // record 0 evicted, oldest-first order
  EXPECT_EQ(snap[1].id, 2u);
  EXPECT_EQ(log.captured_count(), 3u);
  EXPECT_EQ(log.evicted_count(), 1u);
}

// The JSONL line of one record, byte for byte: every explain field has a
// distinct value, so a renamed, dropped or reordered key fails here.
TEST(QualityObsTest, SlowQueryJsonlLineIsPinned) {
  SlowQueryLog log(SlowQueryLog::Options{});
  SlowQueryRecord rec;
  rec.kind = "latency";
  rec.outcome = "ok";
  rec.trace_id = 0xabc;
  rec.latency_seconds = 0.25;
  rec.recall = 0.5;
  rec.explain.scan.chunks = 1;
  rec.explain.scan.items = 2;
  rec.explain.scan.probed_cells = 3;
  rec.explain.cpu_ns = 4;
  rec.explain.scan.codes_decoded = 5;
  rec.explain.scan.lut_builds = 6;
  rec.explain.scan.shortlist = 7;
  rec.explain.degraded = true;
  rec.explain.flat_fallback = true;
  rec.explain.coverage = 0.75;
  rec.explain.shards_answered = 8;
  rec.explain.failovers = 9;
  obs::Trace::SpanRecord span;
  span.name = "query";
  span.parent = -1;
  span.start_ns = 10;
  span.end_ns = 11;
  span.shard = 2;
  span.remote = true;
  rec.spans.push_back(span);
  log.Add(std::move(rec));
  EXPECT_EQ(log.RenderJsonl(),
            "{\"id\":0,\"kind\":\"latency\",\"outcome\":\"ok\","
            "\"trace_id\":\"0000000000000abc\",\"latency_seconds\":0.25,"
            "\"recall\":0.5,\"explain\":{\"chunks\":1,\"items\":2,"
            "\"probed_cells\":3,\"cpu_ns\":4,\"codes_decoded\":5,"
            "\"lut_builds\":6,\"shortlist\":7,\"degraded\":true,"
            "\"flat_fallback\":true,\"coverage\":0.75,\"shards_answered\":8,"
            "\"failovers\":9},\"spans\":[{\"name\":\"query\",\"parent\":-1,"
            "\"start_ns\":10,\"end_ns\":11,\"shard\":2,\"remote\":true}]}\n");
}

TEST(QualityObsTest, SlowQueryChaosLatencySpikeCapturesTraceAndExplain) {
  ChaosGuard guard;
  auto f = MakeFixture();
  ServiceOptions opts;
  opts.slow_query.capacity = 4;
  opts.slow_query.latency_threshold_seconds = 0.01;
  auto built =
      RetrievalService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& service = built.value();
  ASSERT_NE(service.SlowQueries(), nullptr);

  // 30 ms injected per scan chunk against a 10 ms threshold: the query is
  // served, slow, and must land in the ring with spans and scan accounting.
  ChaosPlan plan;
  plan.scan_chunk_delay_seconds = 0.03;
  ArmChaos(plan);
  ASSERT_TRUE(service.Query(f.bench.query.features.RowCopy(0), 3).ok());
  DisarmChaos();

  auto records = service.SlowQueries()->Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const SlowQueryRecord& rec = records[0];
  EXPECT_EQ(rec.kind, "latency");
  EXPECT_EQ(rec.outcome, "ok");
  EXPECT_GE(rec.latency_seconds, 0.01);
  EXPECT_GE(rec.explain.scan.chunks, 1u);
  EXPECT_EQ(rec.explain.scan.items, service.num_items());
  EXPECT_FALSE(rec.explain.degraded);
  EXPECT_FALSE(rec.explain.flat_fallback);
  // The internal trace captured the lifecycle spans even though the caller
  // passed no Trace.
  bool saw_search = false, saw_scan = false;
  for (const auto& span : rec.spans) {
    saw_search = saw_search || span.name == "search";
    saw_scan = saw_scan || span.name == "adc_scan";
  }
  EXPECT_TRUE(saw_search);
  EXPECT_TRUE(saw_scan);

  // A fast query below the threshold adds nothing.
  ASSERT_TRUE(service.Query(f.bench.query.features.RowCopy(1), 3).ok());
  EXPECT_EQ(service.SlowQueries()->captured_count(), 1u);

  // JSONL dump round-trips the record.
  const std::string path = ::testing::TempDir() + "slow_queries.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(service.SlowQueries()->DumpJsonl(path).ok());
  auto body = eval::ReadFileToString(path);
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body.value().find("\"kind\":\"latency\""), std::string::npos);
  EXPECT_NE(body.value().find("\"name\":\"adc_scan\""), std::string::npos);
  EXPECT_NE(body.value().find("\"chunks\":"), std::string::npos);
  std::remove(path.c_str());
}

TEST(QualityObsTest, ShadowRecallMissLandsInSlowQueryLog) {
  auto f = MakeFixture();
  ServiceOptions opts;
  opts.shadow.sample_rate = 1.0;
  opts.shadow.seed = 4;
  opts.shadow.recall_k = 5;
  opts.shadow.pool = nullptr;
  // Threshold 1.0: every sampled query counts as a miss (recall <= 1), so
  // the wiring is observable without engineering a genuinely bad index.
  opts.shadow.recall_miss_threshold = 1.0;
  opts.slow_query.capacity = 8;
  auto built =
      RetrievalService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& service = built.value();
  ASSERT_NE(service.SlowQueries(), nullptr);

  ASSERT_TRUE(service.Query(f.bench.query.features.RowCopy(0), 5).ok());
  service.Shadow()->Flush();
  EXPECT_EQ(service.Shadow()->recall_miss_count(), 1u);
  const auto records = service.SlowQueries()->Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, "recall_miss");
  EXPECT_GE(records[0].recall, 0.0);
  EXPECT_LE(records[0].recall, 1.0);
}

// ---------------------------------------------------------------------------
// Histogram deltas and windowed stats

TEST(QualityObsTest, HistogramSnapshotDeltaWindowsAndUnderflowGuard) {
  obs::Histogram h;
  for (int i = 0; i < 3; ++i) h.Record(1.0);
  const auto first = h.Snapshot();
  for (int i = 0; i < 2; ++i) h.Record(2.0);
  const auto second = h.Snapshot();

  const auto window = second - first;  // operator- delegates to Delta()
  EXPECT_EQ(window.count, 2u);
  EXPECT_NEAR(window.sum, 4.0, 1e-9);
  // The window contains only the 2.0 observations: its median sits in the
  // 2.0 bucket, while the cumulative median stays within one log-bucket
  // ratio (2^(1/4)) of the 1.0 majority.
  EXPECT_GE(window.Quantile(0.5), 1.9);
  EXPECT_LT(second.Quantile(0.5), 1.0 * obs::Histogram::BucketRatio() + 1e-9);

  // Reversed operands (a restarted or reset source) clamp to empty rather
  // than wrapping.
  const auto reversed = first.Delta(second);
  EXPECT_EQ(reversed.count, 0u);
  EXPECT_EQ(reversed.sum, 0.0);
}

TEST(QualityObsTest, StatsSinceReportsWindowedCountersAndLatency) {
  auto f = MakeFixture();
  auto built = RetrievalService::Build(f.model, f.bench.database.features);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& service = built.value();

  ASSERT_TRUE(service.Query(f.bench.query.features.RowCopy(0), 3).ok());
  const ServiceStats before = service.Stats();
  ASSERT_TRUE(service.Query(f.bench.query.features.RowCopy(1), 3).ok());
  ASSERT_TRUE(service.Query(f.bench.query.features.RowCopy(2), 3).ok());
  const ServiceStats after = service.Stats();

  const ServiceStats window = serving::StatsSince(after, before);
  EXPECT_EQ(window.served, 2u);
  EXPECT_EQ(window.admitted, 2u);
  EXPECT_EQ(window.served_latency.count, 2u);
  EXPECT_EQ(after.served_latency.count, 3u);
}

// ---------------------------------------------------------------------------
// Bench regression gate

constexpr const char* kBaselineServing =
    "{\"queries\": 100, \"qps\": 1000.0,\n"
    " \"latency_ms\": {\"mean\": 0.8, \"p50\": 0.7, \"p95\": 1.0, "
    "\"p99\": 2.0},\n"
    " \"shadow_recall\": 0.90, \"served\": 100}\n";

TEST(QualityObsTest, BenchGatePassesOnIdenticalRuns) {
  eval::GateThresholds thresholds;
  const auto report =
      eval::CompareServingBench(kBaselineServing, kBaselineServing, thresholds);
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_NE(report.Render().find("bench gate: OK"), std::string::npos);
}

TEST(QualityObsTest, BenchGateFailsOnDoctoredRegressions) {
  eval::GateThresholds thresholds;  // p95 +25%, qps x0.75, recall -0.05

  // p95 doubled.
  std::string candidate =
      "{\"qps\": 1000.0, \"latency_ms\": {\"p95\": 2.0}, "
      "\"shadow_recall\": 0.90}";
  auto report =
      eval::CompareServingBench(kBaselineServing, candidate, thresholds);
  ASSERT_EQ(report.regressions.size(), 1u) << report.Render();
  EXPECT_EQ(report.regressions[0].metric, "serving_p95_ms");

  // QPS halved.
  candidate =
      "{\"qps\": 500.0, \"latency_ms\": {\"p95\": 1.0}, "
      "\"shadow_recall\": 0.90}";
  report = eval::CompareServingBench(kBaselineServing, candidate, thresholds);
  ASSERT_EQ(report.regressions.size(), 1u) << report.Render();
  EXPECT_EQ(report.regressions[0].metric, "qps");

  // Shadow recall collapsed.
  candidate =
      "{\"qps\": 1000.0, \"latency_ms\": {\"p95\": 1.0}, "
      "\"shadow_recall\": 0.70}";
  report = eval::CompareServingBench(kBaselineServing, candidate, thresholds);
  ASSERT_EQ(report.regressions.size(), 1u) << report.Render();
  EXPECT_EQ(report.regressions[0].metric, "shadow_recall");

  // All three at once.
  candidate =
      "{\"qps\": 400.0, \"latency_ms\": {\"p95\": 3.0}, "
      "\"shadow_recall\": 0.50}";
  report = eval::CompareServingBench(kBaselineServing, candidate, thresholds);
  EXPECT_EQ(report.regressions.size(), 3u) << report.Render();
}

TEST(QualityObsTest, BenchGateSkipsMissingRecallWithNoteNotFailure) {
  eval::GateThresholds thresholds;
  // An old baseline without the shadow_recall key must not fail the gate —
  // the skipped check is noted, never silent.
  const std::string old_baseline =
      "{\"qps\": 1000.0, \"latency_ms\": {\"p95\": 1.0}}";
  const auto report =
      eval::CompareServingBench(old_baseline, kBaselineServing, thresholds);
  EXPECT_TRUE(report.ok()) << report.Render();
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("shadow_recall"), std::string::npos);
}

TEST(QualityObsTest, BenchGateMicroComparesByBenchmarkName) {
  const std::string baseline =
      "{\"context\": {\"date\": \"x\"}, \"benchmarks\": ["
      "{\"name\": \"BM_AdcScan/128\", \"real_time\": 100.0},"
      "{\"name\": \"BM_IvfProbe/8\", \"real_time\": 50.0}]}";
  const std::string regressed =
      "{\"context\": {\"date\": \"y\"}, \"benchmarks\": ["
      "{\"name\": \"BM_AdcScan/128\", \"real_time\": 200.0},"
      "{\"name\": \"BM_IvfProbe/8\", \"real_time\": 51.0}]}";

  eval::GateThresholds thresholds;  // +30% micro budget
  auto report = eval::CompareMicroBench(baseline, baseline, thresholds);
  EXPECT_TRUE(report.ok()) << report.Render();

  report = eval::CompareMicroBench(baseline, regressed, thresholds);
  ASSERT_EQ(report.regressions.size(), 1u) << report.Render();
  EXPECT_EQ(report.regressions[0].metric, "BM_AdcScan/128");
  EXPECT_EQ(report.regressions[0].baseline, 100.0);
  EXPECT_EQ(report.regressions[0].candidate, 200.0);

  // A renamed benchmark is a note on both sides, not a silent skip.
  const std::string renamed =
      "{\"benchmarks\": [{\"name\": \"BM_AdcScanV2/128\", "
      "\"real_time\": 100.0}]}";
  report = eval::CompareMicroBench(baseline, renamed, thresholds);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.notes.size(), 3u) << report.Render();
}

TEST(QualityObsTest, ExtractJsonNumberFindsFirstOccurrenceOnly) {
  double value = 0.0;
  EXPECT_TRUE(eval::ExtractJsonNumber("{\"a\": 1.5, \"a\": 2.5}", "a", &value));
  EXPECT_EQ(value, 1.5);
  EXPECT_TRUE(
      eval::ExtractJsonNumber("{\"outer\": {\"p95\": 3.25}}", "p95", &value));
  EXPECT_EQ(value, 3.25);
  EXPECT_FALSE(eval::ExtractJsonNumber("{\"b\": 1}", "a", &value));
  // A string value whose text contains the key must not match ("p95" only
  // matches when followed by a colon).
  EXPECT_FALSE(
      eval::ExtractJsonNumber("{\"note\": \"p95\", \"x\": 1}", "p95", &value));
}

}  // namespace
}  // namespace lightlt
