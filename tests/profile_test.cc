// Continuous-profiling tests (DESIGN.md §16): deterministic sampler
// aggregation on injectable wall/CPU clocks, depth-cap truncation
// accounting, exact snapshot merge/delta algebra, windowed rings with
// frozen baselines and SLO-burn regression attribution, per-request cost
// conservation against the segmented serving counters under ParallelFor,
// the profile admin frame codec (roundtrip + every-prefix truncation),
// exact fleet profile merges with corrupt-poll degradation, and the
// observability satellites (Prometheus exposition conformance, logger
// suppression summaries, the bounded trace span tree). Built as its own
// ctest target with the `obs;net` labels (tools/run_tsan.sh,
// tools/run_chaos.sh); every suite name matches the TSan preset's
// `Obs[A-Za-z]*Test` filter.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/pipeline.h"
#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/net/client.h"
#include "src/net/fault.h"
#include "src/net/fleet.h"
#include "src/net/frame.h"
#include "src/net/server.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/serving/service.h"
#include "src/serving/shard.h"
#include "src/util/threadpool.h"

namespace lightlt {
namespace {

using net::Endpoint;
using net::FleetCollector;
using net::FleetCollectorOptions;
using net::FleetEndpoint;
using net::FleetMemberView;
using net::FleetView;
using net::NetFaultPlan;
using net::RemoteClientOptions;
using net::RemoteSearcherClient;
using net::ShardServer;
using net::ShardServerOptions;
using net::WireProfileResponse;
using obs::ExplainRecord;
using obs::PhaseDelta;
using obs::PhaseSummary;
using obs::ProfileEntry;
using obs::ProfilePhase;
using obs::Profiler;
using obs::ProfileSnapshot;
using obs::SloTracker;
using serving::RequestOptions;
using serving::RetrievalService;
using serving::ServiceOptions;
using serving::ShardSet;
using serving::ShardSetOptions;

/// RAII disarm so a failing assertion can't leak an armed plan into the
/// next test.
struct NetFaultGuard {
  explicit NetFaultGuard(const NetFaultPlan& plan) { net::ArmNetFaults(plan); }
  ~NetFaultGuard() { net::DisarmNetFaults(); }
};

/// A logger whose lines the test can grep (mirrors the fleet suite).
struct CapturingLogger {
  std::vector<std::string> lines;
  std::unique_ptr<obs::Logger> logger;

  explicit CapturingLogger(obs::LogLevel min_level = obs::LogLevel::kWarn) {
    obs::Logger::Options lo;
    lo.min_level = min_level;
    lo.stream = nullptr;  // keep ctest output quiet
    lo.callback = [this](const std::string& line) { lines.push_back(line); };
    logger = std::make_unique<obs::Logger>(lo);
  }

  size_t CountContaining(const std::string& a, const std::string& b) const {
    size_t n = 0;
    for (const std::string& line : lines) {
      if (line.find(a) != std::string::npos &&
          line.find(b) != std::string::npos) {
        ++n;
      }
    }
    return n;
  }
};

void ExpectProfilesEqual(const ProfileSnapshot& a, const ProfileSnapshot& b) {
  EXPECT_EQ(a.samples_total, b.samples_total);
  EXPECT_EQ(a.truncated_pushes, b.truncated_pushes);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].stack, b.entries[i].stack);
    EXPECT_EQ(a.entries[i].samples, b.entries[i].samples);
    EXPECT_EQ(a.entries[i].wall_ns, b.entries[i].wall_ns);
    EXPECT_EQ(a.entries[i].cpu_ns, b.entries[i].cpu_ns);
  }
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t n = 0, at = 0;
  while ((at = haystack.find(needle, at)) != std::string::npos) {
    ++n;
    at += needle.size();
  }
  return n;
}

// ---------------------------------------------------------------------------
// Sampler core: exact aggregation and bit-identical determinism
// ---------------------------------------------------------------------------

TEST(ObsProfileTest, SampleOnceAggregatesExactlyOnManualClocks) {
  uint64_t now = 0;
  uint64_t cpu = 0;
  obs::MetricsRegistry registry;
  Profiler::Options po;
  po.clock = [&now] { return now; };
  po.cpu_now = [&cpu](size_t) { return cpu; };
  po.registry = &registry;
  Profiler profiler(po);  // anchors last_sample at now == 0

  // A fresh thread scripts the phases and drives the sampler itself, so
  // exactly one stack is busy at every SampleOnce and the CPU cursor
  // starts unseen (first sample attributes a zero CPU delta by contract).
  std::thread t([&] {
    ProfilePhase request("request");
    now = 1000;
    cpu = 100;
    profiler.SampleOnce();  // "request": wall 1000, cpu first-seen -> 0
    {
      ProfilePhase scan("adc_scan");
      now = 2000;
      cpu = 400;
      profiler.SampleOnce();  // "request;adc_scan": wall 1000, cpu 300
      now = 3000;
      cpu = 600;
      profiler.SampleOnce();  // "request;adc_scan": wall 1000, cpu 200
    }
    now = 4000;
    cpu = 700;
    profiler.SampleOnce();  // "request": wall 1000, cpu 100
  });
  t.join();

  const ProfileSnapshot snap = profiler.Snapshot();
  EXPECT_EQ(snap.samples_total, 4u);
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].stack, "request");
  EXPECT_EQ(snap.entries[0].samples, 2u);
  EXPECT_EQ(snap.entries[0].wall_ns, 2000u);
  EXPECT_EQ(snap.entries[0].cpu_ns, 100u);
  EXPECT_EQ(snap.entries[1].stack, "request;adc_scan");
  EXPECT_EQ(snap.entries[1].samples, 2u);
  EXPECT_EQ(snap.entries[1].wall_ns, 2000u);
  EXPECT_EQ(snap.entries[1].cpu_ns, 500u);
  EXPECT_EQ(snap.CollapsedText(), "request 2\nrequest;adc_scan 2\n");

  // Sampler instruments mirror the snapshot exactly.
  EXPECT_EQ(registry.GetCounter("profile_samples_total")->Value(), 4u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("profile_threads_busy")->Value(), 1.0);
  EXPECT_EQ(registry.GetCounter("profile_truncated_pushes_total")->Value(),
            snap.truncated_pushes);
}

TEST(ObsProfileTest, ScriptedRunsAreBitIdentical) {
  // The determinism contract: two identical scripted runs — fresh thread,
  // fresh profiler, fresh manual clocks — render byte-identical collapsed
  // text and JSONL. There is no timing-dependent sampling anywhere.
  auto run = [] {
    uint64_t now = 0;
    uint64_t cpu = 0;
    Profiler::Options po;
    po.clock = [&now] { return now; };
    po.cpu_now = [&cpu](size_t) { return cpu; };
    Profiler profiler(po);
    std::thread t([&] {
      ProfilePhase serve("serve");
      for (int i = 0; i < 5; ++i) {
        now += 1000;
        cpu += 700;
        profiler.SampleOnce();
      }
      ProfilePhase rerank("rerank");
      for (int i = 0; i < 3; ++i) {
        now += 1000;
        cpu += 100;
        profiler.SampleOnce();
      }
    });
    t.join();
    return std::make_pair(profiler.CollapsedText(), profiler.RenderJsonl());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  EXPECT_EQ(first.first, "serve 5\nserve;rerank 3\n");
}

TEST(ObsProfileTest, IdleThreadsAreInvisibleAndStartStopIsSafe) {
  uint64_t now = 0;
  Profiler::Options po;
  po.clock = [&now] { return now; };
  po.cpu_now = [](size_t) { return static_cast<uint64_t>(0); };
  Profiler profiler(po);

  // No thread is inside a phase: a sample observes nothing.
  now = 1000;
  profiler.SampleOnce();
  EXPECT_EQ(profiler.samples_total(), 0u);
  EXPECT_TRUE(profiler.Snapshot().entries.empty());

  // Start/Stop lifecycle: running() flips, double Start is refused,
  // Stop is idempotent.
  EXPECT_FALSE(profiler.running());
  ASSERT_TRUE(profiler.Start().ok());
  EXPECT_TRUE(profiler.running());
  EXPECT_EQ(profiler.Start().code(), StatusCode::kFailedPrecondition);
  profiler.Stop();
  profiler.Stop();
  EXPECT_FALSE(profiler.running());
}

// ---------------------------------------------------------------------------
// Depth-cap truncation: dropped pushes are counted, never silent
// ---------------------------------------------------------------------------

void DeepPush(Profiler* profiler, size_t remaining) {
  if (remaining == 0) {
    profiler->SampleOnce();
    return;
  }
  ProfilePhase phase("deep");
  DeepPush(profiler, remaining - 1);
}

TEST(ObsProfileTest, PushesPastDepthCapAreDroppedAndCountedExactly) {
  uint64_t now = 0;
  Profiler::Options po;
  po.clock = [&now] { return now; };
  po.cpu_now = [](size_t) { return static_cast<uint64_t>(0); };
  Profiler profiler(po);

  const uint64_t truncated_before = profiler.Snapshot().truncated_pushes;
  std::thread t([&] {
    now = 1000;
    DeepPush(&profiler, obs::kMaxProfileDepth + 3);
  });
  t.join();

  const ProfileSnapshot snap = profiler.Snapshot();
  EXPECT_EQ(snap.truncated_pushes - truncated_before, 3u);
  ASSERT_EQ(snap.entries.size(), 1u);
  // The sampled stack carries exactly kMaxProfileDepth frames.
  EXPECT_EQ(CountOccurrences(snap.entries[0].stack, "deep"),
            obs::kMaxProfileDepth);
  EXPECT_EQ(snap.entries[0].samples, 1u);
}

// ---------------------------------------------------------------------------
// Snapshot algebra: exact merge, saturating delta, phase rollups
// ---------------------------------------------------------------------------

TEST(ObsProfileTest, MergeSumsEqualStacksAndInsertsNewOnes) {
  ProfileSnapshot a;
  a.entries = {{"serve", 4, 400, 40}, {"serve;scan", 6, 600, 60}};
  a.samples_total = 10;
  a.truncated_pushes = 1;
  ProfileSnapshot b;
  b.entries = {{"rerank", 1, 100, 10}, {"serve;scan", 2, 200, 20}};
  b.samples_total = 3;
  b.truncated_pushes = 2;

  a.MergeFrom(b);
  EXPECT_EQ(a.samples_total, 13u);
  EXPECT_EQ(a.truncated_pushes, 3u);
  ASSERT_EQ(a.entries.size(), 3u);
  EXPECT_EQ(a.entries[0].stack, "rerank");
  EXPECT_EQ(a.entries[0].samples, 1u);
  EXPECT_EQ(a.entries[1].stack, "serve");
  EXPECT_EQ(a.entries[1].samples, 4u);
  EXPECT_EQ(a.entries[2].stack, "serve;scan");
  EXPECT_EQ(a.entries[2].samples, 8u);
  EXPECT_EQ(a.entries[2].wall_ns, 800u);
  EXPECT_EQ(a.entries[2].cpu_ns, 80u);
}

TEST(ObsProfileTest, DeltaSaturatesAndDropsUnchangedStacks) {
  ProfileSnapshot earlier;
  earlier.entries = {{"a", 5, 500, 50}, {"b", 2, 200, 20}};
  earlier.samples_total = 7;
  ProfileSnapshot later;
  later.entries = {{"a", 8, 900, 55}, {"b", 2, 200, 20}, {"c", 1, 10, 1}};
  later.samples_total = 11;

  const ProfileSnapshot delta = later.Delta(earlier);
  ASSERT_EQ(delta.entries.size(), 2u);
  EXPECT_EQ(delta.entries[0].stack, "a");
  EXPECT_EQ(delta.entries[0].samples, 3u);
  EXPECT_EQ(delta.entries[0].wall_ns, 400u);
  EXPECT_EQ(delta.entries[0].cpu_ns, 5u);
  EXPECT_EQ(delta.entries[1].stack, "c");
  EXPECT_EQ(delta.entries[1].samples, 1u);
  EXPECT_EQ(delta.samples_total, 4u);

  // Swapped operands saturate at zero instead of wrapping.
  const ProfileSnapshot wrapped = earlier.Delta(later);
  EXPECT_EQ(wrapped.samples_total, 0u);
  EXPECT_TRUE(wrapped.entries.empty());
}

TEST(ObsProfileTest, SummarizePhasesSplitsSelfFromTotal) {
  ProfileSnapshot snap;
  snap.entries = {
      {"a", 1, 5, 3}, {"a;b", 2, 20, 10}, {"a;b;a", 4, 40, 0}};
  snap.samples_total = 7;

  const std::vector<PhaseSummary> phases = obs::SummarizePhases(snap);
  ASSERT_EQ(phases.size(), 2u);
  // "a" is the leaf of "a" and "a;b;a", and appears (once per stack) on
  // every stack; the repeated frame in "a;b;a" must not double-count.
  EXPECT_EQ(phases[0].phase, "a");
  EXPECT_EQ(phases[0].self_samples, 5u);
  EXPECT_EQ(phases[0].total_samples, 7u);
  EXPECT_EQ(phases[0].self_wall_ns, 45u);
  EXPECT_EQ(phases[0].total_wall_ns, 65u);
  EXPECT_EQ(phases[1].phase, "b");
  EXPECT_EQ(phases[1].self_samples, 2u);
  EXPECT_EQ(phases[1].total_samples, 6u);
  EXPECT_EQ(phases[1].self_cpu_ns, 10u);
  EXPECT_EQ(phases[1].total_cpu_ns, 10u);
}

TEST(ObsProfileTest, DiffProfilesRanksGrownSharesOnly) {
  ProfileSnapshot baseline;
  baseline.entries = {{"fast", 9, 0, 0}, {"slow", 1, 0, 0}};
  baseline.samples_total = 10;
  ProfileSnapshot current;
  current.entries = {{"fast", 1, 0, 0}, {"slow", 9, 0, 0}};
  current.samples_total = 10;

  const std::vector<PhaseDelta> deltas =
      obs::DiffProfiles(baseline, current, 5);
  ASSERT_EQ(deltas.size(), 1u) << "shrunk shares are not reported";
  EXPECT_EQ(deltas[0].stack, "slow");
  EXPECT_DOUBLE_EQ(deltas[0].baseline_fraction, 0.1);
  EXPECT_DOUBLE_EQ(deltas[0].current_fraction, 0.9);
  EXPECT_DOUBLE_EQ(deltas[0].delta, 0.8);

  // Empty windows never attribute.
  EXPECT_TRUE(obs::DiffProfiles(ProfileSnapshot{}, current).empty());
  EXPECT_TRUE(obs::DiffProfiles(baseline, ProfileSnapshot{}).empty());
}

// ---------------------------------------------------------------------------
// Windows, baselines, and SLO-burn regression attribution
// ---------------------------------------------------------------------------

/// Scripts one window: `fast_samples` under "phase_fast" then
/// `slow_samples` under "phase_slow", each advancing the manual clock.
void ScriptWindow(Profiler* profiler, uint64_t* now, int fast_samples,
                  int slow_samples) {
  std::thread t([&] {
    {
      ProfilePhase fast("phase_fast");
      for (int i = 0; i < fast_samples; ++i) {
        *now += 1000;
        profiler->SampleOnce();
      }
    }
    {
      ProfilePhase slow("phase_slow");
      for (int i = 0; i < slow_samples; ++i) {
        *now += 1000;
        profiler->SampleOnce();
      }
    }
  });
  t.join();
}

TEST(ObsProfileTest, WindowRingEvictsOldestAndBaselineAttributes) {
  uint64_t now = 0;
  Profiler::Options po;
  po.clock = [&now] { return now; };
  po.cpu_now = [](size_t) { return static_cast<uint64_t>(0); };
  po.window_ring_capacity = 2;
  Profiler profiler(po);

  EXPECT_FALSE(profiler.FreezeBaseline()) << "no window cut yet";
  EXPECT_TRUE(profiler.AttributeRegression().empty());

  ScriptWindow(&profiler, &now, 9, 1);
  const ProfileSnapshot w1 = profiler.CutWindow();
  EXPECT_EQ(w1.samples_total, 10u);
  ASSERT_TRUE(profiler.FreezeBaseline());
  EXPECT_TRUE(profiler.has_baseline());

  ScriptWindow(&profiler, &now, 5, 5);
  profiler.CutWindow();
  ScriptWindow(&profiler, &now, 4, 6);
  profiler.CutWindow();

  // Capacity 2: the first window was evicted, newest-last order kept.
  const std::vector<ProfileSnapshot> windows = profiler.Windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].samples_total, 10u);
  EXPECT_EQ(windows[1].samples_total, 10u);

  // Live window: slow-dominated against the 90/10 baseline.
  ScriptWindow(&profiler, &now, 1, 9);
  const std::vector<PhaseDelta> deltas = profiler.AttributeRegression(3);
  ASSERT_FALSE(deltas.empty());
  EXPECT_EQ(deltas[0].stack, "phase_slow");
  EXPECT_DOUBLE_EQ(deltas[0].baseline_fraction, 0.1);
  EXPECT_DOUBLE_EQ(deltas[0].current_fraction, 0.9);
}

TEST(ObsProfileTest, SloBurnTransitionLogsProfileAttributionOnce) {
  uint64_t now = 0;
  Profiler::Options po;
  po.clock = [&now] { return now; };
  po.cpu_now = [](size_t) { return static_cast<uint64_t>(0); };
  Profiler profiler(po);
  ScriptWindow(&profiler, &now, 9, 1);
  profiler.CutWindow();
  ASSERT_TRUE(profiler.FreezeBaseline());
  ScriptWindow(&profiler, &now, 1, 9);  // live window regressed to "slow"

  double now_s = 50.0;
  SloTracker::Options to;
  to.name = "latency_slo";
  to.objective = 0.9;
  to.windows = {{10.0, 100.0, 1.0}};
  to.clock = [&now_s] { return now_s; };
  SloTracker tracker(std::move(to));

  CapturingLogger log;
  for (int i = 0; i < 20; ++i) tracker.Record(false);
  const SloTracker::AlertState state = obs::CheckSloWithAttribution(
      &tracker, &profiler, log.logger.get(), 3);
  EXPECT_TRUE(state.firing);
  EXPECT_EQ(log.CountContaining("slo burn attribution", "phase_slow"), 1u);
  EXPECT_EQ(log.CountContaining("slo burn attribution", "latency_slo"), 1u);

  // Still firing: attribution is a transition edge, not a steady drip.
  obs::CheckSloWithAttribution(&tracker, &profiler, log.logger.get(), 3);
  EXPECT_EQ(log.CountContaining("slo burn attribution", "phase_slow"), 1u);

  // Without a frozen baseline the alert still fires, with an explicit
  // no-attribution line instead of silence.
  Profiler bare(po);
  SloTracker::Options to2;
  to2.name = "recall_slo";
  to2.objective = 0.9;
  to2.windows = {{10.0, 100.0, 1.0}};
  to2.clock = [&now_s] { return now_s; };
  SloTracker tracker2(std::move(to2));
  for (int i = 0; i < 20; ++i) tracker2.Record(false);
  const SloTracker::AlertState state2 = obs::CheckSloWithAttribution(
      &tracker2, &bare, log.logger.get(), 3);
  EXPECT_TRUE(state2.firing);
  EXPECT_EQ(log.CountContaining("no profile baseline", "recall_slo"), 1u);
}

// ---------------------------------------------------------------------------
// Per-request cost conservation against the segmented serving counters
// ---------------------------------------------------------------------------

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

TEST(ObsProfileServingTest, CostVectorsConserveAgainstSegmentCounters) {
  const ServiceFixture f = MakeFixture();
  ServiceOptions so;
  so.metrics = std::make_shared<obs::MetricsRegistry>();
  auto built =
      RetrievalService::Build(f.model, f.bench.database.features, so);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const RetrievalService service = std::move(built).value();

  // Concurrent requests, each with its own resource vector, cycling the
  // head/mid/tail bucket. Conservation must be exact: the registry's
  // segmented cost counters are fed from the same vector each request
  // hands back, and Counter::Value() sums its shards losslessly.
  const size_t rows = f.bench.query.features.rows();
  const size_t n = 300;
  std::vector<ExplainRecord> costs(n);
  std::atomic<uint64_t> served{0};
  ParallelFor(&GlobalThreadPool(), n, [&](size_t i) {
    RequestOptions ro;
    ro.cost = &costs[i];
    ro.class_bucket = static_cast<int>(i % 3);
    const auto result =
        service.Query(f.bench.query.features.RowCopy(i % rows), 5, ro);
    if (result.ok()) served.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(served.load(), n);

  uint64_t want_cpu[obs::kNumRecallSegments] = {};
  uint64_t want_items[obs::kNumRecallSegments] = {};
  uint64_t want_codes[obs::kNumRecallSegments] = {};
  uint64_t want_luts[obs::kNumRecallSegments] = {};
  uint64_t want_shortlist[obs::kNumRecallSegments] = {};
  for (size_t i = 0; i < n; ++i) {
    const size_t segments[2] = {0, 1 + i % 3};
    for (size_t s : segments) {
      want_cpu[s] += costs[i].cpu_ns;
      want_items[s] += costs[i].scan.items;
      want_codes[s] += costs[i].scan.codes_decoded;
      want_luts[s] += costs[i].scan.lut_builds;
      want_shortlist[s] += costs[i].scan.shortlist;
    }
  }
  EXPECT_GT(want_items[0], 0u) << "flat scans score the whole database";
  EXPECT_GT(want_luts[0], 0u) << "one ADC LUT per query";

  obs::MetricsRegistry& registry = service.Metrics();
  for (size_t s = 0; s < obs::kNumRecallSegments; ++s) {
    const std::string segment = obs::RecallSegmentName(s);
    const auto value = [&](const std::string& base) {
      return registry.GetCounter(obs::WithLabel(base, "segment", segment))
          ->Value();
    };
    EXPECT_EQ(value("serving_cost_cpu_ns_total"), want_cpu[s]) << segment;
    EXPECT_EQ(value("serving_cost_items_total"), want_items[s]) << segment;
    EXPECT_EQ(value("serving_cost_codes_decoded_total"), want_codes[s])
        << segment;
    EXPECT_EQ(value("serving_cost_lut_builds_total"), want_luts[s])
        << segment;
    EXPECT_EQ(value("serving_cost_shortlist_total"), want_shortlist[s])
        << segment;
  }
  // Segment rows partition the overall row: every request landed in
  // overall plus exactly one bucket.
  EXPECT_EQ(want_items[1] + want_items[2] + want_items[3], want_items[0]);
}

// ---------------------------------------------------------------------------
// Profile admin frame codec: roundtrip, truncation, hostile counts
// ---------------------------------------------------------------------------

TEST(ObsProfileWireTest, ProfileResponseRoundTripsExactly) {
  WireProfileResponse resp;
  resp.code = static_cast<int32_t>(StatusCode::kOk);
  resp.message = "";
  resp.profile.entries = {{"serve", 7, 700, 70},
                          {"serve;adc_scan;rerank", 3, 300, 30}};
  resp.profile.samples_total = 10;
  resp.profile.truncated_pushes = 2;

  const std::vector<uint8_t> body = net::EncodeProfileResponse(resp);
  WireProfileResponse decoded;
  ASSERT_TRUE(net::DecodeProfileResponse(body, &decoded).ok());
  EXPECT_EQ(decoded.code, resp.code);
  EXPECT_EQ(decoded.message, resp.message);
  ExpectProfilesEqual(decoded.profile, resp.profile);
}

TEST(ObsProfileWireTest, EveryTruncatedPrefixFailsCleanly) {
  WireProfileResponse resp;
  resp.code = static_cast<int32_t>(StatusCode::kOk);
  resp.profile.entries = {{"a;b", 1, 10, 1}, {"c", 2, 20, 2}};
  resp.profile.samples_total = 3;
  const std::vector<uint8_t> body = net::EncodeProfileResponse(resp);

  for (size_t len = 0; len < body.size(); ++len) {
    WireProfileResponse out;
    const std::vector<uint8_t> prefix(body.begin(), body.begin() + len);
    EXPECT_FALSE(net::DecodeProfileResponse(prefix, &out).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(ObsProfileWireTest, HostileEntryCountIsRejectedBeforeAllocation) {
  // A count claiming ~2^32 entries inside a 28-byte body must be rejected
  // by the bytes-remaining check, never allocated.
  net::WireWriter w;
  w.PutI32(static_cast<int32_t>(StatusCode::kOk));
  w.PutString("");
  w.PutU64(0);           // samples_total
  w.PutU64(0);           // truncated_pushes
  w.PutU32(0xFFFFFFFFu);  // entry count
  WireProfileResponse out;
  EXPECT_FALSE(net::DecodeProfileResponse(w.bytes(), &out).ok());
}

TEST(ObsProfileWireTest, ProfileRequestBodyMustBeEmpty) {
  EXPECT_TRUE(net::DecodeProfileRequest(net::EncodeProfileRequest()).ok());
  EXPECT_FALSE(net::DecodeProfileRequest({0x01}).ok());
}

// ---------------------------------------------------------------------------
// Fleet reach: remote dumps, exact merges, corrupt-poll degradation
// ---------------------------------------------------------------------------

struct ClusterFixture {
  std::shared_ptr<core::LightLtModel> model;
  std::shared_ptr<const ShardSet> shards;
  Matrix queries;
};

ClusterFixture MakeCluster(size_t num_shards, size_t num_replicas) {
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
  cfg.seed = 777;
  data::RetrievalBenchmark bench = data::GenerateSynthetic(cfg);

  core::ModelConfig mc;
  mc.input_dim = 16;
  mc.hidden_dims = {24};
  mc.embed_dim = 12;
  mc.num_classes = 5;
  mc.dsq.num_codebooks = 2;
  mc.dsq.num_codewords = 16;

  ClusterFixture f;
  f.model = std::make_shared<core::LightLtModel>(mc, 3);
  core::TrainOptions opts;
  opts.epochs = 4;
  opts.learning_rate = 3e-3f;
  auto stats = core::TrainLightLt(f.model.get(), bench.train, opts);
  EXPECT_TRUE(stats.ok());

  const Matrix embedded =
      core::EmbedInChunks(*f.model, bench.database.features);
  std::vector<std::vector<uint32_t>> codes;
  f.model->dsq().Encode(embedded, &codes);

  ShardSetOptions so;
  so.num_shards = num_shards;
  so.num_replicas = num_replicas;
  auto built = ShardSet::Build(embedded, f.model->Codebooks(), codes, so);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  f.shards = std::make_shared<ShardSet>(std::move(built).value());

  f.queries = f.model->Embed(bench.query.features);
  return f;
}

RemoteClientOptions FastClient() {
  RemoteClientOptions c;
  c.dial_retry.max_attempts = 2;
  c.dial_retry.initial_backoff_seconds = 0.01;
  c.dial_timeout_seconds = 0.5;
  return c;
}

/// Scripts a deterministic three-level profile into `profiler` from a
/// fresh thread (long stack names keep the wire payload comfortably past
/// the fault plan's flip offset).
void ScriptFleetProfile(Profiler* profiler, int scan_samples) {
  std::thread t([&] {
    ProfilePhase ingest("fleet_profile_ingest");
    profiler->SampleOnce();
    ProfilePhase scan("fleet_profile_scan");
    for (int i = 0; i < scan_samples; ++i) profiler->SampleOnce();
    ProfilePhase rerank("fleet_profile_rerank");
    profiler->SampleOnce();
  });
  t.join();
}

TEST(ObsProfileFleetTest, RemoteDumpEqualsLocalSnapshotExactly) {
  auto f = MakeCluster(1, 1);
  obs::MetricsRegistry registry;
  Profiler profiler;
  ShardServerOptions so;
  so.metrics = &registry;
  so.admin_listener = true;
  so.profiler = &profiler;
  ShardServer server(f.shards, so);
  ASSERT_TRUE(server.Start().ok());

  ScriptFleetProfile(&profiler, 3);
  const ProfileSnapshot local = profiler.Snapshot();
  ASSERT_EQ(local.samples_total, 5u);

  RemoteSearcherClient client({"127.0.0.1", server.admin_port()},
                              FastClient());
  auto resp = client.GetProfile(Deadline::After(5.0));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp.value().code, static_cast<int32_t>(StatusCode::kOk));
  ExpectProfilesEqual(resp.value().profile, local);

  server.Drain();
}

TEST(ObsProfileFleetTest, ServerWithoutProfilerAnswersFailedPrecondition) {
  auto f = MakeCluster(1, 1);
  obs::MetricsRegistry registry;
  ShardServerOptions so;
  so.metrics = &registry;
  so.admin_listener = true;  // metrics plane on, profiler off
  ShardServer server(f.shards, so);
  ASSERT_TRUE(server.Start().ok());

  RemoteSearcherClient client({"127.0.0.1", server.admin_port()},
                              FastClient());
  // The server answers the frame (the transport is healthy) but the client
  // surfaces the application verdict as a typed error, not a corrupt-wire
  // Unavailable — the caller can tell "profiler off" from "link broken".
  auto resp = client.GetProfile(Deadline::After(5.0));
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resp.status().message().find("profiler not enabled"),
            std::string::npos)
      << resp.status().ToString();
  EXPECT_EQ(client.stats().wire_errors, 0u);

  server.Drain();
}

TEST(ObsProfileFleetTest, FleetMergedProfileEqualsSumOfMemberSnapshots) {
  auto f = MakeCluster(2, 1);

  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
  std::vector<std::unique_ptr<Profiler>> profilers;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<FleetEndpoint> fleet_endpoints;
  for (size_t s = 0; s < 2; ++s) {
    registries.push_back(std::make_unique<obs::MetricsRegistry>());
    profilers.push_back(std::make_unique<Profiler>());
    ShardServerOptions so;
    so.hosted_shards = {s};
    so.metrics = registries.back().get();
    so.admin_listener = true;
    so.profiler = profilers.back().get();
    auto server = std::make_unique<ShardServer>(f.shards, so);
    ASSERT_TRUE(server->Start().ok());
    fleet_endpoints.push_back(
        {{"127.0.0.1", server->admin_port()}, static_cast<uint32_t>(s), 0});
    servers.push_back(std::move(server));
  }

  // Distinct shapes per member so the merge is distinguishable from either
  // input: shard 0 leans on the scan phase, shard 1 barely touches it.
  ScriptFleetProfile(profilers[0].get(), 6);
  ScriptFleetProfile(profilers[1].get(), 1);
  ProfileSnapshot expected;
  std::vector<ProfileSnapshot> locals;
  for (const auto& p : profilers) {
    locals.push_back(p->Snapshot());
    expected.MergeFrom(locals.back());
  }

  FleetCollectorOptions fo;
  fo.client = FastClient();
  fo.collect_profiles = true;
  FleetCollector collector(fleet_endpoints, fo);
  ASSERT_TRUE(collector.PollOnce().ok());

  const FleetView view = collector.View();
  ASSERT_EQ(view.members.size(), 2u);
  EXPECT_EQ(view.profile_polls_ok, 2u);
  EXPECT_EQ(view.profile_polls_failed, 0u);
  EXPECT_EQ(view.profile_payload_drops, 0u);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(view.members[s].profile_polls_ok, 1u);
    ExpectProfilesEqual(view.members[s].profile, locals[s]);
  }
  // The marquee claim: the fleet profile is the exact stack-wise sum of
  // the per-member snapshots — a fleet flamegraph is as trustworthy as a
  // local one.
  ExpectProfilesEqual(view.merged_profile, expected);

  for (auto& server : servers) server->Drain();
}

TEST(ObsProfileFleetTest, CorruptProfilePayloadDropsPollKeepsLastGood) {
  auto f = MakeCluster(1, 1);
  obs::MetricsRegistry registry;
  Profiler profiler;
  ShardServerOptions so;
  so.metrics = &registry;
  so.admin_listener = true;
  so.profiler = &profiler;
  ShardServer server(f.shards, so);
  ASSERT_TRUE(server.Start().ok());

  ScriptFleetProfile(&profiler, 3);
  const ProfileSnapshot good = profiler.Snapshot();

  CapturingLogger log;
  FleetCollectorOptions fo;
  fo.client = FastClient();
  fo.collect_profiles = true;
  fo.logger = log.logger.get();
  FleetCollector collector({{{"127.0.0.1", server.admin_port()}, 0, 0}}, fo);
  ASSERT_TRUE(collector.PollOnce().ok());

  {
    // Corrupt the next admin exchange in flight: the profile poll is the
    // first frame on the fresh connection, so the flip lands in its
    // response. The poll must be skipped and counted as a profile payload
    // drop — the member answered, its payload was damaged — and the last
    // good profile stays in the view and the merge.
    NetFaultPlan plan;
    plan.recv_flip_byte = 100;
    plan.flip_mask = 0x01;
    NetFaultGuard guard(plan);
    collector.client(0).CloseIdleConnections();

    EXPECT_FALSE(collector.PollOnce().ok());
    const FleetView view = collector.View();
    EXPECT_EQ(view.profile_polls_ok, 1u);
    EXPECT_EQ(view.profile_polls_failed, 1u);
    EXPECT_EQ(view.profile_payload_drops, 1u);
    ASSERT_EQ(view.members.size(), 1u);
    EXPECT_EQ(view.members[0].profile_polls_ok, 1u);
    ExpectProfilesEqual(view.members[0].profile, good);
    ExpectProfilesEqual(view.merged_profile, good);
    EXPECT_EQ(log.CountContaining("profile poll skipped", "fleet"), 1u);
    EXPECT_GE(net::NetFaultCountersSnapshot().bytes_flipped, 1u);
  }

  // Disarmed: the next poll recovers on a fresh dial and the drop counter
  // does not move.
  ASSERT_TRUE(collector.PollOnce().ok());
  {
    const FleetView view = collector.View();
    EXPECT_EQ(view.profile_polls_ok, 2u);
    EXPECT_EQ(view.profile_payload_drops, 1u);
  }

  // An outage is a failed profile poll, *not* a payload drop: the two
  // failure classes stay separable, mirroring the metrics plane.
  server.ShutdownNow();
  EXPECT_FALSE(collector.PollOnce().ok());
  {
    const FleetView view = collector.View();
    EXPECT_EQ(view.profile_polls_failed, 2u);
    EXPECT_EQ(view.profile_payload_drops, 1u);
    ExpectProfilesEqual(view.merged_profile, good);
  }
}

// ---------------------------------------------------------------------------
// Satellite: Prometheus exposition conformance in RenderText
// ---------------------------------------------------------------------------

TEST(ObsExpositionTest, CountersGainTotalSuffixWithHelpAndTypeHeaders) {
  obs::MetricsRegistry registry;
  registry.GetCounter("demo_requests")->Increment(3);
  registry.SetHelp("demo_requests_total", "Requests served.");
  registry.GetCounter(obs::WithLabel("demo_errors_total", "kind", "io"))
      ->Increment(1);
  registry.GetCounter(obs::WithLabel("demo_errors_total", "kind", "net"))
      ->Increment(2);
  registry.GetGauge("demo_queue_depth")->Set(4.0);
  registry.GetHistogram("demo_latency_seconds")->Record(0.01);

  const std::string text = registry.RenderText();
  // A counter registered without the suffix is exposed with it — sample
  // and headers alike — and never under its bare name.
  EXPECT_NE(text.find("# HELP demo_requests_total Requests served.\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE demo_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_requests_total 3\n"), std::string::npos);
  EXPECT_EQ(text.find("demo_requests 3"), std::string::npos);

  // One family header per base name, shared by every labelled series, with
  // the generic HELP fallback; labels sit after the suffixed base.
  EXPECT_EQ(CountOccurrences(text, "# TYPE demo_errors_total counter"), 1u);
  EXPECT_NE(text.find("# HELP demo_errors_total lightlt counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_errors_total{kind=\"io\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_errors_total{kind=\"net\"} 2\n"),
            std::string::npos);

  // Gauges and histograms carry their own typed headers; histograms render
  // as summaries with quantile lines plus _sum/_count.
  EXPECT_NE(text.find("# TYPE demo_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_latency_seconds summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_latency_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("demo_latency_seconds_count 1\n"), std::string::npos);

  // The structured snapshot keeps registered names untouched, so wire
  // payloads and fleet merges are unaffected by the exposition suffix.
  const obs::RegistrySnapshot snap = registry.Snapshot();
  bool found = false;
  for (const auto& c : snap.counters) {
    if (c.name == "demo_requests") {
      EXPECT_EQ(c.value, 3u);
      found = true;
    }
    EXPECT_EQ(c.name.find("demo_requests_total"), std::string::npos);
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Satellite: logger suppression runs surface a `suppressed=N` summary
// ---------------------------------------------------------------------------

TEST(ObsLogRateLimitTest, RefillEmitsSuppressedSummaryBeforeResumedLine) {
  double now_s = 0.0;
  std::vector<std::string> lines;
  obs::Logger::Options lo;
  lo.min_level = obs::LogLevel::kDebug;
  lo.stream = nullptr;
  lo.callback = [&lines](const std::string& line) { lines.push_back(line); };
  lo.rate_per_second = 1.0;
  lo.burst = 1.0;
  lo.clock = [&now_s] { return now_s; };
  obs::Logger logger(lo);

  logger.Log(obs::LogLevel::kInfo, "demo", "first");
  logger.Log(obs::LogLevel::kInfo, "demo", "dropped one");
  logger.Log(obs::LogLevel::kInfo, "demo", "dropped two");
  EXPECT_EQ(logger.emitted_count(), 1u);
  EXPECT_EQ(logger.suppressed_count(), 2u);
  ASSERT_EQ(lines.size(), 1u) << "suppressed lines reach no sink";

  // The bucket refills: the resumed event is preceded by exactly one
  // summary line naming the gap, so the log itself shows what was lost.
  now_s = 5.0;
  logger.Log(obs::LogLevel::kInfo, "demo", "resumed");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[1].find("component=logger"), std::string::npos);
  EXPECT_NE(lines[1].find("rate limit lifted"), std::string::npos);
  EXPECT_NE(lines[1].find("suppressed=2"), std::string::npos);
  EXPECT_NE(lines[2].find("resumed"), std::string::npos);
  EXPECT_EQ(logger.emitted_count(), 2u) << "the summary is not an event";
  EXPECT_EQ(logger.suppressed_count(), 2u) << "cumulative, never reset";

  // No further suppression: the next grant carries no summary.
  now_s = 10.0;
  logger.Log(obs::LogLevel::kInfo, "demo", "clean");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[3].find("rate limit lifted"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Satellite: the trace span tree is bounded with exact drop accounting
// ---------------------------------------------------------------------------

TEST(ObsTraceCapTest, SpansPastTheCapAreDroppedAndCountedExactly) {
  obs::Trace trace([] { return static_cast<uint64_t>(0); },
                   [] { return static_cast<uint64_t>(0); });
  EXPECT_EQ(trace.max_spans(), obs::Trace::kDefaultMaxSpans);
  trace.set_max_spans(3);

  obs::Span a = trace.StartSpan("a");
  ASSERT_EQ(a.index(), 0);
  EXPECT_EQ(trace.AddCompleteSpan("b", a, 0, 1), 1);
  obs::Span c = trace.StartSpan("c", a);
  ASSERT_EQ(c.index(), 2);

  // At the cap: every origin — open, complete, remote splice — drops and
  // counts instead of growing the tree.
  obs::Span d = trace.StartSpan("d", a);
  EXPECT_EQ(d.index(), -1);
  EXPECT_EQ(trace.AddCompleteSpan("e", a, 0, 1), -1);
  std::vector<obs::Trace::SpanRecord> remote(2);
  remote[0].name = "remote_root";
  remote[1].name = "remote_child";
  remote[1].parent = 0;
  trace.AttachRemote(a, remote, 0);
  EXPECT_EQ(trace.dropped_spans(), 4u);
  EXPECT_EQ(trace.Records().size(), 3u);

  // Closing a dropped span is a safe no-op; the capped records survive.
  d.End();
  c.End();
  a.End();
  const auto records = trace.Records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].name, "a");
  EXPECT_EQ(records[1].name, "b");
  EXPECT_EQ(records[2].name, "c");

  // A zero cap clamps to one span so a root always fits.
  obs::Trace tiny([] { return static_cast<uint64_t>(0); },
                  [] { return static_cast<uint64_t>(0); });
  tiny.set_max_spans(0);
  EXPECT_EQ(tiny.max_spans(), 1u);
  obs::Span root = tiny.StartSpan("root");
  EXPECT_EQ(root.index(), 0);
  EXPECT_EQ(tiny.StartSpan("extra").index(), -1);
  EXPECT_EQ(tiny.dropped_spans(), 1u);
}

}  // namespace
}  // namespace lightlt
