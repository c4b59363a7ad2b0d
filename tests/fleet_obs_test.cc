// Distributed tracing + fleet telemetry harness (DESIGN.md §15): stitched
// span trees across real shard-server processes with injectable clocks
// (exact alignment arithmetic), the FleetCollector's poll / re-export /
// merge pipeline (conservation against per-shard snapshots), the
// degradation contract under NetFaultPlan corruption (skipped polls with
// exact drop counters, search never affected), trace-id-stamped log lines
// on the failover path, and the slow-query ring over remote shards. Built
// as its own ctest target with the `obs;net` labels (tools/run_tsan.sh,
// tools/run_chaos.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pipeline.h"
#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/net/client.h"
#include "src/net/fault.h"
#include "src/net/fleet.h"
#include "src/net/server.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/quality.h"
#include "src/obs/trace.h"
#include "src/serving/health.h"
#include "src/serving/router.h"
#include "src/serving/transport.h"
#include "src/util/deadline.h"

namespace lightlt::net {
namespace {

using serving::ReplicaAttempt;
using serving::ReplicaHealthMonitor;
using serving::Router;
using serving::RouterOptions;
using serving::ShardSet;
using serving::ShardSetOptions;

/// RAII disarm so a failing assertion can't leak an armed plan into the
/// next test.
struct NetFaultGuard {
  explicit NetFaultGuard(const NetFaultPlan& plan) { ArmNetFaults(plan); }
  ~NetFaultGuard() { DisarmNetFaults(); }
};

struct ClusterFixture {
  std::shared_ptr<core::LightLtModel> model;
  std::shared_ptr<const ShardSet> shards;
  Matrix queries;  // embedded, one per row
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

/// A logger whose lines the test can grep. PollOnce/Search run on the test
/// thread in every use below, so a plain vector is fine.
struct CapturingLogger {
  std::vector<std::string> lines;
  std::unique_ptr<obs::Logger> logger;

  CapturingLogger() {
    obs::Logger::Options lo;
    lo.min_level = obs::LogLevel::kWarn;
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

// ---------------------------------------------------------------------------
// Stitched traces: exact clock-alignment arithmetic on injectable clocks
// ---------------------------------------------------------------------------

TEST(FleetObsTest, StitchedTraceAlignsRemoteSpansOnInjectableClocks) {
  auto f = MakeCluster(1, 1);

  // The server's steady clock is frozen at 7777 and its wall clock at
  // 500000 — a process whose monotonic clock origin has nothing to do with
  // the client's. The client's trace runs on its own frozen clocks
  // (steady 1000, wall 400000; the 100000 wall delta models NTP skew).
  ShardServerOptions so;
  so.trace_clock = [] { return static_cast<uint64_t>(7777); };
  so.wall_clock = [] { return static_cast<uint64_t>(500000); };
  ShardServer server(f.shards, so);
  ASSERT_TRUE(server.Start().ok());

  RemoteSearcherClient client({"127.0.0.1", server.port()}, FastClient());
  const float* query = f.queries.row(0);
  const size_t dim = f.shards->searcher(0, 0).dim();
  const ScanControl control{Deadline::After(5.0), CancellationToken()};

  const ReplicaAttempt plain = client.Search(0, 0, query, dim, 5, control);
  ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();

  uint64_t client_steady = 1000;
  obs::Trace trace([&client_steady] { return client_steady; },
                   [] { return static_cast<uint64_t>(400000); });
  const ReplicaAttempt traced =
      client.Search(0, 0, query, dim, 5, control, &trace, nullptr);
  ASSERT_TRUE(traced.status.ok()) << traced.status.ToString();

  // Tracing must not perturb the search itself: bit-identical hits.
  ASSERT_EQ(traced.hits.size(), plain.hits.size());
  for (size_t i = 0; i < traced.hits.size(); ++i) {
    EXPECT_EQ(traced.hits[i].id, plain.hits[i].id);
    EXPECT_EQ(traced.hits[i].distance, plain.hits[i].distance);
  }
  EXPECT_EQ(client.stats().trace_drops, 0u);

  // Server spans were recorded at steady 7777 and re-based onto the client
  // timeline with offset = (500000−7777) − (400000−1000), so every remote
  // timestamp must land at exactly 7777 + offset = 101000: the client
  // steady epoch (1000) plus the 100000 wall-clock delta.
  const uint64_t expected_ns =
      7777 + ((500000 - 7777) - (400000 - 1000));
  ASSERT_EQ(expected_ns, 101000u);

  const auto records = trace.Records();
  ASSERT_GE(records.size(), 5u) << "rpc + rpc_recv/decode/scan/encode_reply";
  EXPECT_EQ(records[0].name, "rpc");
  EXPECT_EQ(records[0].parent, -1);
  EXPECT_FALSE(records[0].remote);
  EXPECT_EQ(records[0].start_ns, 1000u);

  int32_t rpc_recv_index = -1;
  size_t remote_spans = 0;
  for (size_t i = 1; i < records.size(); ++i) {
    const auto& r = records[i];
    ASSERT_TRUE(r.remote) << r.name;
    EXPECT_EQ(r.shard, 0) << r.name;
    EXPECT_EQ(r.start_ns, expected_ns) << r.name;
    EXPECT_EQ(r.end_ns, expected_ns) << r.name;
    ++remote_spans;
    if (r.name == "rpc_recv") {
      rpc_recv_index = static_cast<int32_t>(i);
      // The remote root hangs off the client's rpc span.
      EXPECT_EQ(r.parent, 0);
    }
  }
  ASSERT_NE(rpc_recv_index, -1);
  EXPECT_GE(remote_spans, 4u);
  // The server-side stages are children of rpc_recv after re-basing.
  for (const char* stage : {"decode", "scan", "encode_reply"}) {
    bool found = false;
    for (const auto& r : records) {
      if (r.name == stage) {
        EXPECT_EQ(r.parent, rpc_recv_index) << stage;
        found = true;
      }
    }
    EXPECT_TRUE(found) << stage;
  }

  server.Drain();
}

TEST(FleetObsTest, RouterStitchesOneTreeAcrossShardProcesses) {
  auto f = MakeCluster(2, 1);

  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::vector<Endpoint>> endpoints(2);
  for (size_t s = 0; s < 2; ++s) {
    ShardServerOptions so;
    so.hosted_shards = {s};
    auto server = std::make_unique<ShardServer>(f.shards, so);
    ASSERT_TRUE(server->Start().ok());
    endpoints[s] = {{"127.0.0.1", server->port()}};
    servers.push_back(std::move(server));
  }
  auto remote =
      RemoteTransport::Connect(endpoints, FastClient(), Deadline::After(5.0));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto health = std::make_shared<ReplicaHealthMonitor>(
      2, 1, serving::HealthOptions{});
  Router router(remote.value(), health, RouterOptions{});

  obs::Trace trace;
  const serving::RoutedResult r = router.Search(
      f.queries.row(0), 5, Deadline::After(5.0), {}, &trace, nullptr);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);

  // One rooted tree: the router span is the only root, every later span's
  // parent appears before it — including the spliced remote subtrees.
  const auto records = trace.Records();
  ASSERT_GE(records.size(), 3u);
  EXPECT_EQ(records[0].name, "router");
  EXPECT_EQ(records[0].parent, -1);
  size_t remote_by_shard[2] = {0, 0};
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].parent, 0) << records[i].name;
    EXPECT_LT(records[i].parent, static_cast<int32_t>(i)) << records[i].name;
    if (records[i].remote) {
      ASSERT_GE(records[i].shard, 0);
      ASSERT_LT(records[i].shard, 2);
      remote_by_shard[records[i].shard]++;
    }
  }
  // Both shard *processes* contributed spans to the single tree.
  EXPECT_GE(remote_by_shard[0], 4u);
  EXPECT_GE(remote_by_shard[1], 4u);

  // The JSONL export carries the shared trace id on every line.
  const std::string jsonl = trace.RenderJsonl();
  EXPECT_NE(jsonl.find(obs::TraceIdHex(trace.trace_id())), std::string::npos);

  for (auto& server : servers) server->Drain();
}

// ---------------------------------------------------------------------------
// Fleet collection: merge conservation and labelled re-export
// ---------------------------------------------------------------------------

TEST(FleetObsTest, FleetMergedHistogramEqualsSumOfPerShardSnapshots) {
  auto f = MakeCluster(2, 1);

  // One process per shard, each with its own registry and an admin-plane
  // listener the collector polls out of band.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> server_metrics;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::vector<Endpoint>> endpoints(2);
  std::vector<FleetEndpoint> fleet_endpoints;
  for (size_t s = 0; s < 2; ++s) {
    server_metrics.push_back(std::make_unique<obs::MetricsRegistry>());
    ShardServerOptions so;
    so.hosted_shards = {s};
    so.metrics = server_metrics.back().get();
    so.admin_listener = true;
    auto server = std::make_unique<ShardServer>(f.shards, so);
    ASSERT_TRUE(server->Start().ok());
    ASSERT_NE(server->admin_port(), 0);
    ASSERT_NE(server->admin_port(), server->port());
    endpoints[s] = {{"127.0.0.1", server->port()}};
    fleet_endpoints.push_back(
        {{"127.0.0.1", server->admin_port()}, static_cast<uint32_t>(s), 0});
    servers.push_back(std::move(server));
  }

  auto remote =
      RemoteTransport::Connect(endpoints, FastClient(), Deadline::After(5.0));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto health = std::make_shared<ReplicaHealthMonitor>(
      2, 1, serving::HealthOptions{});
  Router router(remote.value(), health, RouterOptions{});

  const size_t queries = 6;
  for (size_t q = 0; q < queries; ++q) {
    const serving::RoutedResult r = router.Search(
        f.queries.row(q), 5, Deadline::After(5.0), {}, nullptr, nullptr);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  }

  obs::MetricsRegistry fleet_registry;
  FleetCollectorOptions fo;
  fo.client = FastClient();
  fo.registry = &fleet_registry;
  FleetCollector collector(fleet_endpoints, fo);
  ASSERT_TRUE(collector.PollOnce().ok());

  const FleetView view = collector.View();
  ASSERT_EQ(view.members.size(), 2u);
  EXPECT_EQ(view.polls_attempted, 2u);
  EXPECT_EQ(view.polls_ok, 2u);
  EXPECT_EQ(view.payload_drops, 0u);
  for (const FleetMemberView& m : view.members) {
    EXPECT_TRUE(m.reachable);
    EXPECT_EQ(m.polls_ok, 1u);
    EXPECT_NE(m.prometheus_text.find("net_server_requests_total"),
              std::string::npos);
  }

  // The marquee conservation claim: the fleet-wide latency histogram is
  // exactly the bucket-wise sum of the per-shard snapshots — and each
  // server served each of the `queries` fan-outs exactly once.
  const auto merged_it = view.merged.find("net_server_request_seconds");
  ASSERT_NE(merged_it, view.merged.end());
  obs::HistogramSnapshot expected;
  uint64_t member_count_sum = 0;
  for (const FleetMemberView& m : view.members) {
    bool found = false;
    for (const auto& h : m.snapshot.histograms) {
      if (h.name == "net_server_request_seconds") {
        ASSERT_TRUE(expected.MergeFrom(h.snapshot).ok());
        member_count_sum += h.snapshot.count;
        found = true;
      }
    }
    ASSERT_TRUE(found) << "member is missing the request histogram";
  }
  EXPECT_EQ(merged_it->second.count, 2 * queries);
  EXPECT_EQ(member_count_sum, merged_it->second.count);
  EXPECT_EQ(merged_it->second.counts, expected.counts);
  EXPECT_DOUBLE_EQ(merged_it->second.sum, expected.sum);

  // Re-export: per-shard series appear under shard=/replica= labels in the
  // router-side registry, values mirroring the polled snapshots.
  const std::string text = fleet_registry.RenderText();
  EXPECT_NE(text.find("fleet_net_server_request_seconds_count"
                      "{shard=\"0\",replica=\"0\"}"),
            std::string::npos)
      << text;
  for (size_t s = 0; s < 2; ++s) {
    const std::string labelled = obs::AddLabel(
        obs::AddLabel("fleet_net_server_request_seconds_count", "shard",
                      std::to_string(s)),
        "replica", "0");
    EXPECT_DOUBLE_EQ(fleet_registry.GetGauge(labelled)->Value(),
                     static_cast<double>(queries));
  }
  EXPECT_DOUBLE_EQ(
      fleet_registry.GetGauge("fleet_net_server_request_seconds_merged_count")
          ->Value(),
      static_cast<double>(2 * queries));
  EXPECT_DOUBLE_EQ(fleet_registry.GetGauge("fleet_members_reachable")->Value(),
                   2.0);

  // The data plane kept serving while the admin plane was being polled.
  const serving::RoutedResult after = router.Search(
      f.queries.row(0), 5, Deadline::After(5.0), {}, nullptr, nullptr);
  EXPECT_TRUE(after.status.ok()) << after.status.ToString();

  for (auto& server : servers) server->Drain();
}

// ---------------------------------------------------------------------------
// Degradation contract under chaos: exact counters, search untouched
// ---------------------------------------------------------------------------

TEST(FleetObsTest, CorruptTelemetryPayloadSkipsPollButNeverFailsSearch) {
  auto f = MakeCluster(1, 1);
  obs::MetricsRegistry server_registry;
  ShardServerOptions so;
  so.metrics = &server_registry;
  so.admin_listener = true;
  ShardServer server(f.shards, so);
  ASSERT_TRUE(server.Start().ok());

  RemoteSearcherClient data_client({"127.0.0.1", server.port()},
                                   FastClient());
  const float* query = f.queries.row(0);
  const size_t dim = f.shards->searcher(0, 0).dim();
  const ScanControl control{Deadline::After(5.0), CancellationToken()};
  const ReplicaAttempt baseline =
      data_client.Search(0, 0, query, dim, 5, control);
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();

  CapturingLogger log;
  FleetCollectorOptions fo;
  fo.client = FastClient();
  fo.logger = log.logger.get();
  FleetCollector collector(
      {{{"127.0.0.1", server.admin_port()}, 0, 0}}, fo);
  ASSERT_TRUE(collector.PollOnce().ok());

  {
    // Corrupt the metrics response in flight. The poll must be skipped and
    // counted as a *payload drop* (the member answered; its payload was
    // damaged) — distinct from an outage, and never fatal.
    NetFaultPlan plan;
    plan.recv_flip_byte = 100;
    plan.flip_mask = 0x01;
    NetFaultGuard guard(plan);
    // Drop the pooled admin connection so the next poll dials a socket
    // that captures the armed plan.
    collector.client(0).CloseIdleConnections();

    const Status polled = collector.PollOnce();
    EXPECT_FALSE(polled.ok());
    const FleetView view = collector.View();
    EXPECT_EQ(view.polls_attempted, 2u);
    EXPECT_EQ(view.polls_ok, 1u);
    EXPECT_EQ(view.polls_failed, 1u);
    EXPECT_EQ(view.payload_drops, 1u);
    EXPECT_EQ(view.layout_rejects, 0u);
    // The member's last good snapshot stays in the view and the merge.
    ASSERT_EQ(view.members.size(), 1u);
    EXPECT_FALSE(view.members[0].reachable);
    EXPECT_EQ(view.members[0].polls_ok, 1u);
    EXPECT_FALSE(view.members[0].snapshot.histograms.empty());
    EXPECT_FALSE(view.merged.empty());
    EXPECT_GE(NetFaultCountersSnapshot().bytes_flipped, 1u);
    EXPECT_EQ(log.CountContaining("metrics poll skipped", "fleet"), 1u);

    // Search is untouched: the data-plane connection predates the armed
    // plan, and the answer is bit-identical to the baseline.
    const ReplicaAttempt during =
        data_client.Search(0, 0, query, dim, 5, control);
    ASSERT_TRUE(during.status.ok()) << during.status.ToString();
    ASSERT_EQ(during.hits.size(), baseline.hits.size());
    for (size_t i = 0; i < during.hits.size(); ++i) {
      EXPECT_EQ(during.hits[i].id, baseline.hits[i].id);
      EXPECT_EQ(during.hits[i].distance, baseline.hits[i].distance);
    }
  }

  // Disarmed: the next poll recovers on a fresh dial (the poisoned socket
  // was discarded) and the drop counter does not move.
  ASSERT_TRUE(collector.PollOnce().ok());
  {
    const FleetView view = collector.View();
    EXPECT_EQ(view.polls_ok, 2u);
    EXPECT_EQ(view.payload_drops, 1u);
    EXPECT_TRUE(view.members[0].reachable);
  }

  // An outage is a failed poll, *not* a payload drop: the counters keep
  // the two failure classes separable.
  server.ShutdownNow();
  EXPECT_FALSE(collector.PollOnce().ok());
  {
    const FleetView view = collector.View();
    EXPECT_EQ(view.polls_failed, 2u);
    EXPECT_EQ(view.payload_drops, 1u);
  }
}

TEST(FleetObsTest, BackgroundPollerGatesOnInjectableClock) {
  auto f = MakeCluster(1, 1);
  obs::MetricsRegistry server_registry;
  ShardServerOptions so;
  so.metrics = &server_registry;
  so.admin_listener = true;
  ShardServer server(f.shards, so);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<uint64_t> clock_ms{0};
  FleetCollectorOptions fo;
  fo.client = FastClient();
  fo.poll_interval_seconds = 1000.0;
  fo.clock = [&clock_ms] {
    return static_cast<double>(clock_ms.load(std::memory_order_relaxed)) *
           1e-3;
  };
  FleetCollector collector(
      {{{"127.0.0.1", server.admin_port()}, 0, 0}}, fo);

  collector.Start();
  collector.Start();  // idempotent
  const Deadline first = Deadline::After(10.0);
  while (collector.View().polls_attempted < 1 && !first.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(collector.View().polls_attempted, 1u) << "first poll immediate";

  // The interval clock is frozen, so no amount of real time may trigger
  // a second poll.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(collector.View().polls_attempted, 1u);

  clock_ms.store(1000 * 1000, std::memory_order_relaxed);  // +1000s
  const Deadline second = Deadline::After(10.0);
  while (collector.View().polls_attempted < 2 && !second.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  collector.Stop();
  collector.Stop();  // idempotent

  const FleetView view = collector.View();
  EXPECT_EQ(view.polls_attempted, 2u);
  EXPECT_EQ(view.polls_ok, 2u);
  EXPECT_TRUE(view.members[0].reachable);
  server.Drain();
}

// ---------------------------------------------------------------------------
// Trace-stamped log lines on the request path
// ---------------------------------------------------------------------------

TEST(FleetObsTest, FailoverLogLinesCarryTheRequestTraceId) {
  auto f = MakeCluster(1, 1);
  ShardServer server(f.shards, {});
  ASSERT_TRUE(server.Start().ok());

  CapturingLogger log;
  RemoteClientOptions co = FastClient();
  co.logger = log.logger.get();
  std::vector<std::vector<Endpoint>> endpoints = {
      {{"127.0.0.1", server.port()}}};
  auto remote =
      RemoteTransport::Connect(endpoints, co, Deadline::After(5.0));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  auto health = std::make_shared<ReplicaHealthMonitor>(
      1, 1, serving::HealthOptions{});
  RouterOptions ro;
  ro.logger = log.logger.get();
  Router router(remote.value(), health, ro);

  // Kill the only shard process: the traced request must fail, and every
  // log line it produced — client transport errors, the router's failover
  // verdict, the terminal shard-exhausted line — must carry its trace id.
  server.ShutdownNow();
  obs::Trace trace;
  trace.set_trace_id(0x1234ABCDu);
  const serving::RoutedResult r = router.Search(
      f.queries.row(0), 5, Deadline::After(2.0), {}, &trace, nullptr);
  EXPECT_FALSE(r.status.ok());

  const std::string hex = obs::TraceIdHex(0x1234ABCDu);
  EXPECT_EQ(hex, "000000001234abcd");
  EXPECT_GE(log.CountContaining(hex, "net_client"), 1u) << "transport error";
  EXPECT_GE(log.CountContaining(hex, "verdict"), 1u) << "failover verdict";
  EXPECT_GE(log.CountContaining(hex, "shard exhausted its replicas"), 1u);
  // Nothing logged the untraced sentinel for this request.
  EXPECT_EQ(log.CountContaining(obs::TraceIdHex(0), "verdict"), 0u);
}

// ---------------------------------------------------------------------------
// Slow-query ring over remote shards
// ---------------------------------------------------------------------------

TEST(FleetObsTest, SlowQueryRingCapturesRemoteSpansWithShardAttribution) {
  auto f = MakeCluster(2, 1);
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::vector<Endpoint>> endpoints(2);
  for (size_t s = 0; s < 2; ++s) {
    ShardServerOptions so;
    so.hosted_shards = {s};
    auto server = std::make_unique<ShardServer>(f.shards, so);
    ASSERT_TRUE(server->Start().ok());
    endpoints[s] = {{"127.0.0.1", server->port()}};
    servers.push_back(std::move(server));
  }
  auto remote =
      RemoteTransport::Connect(endpoints, FastClient(), Deadline::After(5.0));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto health = std::make_shared<ReplicaHealthMonitor>(
      2, 1, serving::HealthOptions{});
  Router router(remote.value(), health, RouterOptions{});

  obs::SlowQueryLog::Options lo;
  lo.capacity = 4;
  lo.latency_threshold_seconds = 1e-9;  // capture everything
  obs::SlowQueryLog slow_log(lo);

  obs::Trace trace;
  const serving::RoutedResult r = router.Search(
      f.queries.row(0), 5, Deadline::After(5.0), {}, &trace, nullptr);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  serving::MaybeCaptureSlowQuery(&slow_log, r, 0.25, &trace,
                                 serving::ExplainRouted(r));

  const auto snapshot = slow_log.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  const obs::SlowQueryRecord& rec = snapshot[0];
  EXPECT_EQ(rec.kind, "latency");
  EXPECT_EQ(rec.outcome, "ok");
  EXPECT_EQ(rec.trace_id, trace.trace_id());
  EXPECT_DOUBLE_EQ(rec.latency_seconds, 0.25);
  EXPECT_DOUBLE_EQ(rec.explain.coverage, 1.0);
  EXPECT_EQ(rec.explain.shards_answered, 2u);
  EXPECT_EQ(rec.explain.failovers, 0u);
  // The captured span tree includes both shard processes' remote spans.
  size_t remote_by_shard[2] = {0, 0};
  for (const auto& span : rec.spans) {
    if (span.remote) {
      ASSERT_GE(span.shard, 0);
      ASSERT_LT(span.shard, 2);
      remote_by_shard[span.shard]++;
    }
  }
  EXPECT_GE(remote_by_shard[0], 1u);
  EXPECT_GE(remote_by_shard[1], 1u);

  // And the ring's JSONL keeps the attribution and the joinable trace id.
  const std::string jsonl = slow_log.RenderJsonl();
  EXPECT_NE(jsonl.find(obs::TraceIdHex(trace.trace_id())), std::string::npos);
  EXPECT_NE(jsonl.find("\"remote\":true"), std::string::npos);
  EXPECT_NE(jsonl.find("\"shards_answered\":2"), std::string::npos);

  // Guard rails: sub-threshold, null-log and untraced calls are all safe.
  obs::SlowQueryLog quiet({4, 10.0});
  const obs::ExplainRecord explain = serving::ExplainRouted(r);
  serving::MaybeCaptureSlowQuery(&quiet, r, 0.001, &trace, explain);
  EXPECT_TRUE(quiet.Snapshot().empty());
  serving::MaybeCaptureSlowQuery(nullptr, r, 1.0, &trace, explain);
  serving::MaybeCaptureSlowQuery(&slow_log, r, 1.0, nullptr, explain);
  const auto untraced = slow_log.Snapshot();
  ASSERT_EQ(untraced.size(), 2u);
  EXPECT_EQ(untraced[1].trace_id, 0u);
  EXPECT_TRUE(untraced[1].spans.empty());

  for (auto& server : servers) server->Drain();
}

}  // namespace
}  // namespace lightlt::net
