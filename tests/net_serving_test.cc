// Out-of-process shard serving harness (DESIGN.md §14): the frame codec,
// deadline propagation over the wire, graceful drain, the NetFaultPlan
// chaos knobs (refused connects, mid-send truncation, byte flips, stalls,
// resets), and the marquee robustness scenario — killing and restarting a
// real shard server mid-storm while the Router keeps serving with partial
// coverage and the health monitor re-admits the restarted server without a
// client restart. Built as its own ctest target with the `net` label
// (tools/run_chaos.sh, tools/run_tsan.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pipeline.h"
#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/net/client.h"
#include "src/net/fault.h"
#include "src/net/frame.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/obs/log.h"
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

  const Matrix embedded = core::EmbedInChunks(*f.model, bench.database.features);
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

serving::HealthOptions FastHealth() {
  serving::HealthOptions h;
  h.failures_to_suspect = 1;
  h.failures_to_down = 2;
  h.successes_to_recover = 1;
  h.down_cooldown_seconds = 0.3;
  h.probe_budget = 1;
  return h;
}

RemoteClientOptions FastClient() {
  RemoteClientOptions c;
  c.dial_retry.max_attempts = 2;
  c.dial_retry.initial_backoff_seconds = 0.01;
  c.dial_timeout_seconds = 0.5;
  return c;
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(NetServingTest, FrameAndMessageRoundTrip) {
  WireSearchResponse resp;
  resp.code = static_cast<int32_t>(StatusCode::kOk);
  resp.message = "";
  resp.hits = {{7, 0.25f}, {3, 0.5f}, {11, 0.5f}};
  resp.server_seconds = 0.0125;
  resp.shed = true;

  const std::vector<uint8_t> frame_bytes =
      EncodeFrame(FrameType::kSearchResponse, EncodeSearchResponse(resp));
  Frame frame;
  ASSERT_TRUE(
      DecodeFrameBytes(frame_bytes.data(), frame_bytes.size(), &frame).ok());
  EXPECT_EQ(frame.type, FrameType::kSearchResponse);

  WireSearchResponse back;
  ASSERT_TRUE(DecodeSearchResponse(frame.body, &back).ok());
  EXPECT_EQ(back.code, resp.code);
  EXPECT_TRUE(back.shed);
  ASSERT_EQ(back.hits.size(), 3u);
  EXPECT_EQ(back.hits[0].id, 7u);
  EXPECT_EQ(back.hits[1].distance, 0.5f);  // bitwise
  EXPECT_EQ(back.server_seconds, resp.server_seconds);

  // Unknown wire codes clamp to kInternal — corruption can't forge an OK.
  EXPECT_EQ(StatusCodeFromWire(9999), StatusCode::kInternal);
  EXPECT_EQ(StatusCodeFromWire(static_cast<int32_t>(StatusCode::kUnavailable)),
            StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// Loopback equivalence: remote == local, bit for bit
// ---------------------------------------------------------------------------

TEST(NetServingTest, RemoteMergeIsBitIdenticalToLocal) {
  auto f = MakeCluster(/*num_shards=*/3, /*num_replicas=*/2);

  // One server per shard; both replicas of a shard live at its endpoint.
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::vector<Endpoint>> endpoints(3);
  for (size_t s = 0; s < 3; ++s) {
    ShardServerOptions so;
    so.hosted_shards = {s};
    auto server = std::make_unique<ShardServer>(f.shards, so);
    ASSERT_TRUE(server->Start().ok());
    endpoints[s] = {{"127.0.0.1", server->port()},
                    {"127.0.0.1", server->port()}};
    servers.push_back(std::move(server));
  }

  auto remote = RemoteTransport::Connect(endpoints, FastClient(),
                                         Deadline::After(5.0));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote.value()->total_items(), f.shards->total_items());
  EXPECT_EQ(remote.value()->dim(), f.shards->searcher(0, 0).dim());

  auto local_health =
      std::make_shared<ReplicaHealthMonitor>(3, 2, serving::HealthOptions{});
  auto remote_health =
      std::make_shared<ReplicaHealthMonitor>(3, 2, serving::HealthOptions{});
  Router local(std::make_shared<serving::LocalShardTransport>(f.shards),
               local_health, RouterOptions{});
  Router remote_router(remote.value(), remote_health, RouterOptions{});

  const size_t queries = f.queries.rows();
  for (size_t q = 0; q < queries; ++q) {
    auto a = local.Search(f.queries.row(q), 5, Deadline(), {}, nullptr,
                          nullptr);
    auto b = remote_router.Search(f.queries.row(q), 5, Deadline(), {},
                                  nullptr, nullptr);
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    ASSERT_TRUE(b.status.ok()) << b.status.ToString();
    EXPECT_DOUBLE_EQ(b.coverage, 1.0);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (size_t i = 0; i < a.hits.size(); ++i) {
      EXPECT_EQ(a.hits[i].id, b.hits[i].id);
      EXPECT_EQ(a.hits[i].distance, b.hits[i].distance);  // bitwise
    }
  }

  // Drain first (joins every handler), then assert exact accounting:
  // every query sent exactly one search request to each shard's server
  // (first replica attempt succeeded every time), plus the one info
  // request Connect() used to learn the layout.
  for (size_t s = 0; s < 3; ++s) {
    servers[s]->Drain();
    const ShardServerStats stats = servers[s]->stats();
    EXPECT_EQ(stats.requests_ok, queries);
    EXPECT_EQ(stats.frames_received, queries + 1);
    EXPECT_EQ(stats.frames_sent, queries + 1);
    EXPECT_EQ(stats.wire_errors, 0u);
    // Nothing was in flight at drain time, so nothing was forced.
    EXPECT_EQ(stats.forced_closes, 0u);
  }
}

// ---------------------------------------------------------------------------
// Deadline propagation
// ---------------------------------------------------------------------------

TEST(NetServingTest, ServerMaterialisesWireBudgetAsScanDeadline) {
  auto f = MakeCluster(1, 1);
  ShardServer server(f.shards, {});
  ASSERT_TRUE(server.Start().ok());

  // Hand-built exchange so the *wire* budget is pinned to zero while the
  // client's own I/O control stays generous: only the server-side
  // ScanControl can produce the kDeadlineExceeded below.
  auto sock = Socket::ConnectTcp("127.0.0.1", server.port(),
                                 Deadline::After(2.0));
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  Socket conn = std::move(sock).value();

  WireSearchRequest req;
  req.shard = 0;
  req.replica = 0;
  req.top_k = 5;
  req.budget_seconds = 0.0;  // spent before it arrives
  req.query.assign(f.shards->searcher(0, 0).dim(), 0.0f);

  const ScanControl io{Deadline::After(5.0), CancellationToken()};
  ASSERT_TRUE(WriteFrame(&conn, FrameType::kSearchRequest,
                         EncodeSearchRequest(req), io)
                  .ok());
  Frame response;
  ASSERT_TRUE(ReadFrame(&conn, &response, io).ok());
  WireSearchResponse resp;
  ASSERT_TRUE(DecodeSearchResponse(response.body, &resp).ok());
  EXPECT_EQ(StatusCodeFromWire(resp.code), StatusCode::kDeadlineExceeded);

  server.Drain();
}

// ---------------------------------------------------------------------------
// Drain semantics
// ---------------------------------------------------------------------------

TEST(NetServingTest, DrainLetsCommittedRequestsFinishAndFlush) {
  auto f = MakeCluster(1, 1);
  ShardServerOptions so;
  so.drain_deadline_seconds = 5.0;
  ShardServer server(f.shards, so);
  ASSERT_TRUE(server.Start().ok());

  auto sock = Socket::ConnectTcp("127.0.0.1", server.port(),
                                 Deadline::After(2.0));
  ASSERT_TRUE(sock.ok());
  Socket conn = std::move(sock).value();

  WireSearchRequest req;
  req.shard = 0;
  req.replica = 0;
  req.top_k = 3;
  req.query.assign(f.shards->searcher(0, 0).dim(), 0.0f);
  const std::vector<uint8_t> frame_bytes =
      EncodeFrame(FrameType::kSearchRequest, EncodeSearchRequest(req));

  // Commit the request (header on the wire) but hold back the body, then
  // start the drain: the server must wait for the committed request, serve
  // it, flush the response, and only then let the connection go.
  const ScanControl io{Deadline::After(5.0), CancellationToken()};
  ASSERT_TRUE(
      conn.SendAll(frame_bytes.data(), kFrameHeaderBytes, io).ok());

  std::thread drainer([&] {
    // Give the handler a moment to pick up the header before draining.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.Drain();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(conn.SendAll(frame_bytes.data() + kFrameHeaderBytes,
                           frame_bytes.size() - kFrameHeaderBytes, io)
                  .ok());
  Frame response;
  ASSERT_TRUE(ReadFrame(&conn, &response, io).ok());
  WireSearchResponse resp;
  ASSERT_TRUE(DecodeSearchResponse(response.body, &resp).ok());
  EXPECT_EQ(StatusCodeFromWire(resp.code), StatusCode::kOk);
  drainer.join();

  const ShardServerStats stats = server.stats();
  EXPECT_EQ(stats.forced_closes, 0u);
  EXPECT_EQ(stats.requests_ok, 1u);
  EXPECT_GE(stats.last_drain_seconds, 0.0);

  // The listener is gone: new connections are refused (kUnavailable).
  auto after = Socket::ConnectTcp("127.0.0.1", server.port(),
                                  Deadline::After(0.5));
  EXPECT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
}

TEST(NetServingTest, DrainDeadlineForcesStuckConnections) {
  auto f = MakeCluster(1, 1);
  ShardServerOptions so;
  so.drain_deadline_seconds = 0.2;
  ShardServer server(f.shards, so);
  ASSERT_TRUE(server.Start().ok());

  auto sock = Socket::ConnectTcp("127.0.0.1", server.port(),
                                 Deadline::After(2.0));
  ASSERT_TRUE(sock.ok());
  Socket conn = std::move(sock).value();

  // Commit a request and never send the body: the handler is stuck
  // mid-frame, so the drain deadline must fire and force-reset it.
  WireSearchRequest req;
  req.shard = 0;
  req.top_k = 3;
  req.query.assign(f.shards->searcher(0, 0).dim(), 0.0f);
  const std::vector<uint8_t> frame_bytes =
      EncodeFrame(FrameType::kSearchRequest, EncodeSearchRequest(req));
  const ScanControl io{Deadline::After(5.0), CancellationToken()};
  ASSERT_TRUE(
      conn.SendAll(frame_bytes.data(), kFrameHeaderBytes, io).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const Deadline watchdog = Deadline::After(3.0);
  server.Drain();
  EXPECT_FALSE(watchdog.Expired()) << "drain hung past its deadline";
  EXPECT_EQ(server.stats().forced_closes, 1u);
}

// ---------------------------------------------------------------------------
// NetFaultPlan chaos knobs → status mapping
// ---------------------------------------------------------------------------

TEST(NetServingTest, ConnectRefusedMapsToUnavailable) {
  // A closed port: the OS refuses the SYN outright.
  RemoteSearcherClient client({"127.0.0.1", 1}, FastClient());
  std::vector<float> query(12, 0.0f);
  const ScanControl control{Deadline::After(2.0), CancellationToken()};
  ReplicaAttempt attempt =
      client.Search(0, 0, query.data(), query.size(), 3, control);
  EXPECT_EQ(attempt.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.stats().dial_failures, 1u);

  // The injected flavour, no server involved at all.
  NetFaultPlan plan;
  plan.refuse_first_n_connects = -1;
  NetFaultGuard guard(plan);
  ReplicaAttempt injected =
      client.Search(0, 0, query.data(), query.size(), 3, control);
  EXPECT_EQ(injected.status.code(), StatusCode::kUnavailable);
  EXPECT_GE(NetFaultCountersSnapshot().connects_refused, 1u);
}

TEST(NetServingTest, ByteFlipInFlightIsCaughtByCrcAndMapsToUnavailable) {
  auto f = MakeCluster(1, 1);
  ShardServer server(f.shards, {});
  ASSERT_TRUE(server.Start().ok());

  // Flip a received byte past the request's length: only the client's
  // (larger) response stream reaches that offset, so the fault lands in
  // the response and the client's CRC check must catch it.
  NetFaultPlan plan;
  plan.recv_flip_byte = 150;
  plan.flip_mask = 0x20;
  NetFaultGuard guard(plan);

  RemoteSearcherClient client({"127.0.0.1", server.port()}, FastClient());
  std::vector<float> query(f.shards->searcher(0, 0).dim(), 0.0f);
  const ScanControl control{Deadline::After(5.0), CancellationToken()};
  ReplicaAttempt attempt =
      client.Search(0, 0, query.data(), query.size(), 32, control);
  EXPECT_EQ(attempt.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(attempt.status.message().find("corrupt"), std::string::npos)
      << attempt.status.ToString();
  EXPECT_EQ(client.stats().wire_errors, 1u);
  EXPECT_EQ(NetFaultCountersSnapshot().bytes_flipped, 1u);

  DisarmNetFaults();
  server.Drain();
}

// The admin calls share one error path: a corrupt info response is a
// retryable wire error and logs one `op="get_info"` line, as a corrupt
// metrics or profile response logs its own op.
TEST(NetServingTest, CorruptInfoResponseIsLoggedAsGetInfo) {
  auto f = MakeCluster(1, 1);
  ShardServer server(f.shards, {});
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::string> lines;
  obs::Logger::Options lo;
  lo.stream = nullptr;
  lo.callback = [&lines](const std::string& line) { lines.push_back(line); };
  obs::Logger logger(lo);
  RemoteClientOptions co = FastClient();
  co.logger = &logger;
  RemoteSearcherClient client({"127.0.0.1", server.port()}, co);

  // Byte 20 is inside the info response's body; the CRC must catch it.
  NetFaultPlan plan;
  plan.recv_flip_byte = 20;
  NetFaultGuard guard(plan);
  const auto info = client.GetInfo(0, Deadline::After(5.0));
  EXPECT_EQ(info.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(info.status().message().find("corrupt"), std::string::npos)
      << info.status().ToString();
  EXPECT_EQ(client.stats().wire_errors, 1u);
  EXPECT_EQ(NetFaultCountersSnapshot().bytes_flipped, 1u);
  size_t get_info_lines = 0;
  for (const std::string& line : lines) {
    if (line.find("op=\"get_info\"") != std::string::npos) ++get_info_lines;
  }
  EXPECT_EQ(get_info_lines, 1u);

  DisarmNetFaults();
  server.Drain();
}

TEST(NetServingTest, MidSendTruncationMapsToUnavailable) {
  auto f = MakeCluster(1, 1);
  ShardServer server(f.shards, {});
  ASSERT_TRUE(server.Start().ok());

  NetFaultPlan plan;
  plan.send_truncate_at = 40;  // inside the request frame
  NetFaultGuard guard(plan);

  RemoteSearcherClient client({"127.0.0.1", server.port()}, FastClient());
  std::vector<float> query(f.shards->searcher(0, 0).dim(), 0.0f);
  const ScanControl control{Deadline::After(5.0), CancellationToken()};
  ReplicaAttempt attempt =
      client.Search(0, 0, query.data(), query.size(), 3, control);
  EXPECT_EQ(attempt.status.code(), StatusCode::kUnavailable);
  EXPECT_GE(NetFaultCountersSnapshot().sends_truncated, 1u);

  DisarmNetFaults();
  server.Drain();
}

TEST(NetServingTest, ResetAfterFrameMapsToUnavailable) {
  auto f = MakeCluster(1, 1);
  ShardServer server(f.shards, {});
  ASSERT_TRUE(server.Start().ok());

  NetFaultPlan plan;
  plan.reset_after_frames = 1;  // RST right after the request frame
  NetFaultGuard guard(plan);

  RemoteSearcherClient client({"127.0.0.1", server.port()}, FastClient());
  std::vector<float> query(f.shards->searcher(0, 0).dim(), 0.0f);
  const ScanControl control{Deadline::After(5.0), CancellationToken()};
  ReplicaAttempt attempt =
      client.Search(0, 0, query.data(), query.size(), 3, control);
  EXPECT_EQ(attempt.status.code(), StatusCode::kUnavailable);
  EXPECT_GE(NetFaultCountersSnapshot().resets_injected, 1u);

  DisarmNetFaults();
  server.Drain();
}

TEST(NetServingTest, StallPastDeadlineMapsToDeadlineExceeded) {
  auto f = MakeCluster(1, 1);
  ShardServer server(f.shards, {});
  ASSERT_TRUE(server.Start().ok());

  NetFaultPlan plan;
  plan.stall_seconds = 0.5;
  NetFaultGuard guard(plan);

  RemoteSearcherClient client({"127.0.0.1", server.port()}, FastClient());
  std::vector<float> query(f.shards->searcher(0, 0).dim(), 0.0f);
  const ScanControl control{Deadline::After(0.15), CancellationToken()};
  ReplicaAttempt attempt =
      client.Search(0, 0, query.data(), query.size(), 3, control);
  EXPECT_EQ(attempt.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(NetFaultCountersSnapshot().stalls_injected, 1u);

  DisarmNetFaults();
  server.ShutdownNow();
}

// ---------------------------------------------------------------------------
// Per-connection metrics flow through the standard registry
// ---------------------------------------------------------------------------

TEST(NetServingTest, ConnectionMetricsFlowThroughRegistry) {
  auto f = MakeCluster(1, 1);
  obs::MetricsRegistry registry;

  ShardServerOptions so;
  so.metrics = &registry;
  ShardServer server(f.shards, so);
  ASSERT_TRUE(server.Start().ok());

  RemoteClientOptions co = FastClient();
  co.metrics = &registry;
  RemoteSearcherClient client({"127.0.0.1", server.port()}, co);
  std::vector<float> query(f.shards->searcher(0, 0).dim(), 0.0f);
  const ScanControl control{Deadline::After(5.0), CancellationToken()};
  ReplicaAttempt attempt =
      client.Search(0, 0, query.data(), query.size(), 3, control);
  ASSERT_TRUE(attempt.status.ok()) << attempt.status.ToString();
  server.Drain();

  const std::string endpoint =
      "127.0.0.1:" + std::to_string(server.port());
  EXPECT_EQ(registry
                .GetCounter(obs::WithLabel("net_client_connects_total",
                                           "endpoint", endpoint))
                ->Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("net_server_frames_received_total")->Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("net_server_frames_sent_total")->Value(), 1u);
  EXPECT_EQ(registry
                .GetCounter(obs::WithLabel("net_server_requests_total",
                                           "outcome", "ok"))
                ->Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("net_server_wire_errors_total")->Value(), 0u);
  // The drain recorded its duration into the histogram.
  EXPECT_EQ(registry.GetHistogram("net_server_drain_seconds")->Snapshot().count,
            1u);
  // And everything renders through the normal Prometheus text path.
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("net_client_frames_sent_total"), std::string::npos);
  EXPECT_NE(text.find("net_server_active_connections"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Kill / restart under storm
// ---------------------------------------------------------------------------

TEST(NetServingTest, KillAndRestartServerMidStormDegradesThenReAdmits) {
  auto f = MakeCluster(/*num_shards=*/2, /*num_replicas=*/1);

  auto make_server = [&](size_t shard, uint16_t port) {
    ShardServerOptions so;
    so.hosted_shards = {shard};
    so.port = port;
    auto server = std::make_unique<ShardServer>(f.shards, so);
    Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
    return server;
  };
  auto server0 = make_server(0, 0);
  auto server1 = make_server(1, 0);
  const uint16_t port1 = server1->port();

  std::vector<std::vector<Endpoint>> endpoints = {
      {{"127.0.0.1", server0->port()}},
      {{"127.0.0.1", port1}},
  };
  auto remote = RemoteTransport::Connect(endpoints, FastClient(),
                                         Deadline::After(5.0));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  auto health = std::make_shared<ReplicaHealthMonitor>(2, 1, FastHealth());
  RouterOptions ro;
  ro.quorum_coverage = 0.4;  // one surviving shard keeps us serving
  Router router(remote.value(), health, ro);

  // Storm: worker threads hammer the router; every query must terminate
  // (bounded deadline, never a hang) as served-full or served-partial.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> full{0}, partial{0}, failed{0}, total{0};
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const float* query = f.queries.row(t % f.queries.rows());
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = router.Search(query, 5, Deadline::After(2.0), {}, nullptr,
                               nullptr);
        total.fetch_add(1, std::memory_order_relaxed);
        if (r.status.ok()) {
          if (r.coverage >= 1.0) {
            full.fetch_add(1, std::memory_order_relaxed);
          } else {
            partial.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Warm-up: wait until the storm has served some full-coverage queries.
  const Deadline warmup = Deadline::After(5.0);
  while (full.load() < 20 && !warmup.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(full.load(), 20u);

  // Kill shard 1's server mid-storm: coverage degrades to shard 0 only.
  server1->ShutdownNow();
  const uint64_t partial_before = partial.load();
  const Deadline degrade = Deadline::After(10.0);
  while (partial.load() == partial_before && !degrade.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(partial.load(), partial_before)
      << "storm never degraded to partial coverage after the kill";

  // Restart on the same port. The health monitor's cooldown elapses, a
  // probe succeeds, and full coverage returns — same client, no restart.
  server1.reset();
  server1 = make_server(1, port1);
  const uint64_t full_before = full.load();
  const Deadline readmit = Deadline::After(10.0);
  while (full.load() == full_before && !readmit.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(full.load(), full_before)
      << "restarted server was never re-admitted";

  stop.store(true);
  for (std::thread& w : workers) w.join();

  // Exact conservation: every query landed in exactly one bucket, and the
  // storm never produced an outright failure (quorum held throughout).
  EXPECT_EQ(full.load() + partial.load() + failed.load(), total.load());
  EXPECT_EQ(failed.load(), 0u)
      << "full=" << full.load() << " partial=" << partial.load()
      << " failed=" << failed.load();

  // Reconnect/backoff did its job: the shard-1 client dialed again after
  // the kill instead of needing a fresh client.
  EXPECT_GE(remote.value()->client(1, 0).stats().reconnects, 1u);
}

}  // namespace
}  // namespace lightlt::net
