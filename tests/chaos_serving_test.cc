// Serving chaos harness tests (DESIGN.md §9): drives every request
// lifecycle outcome — served / degraded / shed / expired / cancelled — with
// deterministic fault injection (ChaosPlan), asserts exact ServiceStats
// counters, and checks that the IVF→flat fallback decides each request on
// that request alone. Built as its own ctest target with the `chaos` label
// (tools/run_chaos.sh) and included in the TSan preset.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/serving/service.h"
#include "src/util/chaos.h"
#include "src/util/deadline.h"
#include "src/util/retry.h"
#include "src/util/rng.h"

namespace lightlt::serving {
namespace {

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

bool SpinUntil(const std::function<bool()>& pred, double timeout_seconds) {
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(timeout_seconds));
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// RAII disarm so a failing assertion can't leak an armed plan (or a held
/// IVF gate) into the next test.
struct ChaosGuard {
  ~ChaosGuard() { DisarmChaos(); }
};

/// Dumps the service's metrics registry to stderr when the enclosing test
/// fails, so a chaos failure ships the full counter/histogram state with
/// the log. Gated on LIGHTLT_CHAOS_DUMP_METRICS (set by tools/run_chaos.sh)
/// to keep ordinary failures terse.
struct MetricsDumpOnFailure {
  const RetrievalService* service = nullptr;
  ~MetricsDumpOnFailure() {
    if (service != nullptr && ::testing::Test::HasFailure() &&
        std::getenv("LIGHTLT_CHAOS_DUMP_METRICS") != nullptr) {
      std::fprintf(stderr, "---- metrics registry at failure ----\n%s",
                   service->Metrics().RenderText().c_str());
    }
  }
};

// One sequential pass that lands a request in every lifecycle outcome and
// checks the exact counter bookkeeping for each.
TEST(ChaosServingTest, EveryLifecycleOutcomeWithExactStats) {
  ChaosGuard guard;
  auto f = MakeFixture();
  ServiceOptions opts;
  opts.use_ivf = true;
  opts.ivf.num_cells = 10;
  opts.ivf.nprobe = 2;
  // Token bucket: 3 tokens, frozen clock => no refill, so admission
  // decisions depend only on the sequence of calls below.
  opts.admission.rate_per_second = 1.0;
  opts.admission.burst = 3.0;
  opts.admission.clock = [] { return 0.0; };
  auto built = RetrievalService::Build(f.model, f.bench.database.features,
                                       opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& service = built.value();
  const Matrix query = f.bench.query.features.RowCopy(0);

  // 1. Served, full quality (token 1/3).
  ASSERT_TRUE(service.Query(query, 3).ok());

  // 2. Served degraded: injected IVF failure forces the flat fallback
  //    (token 2/3).
  ChaosPlan plan;
  plan.ivf_fail_first_n = 1;
  ArmChaos(plan);
  auto degraded = service.Query(query, 3);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded.value().size(), 3u);
  EXPECT_EQ(ChaosCountersSnapshot().ivf_failures_injected, 1u);
  DisarmChaos();

  // 3. Expired: a pre-expired deadline is rejected before admission, so it
  //    consumes no token.
  RequestOptions expired_req;
  expired_req.deadline = Deadline::After(0.0);
  auto expired = service.Query(query, 3, expired_req);
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  // 4. Served (token 3/3 — proof the expired request kept its token).
  ASSERT_TRUE(service.Query(query, 3).ok());

  // 5. Shed: the bucket is empty and the frozen clock never refills it.
  auto shed = service.Query(query, 3);
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(shed.status()));

  // 6. Cancelled: also pre-admission, also token-free.
  CancellationSource source;
  source.RequestCancellation();
  RequestOptions cancelled_req;
  cancelled_req.cancel = source.token();
  auto cancelled = service.Query(query, 3, cancelled_req);
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.served, 3u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.flat_fallbacks, 1u);
  EXPECT_EQ(stats.degraded_admissions, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

// Soft overload with the kDegrade policy: the second concurrent request is
// admitted but sheds its optional work (IVF path, exact rerank).
TEST(ChaosServingTest, SoftOverloadDegradesInsteadOfShedding) {
  ChaosGuard guard;
  auto f = MakeFixture();
  ServiceOptions opts;
  opts.use_ivf = true;
  opts.ivf.num_cells = 10;
  opts.ivf.nprobe = 2;
  opts.exact_rerank = true;
  opts.rerank_pool = 20;
  opts.admission.degrade_in_flight = 1;
  opts.admission.on_overload = AdmissionOptions::OverloadPolicy::kDegrade;
  auto built = RetrievalService::Build(f.model, f.bench.database.features,
                                       opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& service = built.value();
  const Matrix query = f.bench.query.features.RowCopy(0);

  // Pin request A inside the IVF path so B deterministically observes
  // in_flight == 1 at admission time.
  ArmChaos(ChaosPlan{});
  HoldIvf(true);
  std::thread held([&] { EXPECT_TRUE(service.Query(query, 3).ok()); });
  ASSERT_TRUE(SpinUntil([&] { return service.Stats().in_flight == 1; }, 30.0));

  // B: admitted degraded — flat scan (never touches the held IVF gate),
  // no rerank — and completes while A is still pinned.
  auto b = service.Query(query, 3);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().size(), 3u);
  EXPECT_EQ(service.Stats().degraded_admissions, 1u);
  EXPECT_EQ(service.Stats().in_flight, 1u);  // A still pinned

  HoldIvf(false);
  held.join();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

// The fallback has no memory: with default options, six injected IVF
// failures in a row send six requests to the flat scan, and the seventh
// request still tries IVF — and is served by it, with the hits a clean
// service returns. A request cancelled while pinned inside IVF ends
// kCancelled and counts no fallback: a deadline or cancel says nothing
// about IVF, so it never turns into a flat scan.
TEST(ChaosServingTest, EveryRequestTriesIvfAfterAnyFailureStreak) {
  ChaosGuard guard;
  auto f = MakeFixture();
  ServiceOptions opts;
  opts.use_ivf = true;
  opts.ivf.num_cells = 10;
  opts.ivf.nprobe = 2;
  auto clean = RetrievalService::Build(f.model, f.bench.database.features,
                                       opts);
  auto built = RetrievalService::Build(f.model, f.bench.database.features,
                                       opts);
  ASSERT_TRUE(clean.ok() && built.ok());
  const auto& service = built.value();
  MetricsDumpOnFailure dump{&service};
  const Matrix query = f.bench.query.features.RowCopy(0);
  auto want = clean.value().Query(query, 3);
  ASSERT_TRUE(want.ok());

  ChaosPlan plan;
  plan.ivf_fail_first_n = 6;
  ArmChaos(plan);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(service.Query(query, 3).ok());
  EXPECT_EQ(ChaosCountersSnapshot().ivf_failures_injected, 6u);
  EXPECT_EQ(service.Stats().flat_fallbacks, 6u);

  auto got = service.Query(query, 3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ChaosCountersSnapshot().ivf_searches, 7u);
  EXPECT_EQ(service.Stats().flat_fallbacks, 6u);
  ASSERT_EQ(got.value().size(), want.value().size());
  for (size_t i = 0; i < want.value().size(); ++i) {
    EXPECT_EQ(got.value()[i].id, want.value()[i].id) << i;
    EXPECT_EQ(got.value()[i].distance, want.value()[i].distance) << i;
  }

  // Pin a request inside IVF, cancel it, then let the scan run: its chunk
  // check ends it, and it must not fall back to the flat scan.
  CancellationSource source;
  RequestOptions cancellable;
  cancellable.cancel = source.token();
  HoldIvf(true);
  Status held_status;
  std::thread held([&] {
    held_status = service.Query(query, 3, cancellable).status();
  });
  EXPECT_TRUE(SpinUntil(
      [] { return ChaosCountersSnapshot().ivf_searches == 8; }, 30.0));
  source.RequestCancellation();
  HoldIvf(false);
  held.join();
  EXPECT_EQ(held_status.code(), StatusCode::kCancelled);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.served, 7u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.flat_fallbacks, 6u);
  EXPECT_EQ(stats.in_flight, 0u);
}

// A transient injected scan fault fails exactly one attempt with a
// retryable status; CallWithRetry's second attempt is served.
TEST(ChaosServingTest, TransientScanFaultIsRetryable) {
  ChaosGuard guard;
  auto f = MakeFixture();
  auto built = RetrievalService::Build(f.model, f.bench.database.features);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& service = built.value();
  const Matrix query = f.bench.query.features.RowCopy(0);

  ChaosPlan plan;
  plan.scan_fail_nth = 0;  // the very first scan chunk fails once
  ArmChaos(plan);

  int attempts = 0;
  RetryPolicy policy;
  policy.max_attempts = 2;
  auto r = CallWithRetry(
      policy,
      [&]() -> Result<std::vector<ServedHit>> {
        ++attempts;
        return service.Query(query, 3);
      },
      /*sleep_fn=*/[](double) {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(ChaosCountersSnapshot().scan_failures_injected, 1u);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.served, 1u);
}

// Partial-failure semantics of QueryBatch under an injected slow scan: a
// poisoned row fails alone, rows that fit the deadline are served, rows
// reached after expiry report kDeadlineExceeded — all in one batch.
TEST(ChaosServingTest, BatchMixesServedPoisonedAndExpiredRows) {
  ChaosGuard guard;
  auto f = MakeFixture();
  auto built = RetrievalService::Build(f.model, f.bench.database.features);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& service = built.value();

  Matrix batch(4, 16);
  for (size_t r = 0; r < 4; ++r) {
    const float* src = f.bench.query.features.row(r);
    std::copy(src, src + 16, batch.data() + r * 16);
  }
  batch.data()[1 * 16 + 3] = std::numeric_limits<float>::quiet_NaN();

  // Inline rows (null pool) run in submit order; a 60 ms injected delay per
  // scan makes row timing deterministic against a 100 ms batch deadline:
  // row 0 finishes at ~60 ms (served), row 1 is rejected instantly, row 2
  // starts before the deadline and may overshoot by its one chunk (served
  // at ~120 ms), row 3 starts after two full 60 ms sleeps, i.e. past the
  // deadline (expired at admission-time check).
  ChaosPlan plan;
  plan.scan_chunk_delay_seconds = 0.06;
  ArmChaos(plan);
  RequestOptions req;
  req.deadline = Deadline::After(0.1);
  auto rows = service.QueryBatch(batch, 3, /*pool=*/nullptr, req);
  DisarmChaos();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().size(), 4u);

  EXPECT_TRUE(rows.value()[0].ok());
  EXPECT_EQ(rows.value()[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(rows.value()[2].ok());
  EXPECT_EQ(rows.value()[3].status().code(), StatusCode::kDeadlineExceeded);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

// Saturation stress: many rows on a tiny pool with slow injected scans and
// a deadline shorter than one scan. Backlog shedding and deadline expiry
// must both fire, every row must reach exactly one terminal outcome, and
// nothing may run long past the deadline (cooperative chunk checks bound
// the overshoot to one chunk per running row).
TEST(ChaosServingTest, SaturatedPoolShedsAndExpiresUnderDeadline) {
  ChaosGuard guard;
  auto f = MakeFixture();
  ServiceOptions opts;
  // Two slots, three runners (two workers plus the helping waiter): the two
  // admitted rows pin their slots for the whole deadline window, so every
  // row processed in the meantime is shed at the occupancy cap.
  opts.admission.max_in_flight = 2;
  opts.scan_check_every = 16;  // ~10 chunks over the 150-item scan
  auto built = RetrievalService::Build(f.model, f.bench.database.features,
                                       opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& service = built.value();
  MetricsDumpOnFailure dump{&service};

  constexpr size_t kRows = 48;
  Matrix batch(kRows, 16);
  for (size_t r = 0; r < kRows; ++r) {
    const float* src = f.bench.query.features.row(r % f.bench.query.size());
    std::copy(src, src + 16, batch.data() + r * 16);
  }

  ChaosPlan plan;
  plan.scan_chunk_delay_seconds = 0.005;  // a full scan takes >= 50 ms
  ArmChaos(plan);
  ThreadPool pool(2);
  RequestOptions req;
  req.deadline = Deadline::After(0.03);  // shorter than any full scan
  const auto t0 = std::chrono::steady_clock::now();
  auto rows = service.QueryBatch(batch, 3, &pool, req);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  DisarmChaos();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().size(), kRows);

  // Every row ended in exactly one of the allowed terminal states.
  size_t ok_rows = 0;
  for (const auto& row : rows.value()) {
    if (row.ok()) {
      ++ok_rows;
    } else {
      const StatusCode code = row.status().code();
      EXPECT_TRUE(code == StatusCode::kUnavailable ||
                  code == StatusCode::kDeadlineExceeded)
          << row.status().ToString();
    }
  }

  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.shed, 0u);
  // The admitted rows cannot finish a >=50 ms scan inside a 30 ms deadline:
  // their chunk checks must expire them (and rows the batch cut never
  // started, which also counts as expired).
  EXPECT_GE(stats.expired, opts.admission.max_in_flight);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.served, ok_rows);
  // Conservation: 48 rows, one terminal outcome each.
  EXPECT_EQ(stats.served + stats.shed + stats.expired + stats.failed, kRows);

  // ServiceStats is an exact view over the metrics registry: after the
  // saturation storm the raw registry counters must agree with the stats
  // snapshot field for field (sharded counters lose no increments), and
  // every served row must have left exactly one latency observation.
  obs::MetricsRegistry& reg = service.Metrics();
  EXPECT_EQ(reg.GetCounter("serving_admitted_total")->Value(),
            stats.admitted);
  EXPECT_EQ(reg.GetCounter(obs::WithLabel("serving_requests_total",
                                          "outcome", "served"))
                ->Value(),
            stats.served);
  EXPECT_EQ(reg.GetCounter(obs::WithLabel("serving_requests_total",
                                          "outcome", "shed"))
                ->Value(),
            stats.shed);
  EXPECT_EQ(reg.GetCounter(obs::WithLabel("serving_requests_total",
                                          "outcome", "expired"))
                ->Value(),
            stats.expired);
  EXPECT_EQ(reg.GetCounter(obs::WithLabel("serving_requests_total",
                                          "outcome", "cancelled"))
                ->Value(),
            stats.cancelled);
  EXPECT_EQ(reg.GetCounter(obs::WithLabel("serving_requests_total",
                                          "outcome", "failed"))
                ->Value(),
            stats.failed);
  EXPECT_EQ(reg.GetHistogram(obs::WithLabel("serving_latency_seconds",
                                            "outcome", "served"))
                ->Snapshot()
                .count,
            stats.served);

  // Rows stop at the first chunk check past the deadline, so the whole
  // batch is bounded by deadline + one chunk + margin — nowhere near the
  // ~800 ms a full uncancelled run of the admitted scans would take.
  EXPECT_LT(elapsed, 0.4);
}

// Registry-vs-ServiceStats exactness on the degraded IVF→flat fallback
// path (the saturation test covers only shed/expired): injected IVF
// failures and a degraded admission must each land in exactly the right
// registry counter, field for field against the Stats() snapshot.
TEST(ChaosServingTest, DegradedFallbackCountersMatchRegistryExactly) {
  ChaosGuard guard;
  auto f = MakeFixture();
  ServiceOptions opts;
  opts.use_ivf = true;
  opts.ivf.num_cells = 10;
  opts.ivf.nprobe = 2;
  opts.exact_rerank = true;
  opts.rerank_pool = 20;
  opts.admission.degrade_in_flight = 1;
  opts.admission.on_overload = AdmissionOptions::OverloadPolicy::kDegrade;
  auto built = RetrievalService::Build(f.model, f.bench.database.features,
                                       opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& service = built.value();
  MetricsDumpOnFailure dump{&service};
  const Matrix query = f.bench.query.features.RowCopy(0);

  // Two IVF failures → two flat fallbacks.
  ChaosPlan plan;
  plan.ivf_fail_first_n = 2;
  ArmChaos(plan);
  ASSERT_TRUE(service.Query(query, 3).ok());
  ASSERT_TRUE(service.Query(query, 3).ok());
  DisarmChaos();

  // One degraded admission: request A pinned inside IVF, B admitted at the
  // degrade threshold takes the flat path without counting as a fallback.
  ArmChaos(ChaosPlan{});
  HoldIvf(true);
  std::thread held([&] { EXPECT_TRUE(service.Query(query, 3).ok()); });
  ASSERT_TRUE(SpinUntil([&] { return service.Stats().in_flight == 1; }, 30.0));
  ASSERT_TRUE(service.Query(query, 3).ok());
  HoldIvf(false);
  held.join();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.served, 4u);
  EXPECT_EQ(stats.flat_fallbacks, 2u);
  EXPECT_EQ(stats.degraded_admissions, 1u);

  obs::MetricsRegistry& reg = service.Metrics();
  EXPECT_EQ(reg.GetCounter("serving_admitted_total")->Value(), stats.admitted);
  EXPECT_EQ(reg.GetCounter("serving_flat_fallbacks_total")->Value(),
            stats.flat_fallbacks);
  EXPECT_EQ(reg.GetCounter("serving_degraded_admissions_total")->Value(),
            stats.degraded_admissions);
  EXPECT_EQ(reg.GetCounter(obs::WithLabel("serving_requests_total",
                                          "outcome", "served"))
                ->Value(),
            stats.served);
  EXPECT_EQ(reg.GetCounter(obs::WithLabel("serving_requests_total",
                                          "outcome", "failed"))
                ->Value(),
            stats.failed);
  // Every served query left exactly one latency observation, and the
  // Stats() snapshot carries that same histogram state.
  const auto latency = reg.GetHistogram(obs::WithLabel(
                                            "serving_latency_seconds",
                                            "outcome", "served"))
                           ->Snapshot();
  EXPECT_EQ(latency.count, stats.served);
  EXPECT_EQ(stats.served_latency.count, stats.served);
}

// The flat fallback of an IVF searcher scans every cell of the IVF
// index's own store: with the IVF path failed through ChaosOnIvfSearch it
// must return exactly what a flat-only searcher over the same codes does —
// ids and distances bit for bit, with and without the exact re-rank.
TEST(ChaosServingTest, IvfFallbackMatchesFlatSearcherBitForBit) {
  ChaosGuard guard;
  Rng rng(91);
  const size_t n = 300, m = 3, k = 16, d = 8;
  const Matrix embedded = Matrix::RandomGaussian(n, d, rng);
  std::vector<Matrix> codebooks;
  for (size_t cb = 0; cb < m; ++cb) {
    codebooks.push_back(Matrix::RandomGaussian(k, d, rng));
  }
  std::vector<std::vector<uint32_t>> codes(n, std::vector<uint32_t>(m));
  for (auto& item : codes) {
    for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(k));
  }
  for (size_t i = 0; i < n; i += 5) codes[i] = codes[i / 3];  // tied scores

  for (const bool rerank : {false, true}) {
    SearcherOptions flat_opts;
    flat_opts.exact_rerank = rerank;
    flat_opts.rerank_pool = 30;
    SearcherOptions ivf_opts = flat_opts;
    ivf_opts.use_ivf = true;
    ivf_opts.ivf.num_cells = 12;
    ivf_opts.ivf.nprobe = 2;
    auto flat = ReplicaSearcher::Build(embedded, codebooks, codes, flat_opts);
    auto ivf = ReplicaSearcher::Build(embedded, codebooks, codes, ivf_opts);
    ASSERT_TRUE(flat.ok() && ivf.ok());

    const size_t queries = 8;
    ChaosPlan plan;
    plan.ivf_fail_first_n = static_cast<int>(queries);
    ArmChaos(plan);
    for (size_t q = 0; q < queries; ++q) {
      const Matrix query = Matrix::RandomGaussian(1, d, rng);
      bool fallback = false;
      auto got = ivf.value().Search(query.data(), 10, ScanControl{},
                                    /*degraded=*/false, nullptr, nullptr,
                                    &fallback);
      auto want = flat.value().Search(query.data(), 10, ScanControl{},
                                      /*degraded=*/false, nullptr, nullptr,
                                      nullptr);
      ASSERT_TRUE(got.ok() && want.ok());
      EXPECT_TRUE(fallback);
      ASSERT_EQ(got.value().size(), want.value().size());
      for (size_t i = 0; i < want.value().size(); ++i) {
        EXPECT_EQ(got.value()[i].id, want.value()[i].id)
            << "rerank=" << rerank << " q=" << q << " i=" << i;
        EXPECT_EQ(got.value()[i].distance, want.value()[i].distance)
            << "rerank=" << rerank << " q=" << q << " i=" << i;
      }
    }
    EXPECT_EQ(ChaosCountersSnapshot().ivf_failures_injected, queries);
    DisarmChaos();
  }
}

// The PoolStarver chaos tool really occupies workers: queued work does not
// start until Release().
TEST(ChaosHarnessTest, PoolStarverOccupiesWorkersUntilReleased) {
  ThreadPool pool(2);
  PoolStarver starver(&pool, 2);
  // Both starver tickets have been taken once the gauge returns to zero.
  ASSERT_TRUE(SpinUntil([&] { return pool.ApproxQueueDepth() == 0; }, 30.0));

  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  group.Submit([&ran] { ran.fetch_add(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(pool.ApproxQueueDepth(), 1u);  // still queued: workers starved
  EXPECT_EQ(ran.load(), 0);

  starver.Release();
  group.Wait();
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace lightlt::serving
