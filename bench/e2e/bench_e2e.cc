// End-to-end benchmark (bench/e2e/README.md has the workloads, the metric
// definitions and how to run it).
//
//   bench_e2e --workload online_ivf --seed 7 --seconds 8 --trace 0
//             [--smoke] [--inject_spin_us=embed:9] [--trace_dir=DIR]
//
// One process runs one workload. It generates QBAish IF=100 inputs (a
// fixed corpus and a request stream drawn from --seed), trains the encoder
// and builds the serving stack through public constructors (three times:
// setup_s is the median), drives the workload's closed-loop load for
// --seconds, checks the outputs, and prints every metric as
// `name value unit n=<samples>`. The last line of stdout is one
// JSON object: the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a replay that splits each request into public layer calls and
// records a span around each call (written to trace_<workload>.jsonl).
//
// A failed output check prints its name on stderr, reports "correct":
// false and exits 1; a setup error exits 2 without a result line.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/lightlt.h"
#include "src/index/kernels/scan_kernels.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/profile.h"
#include "src/serving/health.h"
#include "src/serving/router.h"
#include "src/serving/shard.h"
#include "src/serving/transport.h"
#include "src/util/cli.h"
#include "src/util/threadpool.h"

namespace {

using namespace lightlt;  // NOLINT(build/namespaces)
using Clock = std::chrono::steady_clock;
using Hits = std::vector<index::SearchHit>;

constexpr size_t kTopK = 10;
constexpr size_t kQualityRequests = 2000;
// The serving pool (bulk rows, router scatter, shadow checks) and the
// fleet's shared handler pool have three threads each, beside at most three
// client threads on a four-core host.
constexpr size_t kPoolThreads = 3;
constexpr size_t kBatchRows = 16;
constexpr size_t kShards = 3;
constexpr size_t kCells = 32;
constexpr size_t kNprobe = 8;
constexpr size_t kRerankPool = 50;
constexpr uint64_t kCorpusSeed = 7;
constexpr int kEpochs = 12;
constexpr int kSetups = 3;
constexpr size_t kReplayRequests = 10000;
constexpr size_t kReplayBatches = 300;

enum class Load { kSingle, kBatch, kRemote };

struct Workload {
  const char* name;
  Load load;
  size_t clients;  // closed-loop clients, one request outstanding each
  size_t db_items;
  double shadow_rate;
  bool ivf;
  double deadline_s;  // 0 = no deadline
  /// Query rows one second of load uses, to size the generated pool; a run
  /// that outruns it wraps around.
  double rows_per_second;
};

// Why each workload exists is in README.md.
constexpr Workload kWorkloads[] = {
    {"online_ivf", Load::kSingle, 3, 20000, 0.0, true, 0.1, 48000.0},
    {"online_shadow", Load::kSingle, 3, 20000, 0.25, true, 0.1, 48000.0},
    {"bulk_flat", Load::kBatch, 1, 160000, 0.0, false, 0.0, 2200.0},
    {"fleet_remote", Load::kRemote, 1, 20000, 0.0, true, 0.1, 10000.0},
};

Clock::duration FromSeconds(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

double Us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

void Spin(double us) {
  if (us <= 0.0) return;
  const Clock::time_point until = Clock::now() + FromSeconds(us * 1e-6);
  while (Clock::now() < until) {
  }
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Nearest-rank quantile of raw samples; 0 when there are none.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  const size_t i = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(i), v.end());
  return v[i];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

Hits ToHits(const std::vector<serving::ServedHit>& served) {
  Hits hits(served.size());
  for (size_t i = 0; i < served.size(); ++i) {
    hits[i] = {served[i].id, served[i].distance};
  }
  return hits;
}

bool SameHits(const Hits& a, const Hits& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].distance, &b[i].distance, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameWeights(const core::LightLtModel& a, const core::LightLtModel& b) {
  const auto pa = a.Parameters();
  const auto pb = b.Parameters();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i]->value().storage() != pb[i]->value().storage()) return false;
  }
  return true;
}

/// Spans recorded around public calls in the traced replay. Kept in memory
/// and written as JSONL when the run ends.
class SpanLog {
 public:
  explicit SpanLog(size_t reserve) { spans_.reserve(reserve); }

  int Begin(const char* name, int parent, size_t request) {
    spans_.push_back({name, Clock::now(), {}, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id` and returns its duration in microseconds.
  double End(int id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end = Clock::now();
    return Us(span.start, span.end);
  }
  void Add(const char* name, Clock::time_point start, Clock::time_point end,
           int parent, size_t request) {
    spans_.push_back({name, start, end, parent, request});
  }
  size_t size() const { return spans_.size(); }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const Clock::time_point epoch =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"request\": %zu, \"span\": %zu, \"parent\": %d, "
                   "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                   s.request, i, s.parent, s.name, Us(epoch, s.start),
                   Us(epoch, s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    size_t request;
  };
  std::vector<Span> spans_;
};

/// SearchTransport decorator: optionally spins inside every replica attempt
/// (the sensitivity self-test) and keeps each shard's latest attempt
/// interval for the traced replay.
class TimedTransport final : public serving::SearchTransport {
 public:
  struct Interval {
    Clock::time_point start;
    Clock::time_point end;
  };

  TimedTransport(std::shared_ptr<const serving::SearchTransport> inner,
                 double spin_us)
      : inner_(std::move(inner)),
        spin_us_(spin_us),
        last_(inner_->num_shards()) {}

  size_t num_shards() const override { return inner_->num_shards(); }
  size_t num_replicas() const override { return inner_->num_replicas(); }
  size_t shard_items(size_t shard) const override {
    return inner_->shard_items(shard);
  }
  size_t total_items() const override { return inner_->total_items(); }

  serving::ReplicaAttempt SearchReplica(size_t shard, size_t replica,
                                        const float* query, size_t top_k,
                                        const ScanControl& control,
                                        obs::Trace* trace,
                                        const obs::Span* parent)
      const override {
    const Clock::time_point start = Clock::now();
    Spin(spin_us_);
    serving::ReplicaAttempt attempt = inner_->SearchReplica(
        shard, replica, query, top_k, control, trace, parent);
    last_[shard] = {start, Clock::now()};
    return attempt;
  }

  /// Valid after Router::Search returns: each shard's scatter task writes
  /// only its own slot, and the router joins them before returning.
  const std::vector<Interval>& last_attempts() const { return last_; }

 private:
  std::shared_ptr<const serving::SearchTransport> inner_;
  double spin_us_;
  mutable std::vector<Interval> last_;
};

/// Three loopback shard servers and the router the load talks to. Members
/// are destroyed bottom-up: router, client connections, servers, then the
/// handler pool the servers run on.
struct Fleet {
  std::unique_ptr<ThreadPool> handler_pool;
  std::shared_ptr<serving::ShardSet> shards;
  std::vector<std::unique_ptr<net::ShardServer>> servers;
  std::shared_ptr<net::RemoteTransport> remote;
  std::unique_ptr<serving::Router> router;
};

/// The database artifacts a service build computes internally, recomputed
/// here with the same public calls so checks and the replay search the very
/// codes the service serves.
struct Artifacts {
  Matrix embedded;
  std::vector<std::vector<uint32_t>> codes;
  std::vector<Matrix> codebooks;
  double embed_s = 0.0;
  double encode_s = 0.0;
};

Artifacts MakeArtifacts(const core::LightLtModel& model, const Matrix& db) {
  Artifacts a;
  const Clock::time_point t0 = Clock::now();
  a.embedded = core::EmbedInChunks(model, db);
  const Clock::time_point t1 = Clock::now();
  model.dsq().Encode(a.embedded, &a.codes);
  a.embed_s = Us(t0, t1) * 1e-6;
  a.encode_s = Us(t1, Clock::now()) * 1e-6;
  a.codebooks = model.Codebooks();
  return a;
}

struct LoadResult {
  std::vector<double> latency_ms;  // served requests (batches on bulk_flat)
  std::vector<double> lag_us;      // previous reply -> next request sent
  size_t attempted = 0;            // requests (rows on bulk_flat)
  size_t failed = 0;
  size_t rows_used = 0;
  double seconds = 0.0;
  double cpu_s = 0.0;  // process CPU time
  /// Served hits per row ordinal, for rows below the `keep` given to
  /// Drive; served[j] says whether hits[j] holds an answer.
  std::vector<Hits> hits;
  std::vector<char> served;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 7;
  double seconds = 8.0;
  bool trace = false;
  bool smoke = false;
  std::string spin_layer;  // embed | searcher | shard_attempt
  double spin_us = 0.0;
  std::string trace_dir = ".";
};

class Bench {
 public:
  explicit Bench(const Options& options)
      : opt_(options),
        w_(*options.workload),
        pool_(std::make_unique<ThreadPool>(kPoolThreads)) {}

  int Run();

 private:
  size_t DbItems() const { return opt_.smoke ? 2000 : w_.db_items; }
  double WarmupSeconds() const { return opt_.smoke ? 0.05 : 0.5; }
  size_t QueryRows() const { return queries().rows(); }
  const Matrix& queries() const { return bench_.query.features; }
  /// Query row of request ordinal `ordinal` in a stream starting at
  /// `first_row`: the seeded request order over the query split.
  size_t Row(size_t first_row, size_t ordinal) const {
    return order_[(first_row + ordinal) % order_.size()];
  }
  /// The kBatchRows query rows starting at ordinal `first`.
  Matrix Batch(size_t first_row, size_t first) const {
    std::vector<size_t> rows(kBatchRows);
    for (size_t k = 0; k < kBatchRows; ++k) rows[k] = Row(first_row, first + k);
    return queries().GatherRows(rows);
  }
  ScanControl Control() const {
    ScanControl control;
    if (w_.deadline_s > 0.0) control.deadline = Deadline::After(w_.deadline_s);
    return control;
  }
  serving::SearcherOptions SearcherOpts() const;
  /// Top-k the searcher asks its index for (the re-rank pool).
  size_t IndexK() const { return w_.ivf ? kRerankPool : kTopK; }

  void Generate();
  Status Setup();
  Status BuildStack(const std::shared_ptr<core::LightLtModel>& model);
  Status PrepareChecks();
  LoadResult Drive(double seconds, size_t first_row, size_t keep);
  /// Sends request `ordinal` (rows first_row + ordinal*rows_per_request...)
  /// and returns how many of its rows failed; `sent` receives the send
  /// time and rows below `keep` keep their hits in `out`.
  size_t Send(size_t first_row, size_t ordinal, size_t keep, LoadResult* out,
              Clock::time_point* sent);
  void Quality(const LoadResult& load, size_t first_row);
  void ReportLoad(const LoadResult& load);
  Status Replay(size_t first_row);
  void Kernels(double items_per_query, double search_p50_us);

  void Check(bool ok, const char* name) {
    if (!ok) failed_checks_.push_back(name);
  }
  void E2e(const char* name, double value, const char* unit, size_t n) {
    e2e_.push_back({name, value, unit, n});
  }
  void Layer(const char* name, double value, const char* unit, size_t n) {
    layer_.push_back({name, value, unit, n});
  }
  void Print(const LoadResult& load) const;

  Options opt_;
  const Workload& w_;
  data::RetrievalBenchmark bench_;
  std::vector<int> class_bucket_;  // head/mid/tail per class
  std::vector<size_t> order_;      // request order over the query split

  // System under test. Declared first so it outlives everything below.
  std::unique_ptr<ThreadPool> pool_;
  std::shared_ptr<core::LightLtModel> model_;
  std::optional<serving::RetrievalService> service_;
  std::unique_ptr<Fleet> fleet_;
  std::vector<uint64_t> frames_before_;

  // Copies built here from the same artifacts.
  Artifacts art_;
  std::optional<index::AdcIndex> oracle_;        // exhaustive exact ADC
  std::optional<serving::ReplicaSearcher> searcher_;
  std::optional<index::IvfAdcIndex> ivf_;
  std::vector<index::IvfAdcIndex> shard_ivf_;
  double train_s_ = 0.0;
  double index_build_s_ = 0.0;

  // Injected spin: on the request path (before the facade on single-node
  // workloads, around Embed on fleet_remote) and inside the named split
  // call of the replay.
  double request_spin_us_ = 0.0;

  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<Metric> diag_;
  std::vector<std::string> failed_checks_;
};

serving::SearcherOptions Bench::SearcherOpts() const {
  serving::SearcherOptions so;
  if (w_.ivf) {
    so.use_ivf = true;
    so.ivf.num_cells = kCells;
    so.ivf.nprobe = kNprobe;
    so.exact_rerank = true;
    so.rerank_pool = kRerankPool;
  }
  return so;
}

void Bench::Generate() {
  // The corpus (class model, long-tail training split, database) and so the
  // trained model are fixed; --seed draws the request stream, a seeded
  // order over a query split sampled from the same class model. The query
  // split comes from a second draw with no database, so the corpus does not
  // depend on how many query rows a run needs.
  auto cfg = data::MakePresetConfig(data::PresetId::kQbaish, 100.0,
                                    /*full_scale=*/false, kCorpusSeed);
  cfg.database_per_class = (DbItems() + cfg.num_classes - 1) / cfg.num_classes;
  bench_ = data::GenerateSynthetic(cfg);
  const double seconds = opt_.seconds + WarmupSeconds();
  const size_t rows =
      static_cast<size_t>(w_.rows_per_second * seconds * 1.1) + 200;
  cfg.database_per_class = 0;
  cfg.queries_per_class = (rows + cfg.num_classes - 1) / cfg.num_classes;
  bench_.query = data::GenerateSynthetic(cfg).query;
  class_bucket_ = eval::HeadMidTailBuckets(bench_.train.ClassCounts());
  order_.resize(bench_.query.size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  Rng rng(opt_.seed);
  rng.Shuffle(order_);
}

Status Bench::BuildStack(const std::shared_ptr<core::LightLtModel>& model) {
  if (w_.load != Load::kRemote) {
    serving::ServiceOptions so;
    const serving::SearcherOptions searcher = SearcherOpts();
    so.use_ivf = searcher.use_ivf;
    so.ivf = searcher.ivf;
    so.exact_rerank = searcher.exact_rerank;
    so.rerank_pool = searcher.rerank_pool;
    if (w_.shadow_rate > 0.0) {
      so.shadow.sample_rate = w_.shadow_rate;
      so.shadow.seed = opt_.seed;
      so.shadow.recall_k = kTopK;
      // One check at a time: the checks then run beside the three clients
      // on the fourth vCPU instead of time-slicing with them.
      so.shadow.max_in_flight = 1;
      so.shadow.pool = pool_.get();
    }
    auto built =
        serving::RetrievalService::Build(model, bench_.database.features, so);
    if (!built.ok()) return built.status();
    service_.emplace(std::move(built).value());
    return Status::Ok();
  }

  art_ = MakeArtifacts(*model, bench_.database.features);
  auto fleet = std::make_unique<Fleet>();
  fleet->handler_pool = std::make_unique<ThreadPool>(kPoolThreads);
  serving::ShardSetOptions sso;
  sso.num_shards = kShards;
  sso.num_replicas = 1;
  sso.searcher = SearcherOpts();
  auto shards = serving::ShardSet::Build(art_.embedded, art_.codebooks,
                                         art_.codes, sso);
  if (!shards.ok()) return shards.status();
  fleet->shards =
      std::make_shared<serving::ShardSet>(std::move(shards).value());
  std::vector<std::vector<net::Endpoint>> endpoints(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    net::ShardServerOptions so;
    so.hosted_shards = {s};
    so.pool = fleet->handler_pool.get();
    auto server = std::make_unique<net::ShardServer>(fleet->shards, so);
    LIGHTLT_RETURN_IF_ERROR(server->Start());
    endpoints[s] = {{"127.0.0.1", server->port()}};
    fleet->servers.push_back(std::move(server));
  }
  net::RemoteClientOptions co;
  co.max_pooled_connections = 1;  // one connection per shard
  auto remote = net::RemoteTransport::Connect(endpoints, co,
                                              Deadline::After(5.0));
  if (!remote.ok()) return remote.status();
  fleet->remote = remote.value();
  std::shared_ptr<const serving::SearchTransport> path = fleet->remote;
  if (opt_.spin_layer == "shard_attempt") {
    path = std::make_shared<TimedTransport>(fleet->remote, opt_.spin_us);
  }
  serving::RouterOptions ro;
  ro.pool = pool_.get();
  fleet->router = std::make_unique<serving::Router>(
      path,
      std::make_shared<serving::ReplicaHealthMonitor>(
          kShards, 1, serving::HealthOptions{}),
      ro);
  fleet_ = std::move(fleet);
  return Status::Ok();
}

Status Bench::Setup() {
  std::vector<double> setup_s;
  std::vector<double> train_s;
  std::shared_ptr<core::LightLtModel> first;
  const int setups = opt_.smoke ? 1 : kSetups;
  for (int s = 0; s < setups; ++s) {
    // Tear the previous stack down before timing the next one.
    service_.reset();
    fleet_.reset();
    const Clock::time_point t0 = Clock::now();
    auto model = std::make_shared<core::LightLtModel>(
        core::DefaultModelConfig(bench_), kCorpusSeed);
    if (!opt_.smoke) {
      core::TrainOptions to =
          core::DefaultTrainOptions(data::PresetId::kQbaish);
      to.epochs = kEpochs;
      to.shuffle_seed = kCorpusSeed;
      auto trained = core::TrainLightLt(model.get(), bench_.train, to);
      if (!trained.ok()) return trained.status();
    }
    const Clock::time_point t1 = Clock::now();
    LIGHTLT_RETURN_IF_ERROR(BuildStack(model));
    const Clock::time_point t2 = Clock::now();
    train_s.push_back(Us(t0, t1) * 1e-6);
    setup_s.push_back(Us(t0, t2) * 1e-6);
    if (first == nullptr) {
      first = model;
    } else {
      Check(SameWeights(*first, *model), "setup_deterministic");
    }
    model_ = model;
  }
  train_s_ = Median(train_s);
  E2e("setup_s", Median(setup_s), "s", setup_s.size());
  return Status::Ok();
}

Status Bench::PrepareChecks() {
  if (w_.load != Load::kRemote) {
    art_ = MakeArtifacts(*model_, bench_.database.features);
  }
  // On bulk_flat the oracle is also the flat index the replay searches.
  Clock::time_point t0 = Clock::now();
  auto oracle = index::AdcIndex::Build(art_.codebooks, art_.codes);
  if (!oracle.ok()) return oracle.status();
  oracle_.emplace(std::move(oracle).value());
  index_build_s_ = Us(t0, Clock::now()) * 1e-6;
  if (!opt_.trace) return Status::Ok();

  // Split-replay copies of the searcher and index the facade hides.
  t0 = Clock::now();
  if (w_.load == Load::kRemote) {
    const size_t n = art_.embedded.rows();
    const size_t d = art_.embedded.cols();
    for (size_t s = 0; s < kShards; ++s) {
      const size_t begin = n * s / kShards;
      const size_t rows = n * (s + 1) / kShards - begin;
      Matrix part(rows, d);
      std::copy(art_.embedded.row(begin), art_.embedded.row(begin) + rows * d,
                part.data());
      const std::vector<std::vector<uint32_t>> codes(
          art_.codes.begin() + static_cast<ptrdiff_t>(begin),
          art_.codes.begin() + static_cast<ptrdiff_t>(begin + rows));
      auto ivf = index::IvfAdcIndex::Build(part, art_.codebooks, codes,
                                           SearcherOpts().ivf);
      if (!ivf.ok()) return ivf.status();
      shard_ivf_.push_back(std::move(ivf).value());
    }
  } else if (w_.ivf) {
    auto ivf = index::IvfAdcIndex::Build(art_.embedded, art_.codebooks,
                                         art_.codes, SearcherOpts().ivf);
    if (!ivf.ok()) return ivf.status();
    ivf_.emplace(std::move(ivf).value());
  }
  if (w_.ivf) index_build_s_ = Us(t0, Clock::now()) * 1e-6;
  if (w_.load != Load::kRemote) {
    auto searcher = serving::ReplicaSearcher::Build(
        art_.embedded, art_.codebooks, art_.codes, SearcherOpts());
    if (!searcher.ok()) return searcher.status();
    searcher_.emplace(std::move(searcher).value());
  }
  return Status::Ok();
}

size_t Bench::Send(size_t first_row, size_t ordinal, size_t keep,
                   LoadResult* out, Clock::time_point* sent) {
  const auto keep_hits = [&](size_t row, Hits hits) {
    if (row < keep) {
      out->hits[row] = std::move(hits);
      out->served[row] = 1;
    }
  };
  switch (w_.load) {
    case Load::kSingle: {
      const Matrix x = queries().RowCopy(Row(first_row, ordinal));
      *sent = Clock::now();
      Spin(request_spin_us_);
      serving::RequestOptions request;
      request.deadline = Deadline::After(w_.deadline_s);
      auto result = service_->Query(x, kTopK, request);
      if (!result.ok()) return 1;
      keep_hits(ordinal, ToHits(result.value()));
      return 0;
    }
    case Load::kBatch: {
      const size_t first = ordinal * kBatchRows;
      const Matrix batch = Batch(first_row, first);
      *sent = Clock::now();
      Spin(request_spin_us_);
      auto result = service_->QueryBatch(batch, kTopK, pool_.get());
      if (!result.ok()) return kBatchRows;
      size_t failed = 0;
      for (size_t k = 0; k < kBatchRows; ++k) {
        const auto& row = result.value()[k];
        if (!row.ok()) {
          ++failed;
        } else {
          keep_hits(first + k, ToHits(row.value()));
        }
      }
      return failed;
    }
    case Load::kRemote:
      break;
  }
  const Matrix x = queries().RowCopy(Row(first_row, ordinal));
  *sent = Clock::now();
  Spin(request_spin_us_);
  const Matrix q = model_->Embed(x);
  serving::RoutedResult routed = fleet_->router->Search(
      q.row(0), kTopK, Deadline::After(w_.deadline_s), {}, nullptr, nullptr);
  // Partial coverage is a degraded answer, not a served one.
  if (!routed.status.ok() || routed.shards_answered != kShards) return 1;
  keep_hits(ordinal, std::move(routed.hits));
  return 0;
}

LoadResult Bench::Drive(double seconds, size_t first_row, size_t keep) {
  const size_t rows_per_request = w_.load == Load::kBatch ? kBatchRows : 1;
  struct Client {
    std::vector<double> latency_ms, lag_us;
    size_t attempted = 0, failed = 0, next_ordinal = 0;
    Clock::time_point last;
  };
  std::vector<Client> clients(w_.clients);
  LoadResult out;
  out.hits.resize(keep);
  out.served.assign(keep, 0);
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop = t0 + FromSeconds(seconds);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Client& client = clients[c];
      Clock::time_point prev = t0;
      // Interleaved ordinals spread the first requests (the quality
      // subset) over every client.
      size_t ordinal = c;
      for (; Clock::now() < stop; ordinal += clients.size()) {
        Clock::time_point sent;
        const size_t failed = Send(first_row, ordinal, keep, &out, &sent);
        const Clock::time_point end = Clock::now();
        client.lag_us.push_back(Us(prev, sent));
        if (failed == 0) client.latency_ms.push_back(Us(sent, end) * 1e-3);
        client.attempted += rows_per_request;
        client.failed += failed;
        prev = end;
      }
      client.next_ordinal = ordinal;
      client.last = prev;
    });
  }
  for (std::thread& t : threads) t.join();
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  Clock::time_point last = t0;
  size_t ordinals = 0;
  for (const Client& c : clients) {
    out.latency_ms.insert(out.latency_ms.end(), c.latency_ms.begin(),
                          c.latency_ms.end());
    out.lag_us.insert(out.lag_us.end(), c.lag_us.begin(), c.lag_us.end());
    out.attempted += c.attempted;
    out.failed += c.failed;
    ordinals = std::max(ordinals, c.next_ordinal);
    last = std::max(last, c.last);
  }
  out.rows_used = ordinals * rows_per_request;
  out.seconds = Us(t0, last) * 1e-6;
  return out;
}

void Bench::Quality(const LoadResult& load, size_t first_row) {
  // Label precision over every served row; fidelity and the fleet check
  // over the first kQualityRequests of them.
  std::vector<size_t> ordinals;
  std::vector<size_t> rows;
  for (size_t j = 0; j < load.served.size(); ++j) {
    if (!load.served[j]) continue;
    ordinals.push_back(j);
    rows.push_back(Row(first_row, j));
  }
  const size_t m = std::min(rows.size(), kQualityRequests);
  const Matrix embedded = core::EmbedInChunks(
      *model_,
      queries().GatherRows(std::vector<size_t>(rows.begin(), rows.begin() + m)),
      4096, pool_.get());

  // Tie-aware truth: every item whose exact ADC score is at or below the
  // k-th best, so any k-subset of a tie group counts as correct.
  const eval::RankingFn exact = [&](size_t q) {
    std::vector<float> scores;
    oracle_->ComputeScores(embedded.row(q), &scores);
    std::vector<float> sorted(scores);
    const size_t k = std::min(kTopK, sorted.size()) - 1;
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(k),
                     sorted.end());
    std::vector<uint32_t> truth;
    for (size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] <= sorted[k]) truth.push_back(static_cast<uint32_t>(i));
    }
    return truth;
  };
  const eval::RankingFn served_ids = [&](size_t q) {
    std::vector<uint32_t> ids;
    for (const auto& hit : load.hits[ordinals[q]]) ids.push_back(hit.id);
    return ids;
  };
  const double fidelity =
      eval::RecallAgainstExact(served_ids, exact, m, kTopK, pool_.get());

  double p_all = 0.0, p_tail = 0.0;
  size_t n_tail = 0;
  for (size_t q = 0; q < rows.size(); ++q) {
    const size_t label = bench_.query.labels[rows[q]];
    const double p = eval::PrecisionAtK(served_ids(q), bench_.database.labels,
                                        label, kTopK);
    p_all += p;
    if (class_bucket_[label] == 2) {
      p_tail += p;
      ++n_tail;
    }
  }
  E2e("fidelity_at10", fidelity, "fraction", m);
  E2e("p_at10", rows.empty() ? 0.0 : p_all / rows.size(), "fraction",
      rows.size());
  E2e("p_at10_tail", n_tail ? p_tail / n_tail : 0.0, "fraction", n_tail);

  if (w_.load == Load::kBatch) {
    Check(fidelity == 1.0, "bulk_flat_fidelity_exact");
  }
  if (w_.load == Load::kRemote) {
    // The remote fleet must merge exactly what an in-process router over
    // the same shards merges.
    serving::Router local(
        std::shared_ptr<const serving::ShardSet>(fleet_->shards),
        std::make_shared<serving::ReplicaHealthMonitor>(
            kShards, 1, serving::HealthOptions{}),
        serving::RouterOptions{});
    bool same = true;
    for (size_t q = 0; q < m && same; ++q) {
      const serving::RoutedResult routed = local.Search(
          embedded.row(q), kTopK, Deadline::After(1.0), {}, nullptr, nullptr);
      same = routed.status.ok() &&
             SameHits(routed.hits, load.hits[ordinals[q]]);
    }
    Check(same, "fleet_remote_matches_local");
  }
}

void Bench::ReportLoad(const LoadResult& load) {
  const size_t served_rows = load.attempted - load.failed;
  const size_t n = load.latency_ms.size();
  E2e("qps", load.seconds > 0.0 ? served_rows / load.seconds : 0.0, "1/s",
      served_rows);
  E2e("p50_ms", Quantile(load.latency_ms, 0.50), "ms", n);
  E2e("p99_ms", Quantile(load.latency_ms, 0.99), "ms", n);

  const size_t bytes = fleet_ ? fleet_->shards->MemoryBytes()
                              : service_->IndexMemoryBytes();
  E2e("index_bytes_per_item", static_cast<double>(bytes) / DbItems(), "B",
      DbItems());

  Layer("serving.cpu_us_per_query",
        served_rows ? 1e6 * load.cpu_s / served_rows : 0.0, "us", served_rows);
  Layer("loadgen.lag_us.p99", Quantile(load.lag_us, 0.99), "us",
        load.lag_us.size());
  Layer("loadgen.samples", static_cast<double>(n), "count", n);
  uint64_t frames = 0;
  if (fleet_) {
    for (size_t s = 0; s < kShards; ++s) {
      frames += fleet_->servers[s]->stats().frames_received - frames_before_[s];
    }
  }
  Layer("net.frames_per_query",
        load.attempted ? static_cast<double>(frames) / load.attempted : 0.0,
        "count", load.attempted);
}

Status Bench::Replay(size_t first_row) {
  const bool batch = w_.load == Load::kBatch;
  const bool remote = w_.load == Load::kRemote;
  const size_t max_requests = batch ? kReplayBatches : kReplayRequests;
  SpanLog log(200000);
  // Layer samples per query row (a request is one row except on bulk_flat).
  std::vector<double> request, facade, embed, searcher, index_us, rerank_self,
      facade_self, router, router_self, attempt, remote_attempt, wire_self;
  ScanStats scan;
  size_t index_calls = 0;
  size_t mismatches = 0;
  const double embed_spin = opt_.spin_layer == "embed" ? opt_.spin_us : 0.0;
  const double searcher_spin =
      opt_.spin_layer == "searcher" ? opt_.spin_us : 0.0;

  std::unique_ptr<serving::Router> timed_router;
  std::shared_ptr<TimedTransport> timed;
  if (remote) {
    timed = std::make_shared<TimedTransport>(
        fleet_->remote,
        opt_.spin_layer == "shard_attempt" ? opt_.spin_us : 0.0);
    serving::RouterOptions ro;
    ro.pool = pool_.get();
    timed_router = std::make_unique<serving::Router>(
        timed,
        std::make_shared<serving::ReplicaHealthMonitor>(
            kShards, 1, serving::HealthOptions{}),
        ro);
  }
  // One index call with per-request scan accounting.
  const auto search_index = [&](const index::IvfAdcIndex* ivf,
                                const float* q, int parent, size_t r) {
    ScanControl control = Control();
    control.stats = &scan;
    const int span = log.Begin("index.search", parent, r);
    if (ivf != nullptr) {
      (void)ivf->Search(q, IndexK(), control, 0);
    } else {
      (void)oracle_->Search(q, IndexK(), control);
    }
    ++index_calls;
    return log.End(span);
  };

  const Clock::time_point stop = Clock::now() + FromSeconds(opt_.seconds);
  size_t r = 0;
  size_t next_row = 0;
  for (; r < max_requests && Clock::now() < stop; ++r) {
    const int root = log.Begin("request", -1, r);
    if (batch) {
      const Matrix x = Batch(first_row, next_row);
      next_row += kBatchRows;
      // Without a pool the facade runs its rows inline, so its time adds
      // up with the per-row layer calls below.
      int span = log.Begin("serving.facade", root, r);
      Spin(request_spin_us_);
      auto served = service_->QueryBatch(x, kTopK, nullptr);
      const double f = log.End(span);
      span = log.Begin("core.embed", root, r);
      Spin(embed_spin);
      const Matrix q = model_->Embed(x);
      const double e = log.End(span);
      double searcher_sum = 0.0;
      for (size_t k = 0; k < kBatchRows; ++k) {
        span = log.Begin("serving.searcher", root, r);
        Spin(searcher_spin);
        auto split = searcher_->Search(q.row(k), kTopK, Control(), false,
                                       nullptr, nullptr, nullptr);
        const double s = log.End(span);
        const double ix = search_index(nullptr, q.row(k), root, r);
        searcher.push_back(s);
        index_us.push_back(ix);
        rerank_self.push_back(s - ix);
        searcher_sum += s;
        if (!served.ok() || !served.value()[k].ok() || !split.ok() ||
            !SameHits(ToHits(served.value()[k].value()), split.value())) {
          ++mismatches;
        }
      }
      facade.push_back(f / kBatchRows);
      embed.push_back(e / kBatchRows);
      facade_self.push_back((f - e - searcher_sum) / kBatchRows);
    } else if (remote) {
      const Matrix x = queries().RowCopy(Row(first_row, next_row++));
      int span = log.Begin("serving.facade", root, r);
      Spin(request_spin_us_);
      const Matrix q0 = model_->Embed(x);
      const serving::RoutedResult served = fleet_->router->Search(
          q0.row(0), kTopK, Deadline::After(w_.deadline_s), {}, nullptr,
          nullptr);
      const double f = log.End(span);
      span = log.Begin("core.embed", root, r);
      Spin(embed_spin);
      const Matrix q = model_->Embed(x);
      const double e = log.End(span);
      const int router_span = log.Begin("serving.router", root, r);
      const serving::RoutedResult split = timed_router->Search(
          q.row(0), kTopK, Deadline::After(w_.deadline_s), {}, nullptr,
          nullptr);
      const double rt = log.End(router_span);
      double slowest = 0.0;
      for (const auto& a : timed->last_attempts()) {
        log.Add("serving.shard_attempt", a.start, a.end, router_span, r);
        attempt.push_back(Us(a.start, a.end));
        slowest = std::max(slowest, Us(a.start, a.end));
      }
      double searcher_sum = 0.0, index_sum = 0.0, wire_sum = 0.0;
      for (size_t s = 0; s < kShards; ++s) {
        span = log.Begin("net.remote_attempt", root, r);
        const serving::ReplicaAttempt ra = fleet_->remote->SearchReplica(
            s, 0, q.row(0), kTopK, Control(), nullptr, nullptr);
        const double remote_us = log.End(span);
        span = log.Begin("serving.local_attempt", root, r);
        const serving::ReplicaAttempt la = fleet_->shards->SearchReplica(
            s, 0, q.row(0), kTopK, Control(), nullptr, nullptr);
        const double local_us = log.End(span);
        span = log.Begin("serving.searcher", root, r);
        (void)fleet_->shards->searcher(s, 0).Search(
            q.row(0), kTopK, Control(), false, nullptr, nullptr, nullptr);
        searcher_sum += log.End(span);
        index_sum += search_index(&shard_ivf_[s], q.row(0), root, r);
        remote_attempt.push_back(remote_us);
        wire_sum += remote_us - local_us;
        if (!ra.status.ok() || !la.status.ok() || !SameHits(ra.hits, la.hits)) {
          ++mismatches;
        }
      }
      if (!served.status.ok() || !split.status.ok() ||
          !SameHits(served.hits, split.hits)) {
        ++mismatches;
      }
      facade.push_back(f);
      embed.push_back(e);
      router.push_back(rt);
      router_self.push_back(rt - slowest);
      searcher.push_back(searcher_sum);
      index_us.push_back(index_sum);
      rerank_self.push_back(searcher_sum - index_sum);
      wire_self.push_back(wire_sum / kShards);
      facade_self.push_back(f - e - rt);
    } else {
      const Matrix x = queries().RowCopy(Row(first_row, next_row++));
      serving::RequestOptions options;
      options.deadline = Deadline::After(w_.deadline_s);
      int span = log.Begin("serving.facade", root, r);
      Spin(request_spin_us_);
      auto served = service_->Query(x, kTopK, options);
      const double f = log.End(span);
      span = log.Begin("core.embed", root, r);
      Spin(embed_spin);
      const Matrix q = model_->Embed(x);
      const double e = log.End(span);
      span = log.Begin("serving.searcher", root, r);
      Spin(searcher_spin);
      auto split = searcher_->Search(q.row(0), kTopK, Control(), false,
                                     nullptr, nullptr, nullptr);
      const double s = log.End(span);
      const double ix = search_index(&*ivf_, q.row(0), root, r);
      if (!served.ok() || !split.ok() ||
          !SameHits(ToHits(served.value()), split.value())) {
        ++mismatches;
      }
      facade.push_back(f);
      embed.push_back(e);
      searcher.push_back(s);
      index_us.push_back(ix);
      rerank_self.push_back(s - ix);
      facade_self.push_back(f - e - s);
    }
    request.push_back(log.End(root));
  }
  Check(r > 0 && mismatches == 0, "trace_split_matches_facade");

  const std::string path =
      opt_.trace_dir + "/trace_" + std::string(w_.name) + ".jsonl";
  if (!log.Write(path)) {
    return Status::IoError("cannot write " + path);
  }
  std::printf("trace: %zu requests, %zu spans -> %s\n", r, log.size(),
              path.c_str());

  // Cost of one span record, as a share of a replayed request.
  SpanLog probe(20000);
  const Clock::time_point c0 = Clock::now();
  for (int i = 0; i < 20000; ++i) probe.End(probe.Begin("x", -1, 0));
  const double span_us = Us(c0, Clock::now()) / 20000;
  const double spans_per_request = r ? static_cast<double>(log.size()) / r : 0;

  const size_t n = embed.size();
  // Index counts per query row; next_row counts the rows replayed.
  const double rows = static_cast<double>(std::max<size_t>(next_row, 1));
  const double items = scan.items / rows;
  const double rescored =
      scan.codes_decoded / static_cast<double>(art_.codebooks.size()) / rows;
  Layer("core.embed_us.p50", Median(embed), "us", n);
  Layer("core.embed_us.p99", Quantile(embed, 0.99), "us", n);
  Layer("core.train_s", train_s_, "s", opt_.smoke ? 1 : kSetups);
  Layer("core.embed_db_s", art_.embed_s, "s", 1);
  Layer("core.encode_db_s", art_.encode_s, "s", 1);
  Layer("index.build_s", index_build_s_, "s", 1);
  Layer("index.search_us.p50", Median(index_us), "us", index_us.size());
  Layer("index.search_us.p99", Quantile(index_us, 0.99), "us", index_us.size());
  Layer("index.items_per_query", items, "count", index_calls);
  Layer("index.rescored_per_query", rescored, "count", index_calls);
  Layer("index.rescored_useful_frac",
        rescored > 0 ? index_calls * IndexK() / rows / rescored : 0.0,
        "fraction", index_calls);
  Layer("index.lut_builds_per_query", scan.lut_builds / rows, "count",
        index_calls);
  Kernels(items, Median(index_us));
  Layer("serving.searcher_us.p50", Median(searcher), "us", searcher.size());
  Layer("serving.searcher_us.p99", Quantile(searcher, 0.99), "us",
        searcher.size());
  Layer("serving.rerank_self_us", Median(rerank_self), "us",
        rerank_self.size());
  Layer("serving.facade_self_us", Median(facade_self), "us",
        facade_self.size());
  const double facade_p50 = Median(facade);
  const auto share = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  Layer("serving.router_self_frac", share(Median(router_self), facade_p50),
        "fraction", router_self.size());
  Layer("net.wire_self_frac", share(Median(wire_self), facade_p50),
        "fraction", wire_self.size());
  Layer("obs.trace_overhead_pct",
        100.0 * share(spans_per_request * span_us, Median(request)), "%", r);

  diag_.push_back({"serving.facade_us.p50", facade_p50, "us", facade.size()});
  if (remote) {
    diag_.push_back({"serving.router_us.p50", Median(router), "us", n});
    diag_.push_back({"serving.router_us.p99", Quantile(router, 0.99), "us", n});
    diag_.push_back({"serving.router_self_us", Median(router_self), "us", n});
    diag_.push_back({"serving.shard_attempt_us.p50", Median(attempt), "us",
                     attempt.size()});
    diag_.push_back({"serving.shard_attempt_us.p99", Quantile(attempt, 0.99),
                     "us", attempt.size()});
    diag_.push_back({"net.remote_attempt_us.p50", Median(remote_attempt), "us",
                     remote_attempt.size()});
    diag_.push_back({"net.remote_attempt_us.p99",
                     Quantile(remote_attempt, 0.99), "us",
                     remote_attempt.size()});
    diag_.push_back({"net.wire_self_us", Median(wire_self), "us", n});
    uint64_t wire_errors = 0, reconnects = 0;
    for (size_t s = 0; s < kShards; ++s) {
      wire_errors += fleet_->servers[s]->stats().wire_errors;
      reconnects += fleet_->remote->client(s, 0).stats().reconnects;
    }
    diag_.push_back({"net.wire_errors", static_cast<double>(wire_errors),
                     "count", 1});
    diag_.push_back({"net.reconnects", static_cast<double>(reconnects),
                     "count", 1});
  } else {
    const serving::ServiceStats stats = service_->Stats();
    diag_.push_back({"serving.flat_fallbacks",
                     static_cast<double>(stats.flat_fallbacks), "count", 1});
    diag_.push_back({"serving.shed", static_cast<double>(stats.shed), "count",
                     1});
  }
  return Status::Ok();
}

void Bench::Kernels(double items_per_query, double search_p50_us) {
  const size_t n = art_.codes.size();
  const size_t m = art_.codebooks.size();
  const size_t k = art_.codebooks[0].rows();
  const size_t d = art_.codebooks[0].cols();
  const size_t k_padded = index::kernels::PadCodewords(k);
  std::vector<uint8_t> item_major(n * m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t cb = 0; cb < m; ++cb) {
      item_major[i * m + cb] = static_cast<uint8_t>(art_.codes[i][cb]);
    }
  }
  std::vector<uint8_t> blocked;
  index::kernels::BuildBlockedCodes(item_major.data(), n, m, &blocked);
  index::kernels::ScanKernel kernel =
      index::kernels::SelectScanKernel(k_padded);
  if (kernel.fn == nullptr) {
    kernel = index::kernels::ScanKernelByName("scalar", k_padded);
  }

  // Float LUT of one embedded query: lut[cb*k + j] = <q, C_cb[j]>.
  const Matrix q = model_->Embed(queries().RowCopy(0));
  std::vector<float> lut(m * k);
  for (size_t cb = 0; cb < m; ++cb) {
    for (size_t j = 0; j < k; ++j) {
      const float* word = art_.codebooks[cb].row(j);
      float acc = 0.0f;
      for (size_t t = 0; t < d; ++t) acc += q.row(0)[t] * word[t];
      lut[cb * k + j] = acc;
    }
  }
  const auto median_call_us = [](size_t calls, const auto& fn) {
    std::vector<double> per_call;
    for (int rep = 0; rep < 15; ++rep) {
      const Clock::time_point t0 = Clock::now();
      for (size_t c = 0; c < calls; ++c) fn();
      per_call.push_back(Us(t0, Clock::now()) / calls);
    }
    return Median(per_call);
  };
  volatile float sink = 0.0f;
  index::kernels::QuantizedLut qlut;
  const double quantize_us = median_call_us(200, [&] {
    qlut = index::kernels::QuantizeLut(lut.data(), m, k);
    sink = sink + qlut.scale;
  });
  // The kernel over as many blocks as one query scans.
  const size_t blocks = std::clamp<size_t>(
      index::kernels::NumBlocks(static_cast<size_t>(items_per_query)), 1,
      index::kernels::NumBlocks(n));
  std::vector<uint16_t> sums(blocks * index::kernels::kBlockItems);
  const double accumulate_us = median_call_us(50, [&] {
    kernel.fn(blocked.data(), blocks, m, qlut.k_padded, qlut.table.data(),
              sums.data());
    sink = sink + sums[0];
  });
  const double bytes =
      static_cast<double>(blocks * m * index::kernels::kBlockItems);
  const double scan_gbps = bytes / (accumulate_us * 1e3);

  // Streaming-read rate of a buffer larger than L2, the kernel's roofline.
  std::vector<uint64_t> buffer((16u << 20) / sizeof(uint64_t), 1);
  const double read_us = median_call_us(1, [&] {
    uint64_t a = 0, b = 0, c = 0, e = 0;
    for (size_t i = 0; i + 3 < buffer.size(); i += 4) {
      a += buffer[i];
      b += buffer[i + 1];
      c += buffer[i + 2];
      e += buffer[i + 3];
    }
    sink = sink + static_cast<float>(a + b + c + e);
  });
  const double stream_gbps =
      static_cast<double>(buffer.size() * sizeof(uint64_t)) / (read_us * 1e3);

  Layer("kernels.accumulate_us", accumulate_us, "us", 15);
  Layer("kernels.quantize_lut_us", quantize_us, "us", 15);
  Layer("kernels.scan_gbps", scan_gbps, "GB/s", 15);
  Layer("kernels.roofline_frac", scan_gbps / stream_gbps, "fraction", 15);
  Layer("kernels.share_of_search",
        search_p50_us > 0 ? (accumulate_us + quantize_us) / search_p50_us : 0.0,
        "fraction", 15);
  diag_.push_back({"kernels.stream_gbps", stream_gbps, "GB/s", 15});
}

void Bench::Print(const LoadResult& load) const {
  const auto line = [](const Metric& m) {
    std::printf("%-30s %.6g %s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  };
  for (const Metric& m : e2e_) line(m);
  for (const Metric& m : layer_) line(m);
  for (const Metric& m : diag_) line(m);
  for (const std::string& name : failed_checks_) {
    std::fprintf(stderr, "check failed: %s\n", name.c_str());
  }
  // The JSON summary names only the declared set of its mode.
  const std::vector<Metric>& reported = opt_.trace ? layer_ : e2e_;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed_checks_.empty() ? "true" : "false", load.attempted,
              load.failed);
  for (size_t i = 0; i < reported.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", reported[i].name.c_str(), reported[i].value,
                reported[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Bench::Run() {
  if (!opt_.spin_layer.empty()) {
    const bool fleet = w_.load == Load::kRemote;
    if (opt_.spin_layer == "embed" ||
        (opt_.spin_layer == "searcher" && !fleet)) {
      // A bulk_flat request embeds once but searches once per row.
      const bool per_row =
          opt_.spin_layer == "searcher" && w_.load == Load::kBatch;
      request_spin_us_ = opt_.spin_us * (per_row ? kBatchRows : 1);
    } else if (opt_.spin_layer != "shard_attempt" || !fleet) {
      std::fprintf(stderr, "--inject_spin_us: layer %s does not apply to %s\n",
                   opt_.spin_layer.c_str(), w_.name);
      return 2;
    }
  }
  std::printf("workload %s seed %llu seconds %g trace %d%s\n", w_.name,
              static_cast<unsigned long long>(opt_.seed), opt_.seconds,
              opt_.trace ? 1 : 0, opt_.smoke ? " (smoke)" : "");
  std::fflush(stdout);
  const Clock::time_point generate_start = Clock::now();
  Generate();
  std::printf("inputs: %zu train, %zu database, %zu query rows (%.2f s)\n",
              bench_.train.size(), bench_.database.size(), QueryRows(),
              Us(generate_start, Clock::now()) * 1e-6);
  Status status = Setup();
  if (status.ok()) status = PrepareChecks();
  if (!status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
    return 2;
  }

  const LoadResult warmup = Drive(WarmupSeconds(), 0, 0);
  const size_t first_row = warmup.rows_used;
  uint64_t sampled = 0, skipped = 0;
  serving::ShadowVerifier* shadow =
      service_ ? service_->Shadow() : nullptr;
  if (shadow != nullptr) {
    shadow->Flush();
    sampled = shadow->sampled_count();
    skipped = shadow->skipped_budget_count();
  }
  if (fleet_) {
    for (const auto& server : fleet_->servers) {
      frames_before_.push_back(server->stats().frames_received);
    }
  }
  const LoadResult load = Drive(opt_.seconds, first_row, QueryRows());
  if (shadow != nullptr) {
    shadow->Flush();
    sampled = shadow->sampled_count() - sampled;
    skipped = shadow->skipped_budget_count() - skipped;
  }
  Quality(load, first_row);
  ReportLoad(load);
  // Selected queries either ran a shadow check or were skipped at the
  // in-flight cap.
  const uint64_t selected = sampled + skipped;
  Layer("serving.shadow_samples", static_cast<double>(sampled), "count", 1);
  Layer("serving.shadow_skipped_frac",
        selected ? static_cast<double>(skipped) / selected : 0.0, "fraction",
        selected);
  if (opt_.trace) {
    status = Replay(first_row);
    if (!status.ok()) {
      std::fprintf(stderr, "replay failed: %s\n", status.ToString().c_str());
      return 2;
    }
  }
  Print(load);
  return failed_checks_.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  Options options;
  const std::string name = cli.GetString("workload", "");
  for (const Workload& w : kWorkloads) {
    if (name == w.name) options.workload = &w;
  }
  if (options.workload == nullptr) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <online_ivf|online_shadow|"
                 "bulk_flat|fleet_remote> --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--inject_spin_us=<embed|searcher|shard_attempt>:"
                 "<us>] [--trace_dir=DIR]\n");
    return 2;
  }
  options.seed = static_cast<uint64_t>(cli.GetInt("seed", 7));
  options.seconds = cli.GetDouble("seconds", options.seconds);
  options.trace = cli.GetBool("trace", false);
  options.smoke = cli.GetBool("smoke", false);
  options.trace_dir = cli.GetString("trace_dir", ".");
  if (options.smoke) options.seconds = 0.3;
  const std::string spin = cli.GetString("inject_spin_us", "");
  if (!spin.empty()) {
    const size_t colon = spin.find(':');
    options.spin_layer = spin.substr(0, colon);
    options.spin_us = colon == std::string::npos
                          ? 0.0
                          : std::strtod(spin.c_str() + colon + 1, nullptr);
  }
  if (!(options.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  Bench bench(options);
  return bench.Run();
}
