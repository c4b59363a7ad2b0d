#include "src/serving/service.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <tuple>
#include <utility>

#include "src/core/pipeline.h"
#include "src/obs/profile.h"
#include "src/util/check.h"
#include "src/util/timer.h"

namespace lightlt::serving {
namespace {

bool AllFinite(const Matrix& m) {
  const float* data = m.data();
  for (size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

bool RowFinite(const Matrix& m, size_t row) {
  const float* data = m.row(row);
  for (size_t j = 0; j < m.cols(); ++j) {
    if (!std::isfinite(data[j])) return false;
  }
  return true;
}

/// The grid's breakers as one: the most open state (open, then half-open,
/// then closed), and open transitions summed over replicas. Closed with
/// zero transitions without IVF.
std::pair<BreakerState, uint64_t> GridBreaker(const ShardSet& shards) {
  BreakerState state = BreakerState::kClosed;
  uint64_t open_transitions = 0;
  for (size_t s = 0; s < shards.num_shards(); ++s) {
    for (size_t r = 0; r < shards.num_replicas(); ++r) {
      const auto& breaker = shards.searcher(s, r).breaker();
      if (breaker == nullptr) continue;
      const BreakerState replica = breaker->state();
      if (replica == BreakerState::kOpen ||
          (replica == BreakerState::kHalfOpen &&
           state == BreakerState::kClosed)) {
        state = replica;
      }
      open_transitions += breaker->open_transitions();
    }
  }
  return {state, open_transitions};
}

}  // namespace

void RetrievalService::Instruments::Register(obs::MetricsRegistry* registry) {
  admitted = registry->GetCounter("serving_admitted_total");
  degraded_admissions =
      registry->GetCounter("serving_degraded_admissions_total");
  flat_fallbacks = registry->GetCounter("serving_flat_fallbacks_total");
  failovers = registry->GetCounter("serving_failovers_total");
  timeouts = registry->GetCounter("serving_timeouts_total");
  coverage = registry->GetHistogram("serving_coverage");
  const std::string requests = "serving_requests_total";
  served = registry->GetCounter(obs::WithLabel(requests, "outcome", "served"));
  partial =
      registry->GetCounter(obs::WithLabel(requests, "outcome", "partial"));
  shed = registry->GetCounter(obs::WithLabel(requests, "outcome", "shed"));
  expired =
      registry->GetCounter(obs::WithLabel(requests, "outcome", "expired"));
  cancelled =
      registry->GetCounter(obs::WithLabel(requests, "outcome", "cancelled"));
  failed = registry->GetCounter(obs::WithLabel(requests, "outcome", "failed"));
  const std::string latency = "serving_latency_seconds";
  latency_served =
      registry->GetHistogram(obs::WithLabel(latency, "outcome", "served"));
  latency_partial =
      registry->GetHistogram(obs::WithLabel(latency, "outcome", "partial"));
  latency_shed =
      registry->GetHistogram(obs::WithLabel(latency, "outcome", "shed"));
  latency_expired =
      registry->GetHistogram(obs::WithLabel(latency, "outcome", "expired"));
  latency_cancelled =
      registry->GetHistogram(obs::WithLabel(latency, "outcome", "cancelled"));
  latency_failed =
      registry->GetHistogram(obs::WithLabel(latency, "outcome", "failed"));
  queue_depth = registry->GetGauge("serving_queue_depth");
  for (size_t s = 0; s < obs::kNumRecallSegments; ++s) {
    const char* segment = obs::RecallSegmentName(s);
    cost_cpu_ns[s] = registry->GetCounter(
        obs::WithLabel("serving_cost_cpu_ns_total", "segment", segment));
    cost_items[s] = registry->GetCounter(
        obs::WithLabel("serving_cost_items_total", "segment", segment));
    cost_codes_decoded[s] = registry->GetCounter(obs::WithLabel(
        "serving_cost_codes_decoded_total", "segment", segment));
    cost_lut_builds[s] = registry->GetCounter(
        obs::WithLabel("serving_cost_lut_builds_total", "segment", segment));
    cost_shortlist[s] = registry->GetCounter(
        obs::WithLabel("serving_cost_shortlist_total", "segment", segment));
  }
}

Result<RetrievalService> RetrievalService::Build(
    std::shared_ptr<const core::LightLtModel> model,
    const Matrix& db_features, const ServiceOptions& options) {
  if (model == nullptr) {
    return Status::InvalidArgument("RetrievalService: null model");
  }
  if (db_features.rows() == 0) {
    return Status::InvalidArgument("RetrievalService: empty database");
  }
  if (db_features.cols() != model->config().input_dim) {
    return Status::InvalidArgument(
        "RetrievalService: database feature dim mismatch");
  }
  // Artifact validation: a model deserialized from a damaged or stale file
  // (or a database with NaN features) must be rejected here, not discovered
  // as garbage neighbours in production queries.
  for (const auto& p : model->Parameters()) {
    if (!AllFinite(p->value())) {
      return Status::FailedPrecondition(
          "RetrievalService: model has non-finite weights");
    }
  }
  const size_t embed_dim = model->config().embed_dim;
  for (const Matrix& cb : model->Codebooks()) {
    if (cb.cols() != embed_dim) {
      return Status::FailedPrecondition(
          "RetrievalService: codebook/embedding dim mismatch");
    }
  }
  if (!AllFinite(db_features)) {
    return Status::InvalidArgument(
        "RetrievalService: database features contain NaN/Inf");
  }
  if (!(options.router.quorum_coverage >= 0.0 &&
        options.router.quorum_coverage <= 1.0)) {
    return Status::InvalidArgument(
        "RetrievalService: quorum_coverage must be in [0, 1]");
  }

  RetrievalService service;
  service.options_ = options;
  service.model_ = model;
  service.metrics_ = options.metrics ? options.metrics
                                     : std::make_shared<obs::MetricsRegistry>();
  service.inst_.Register(service.metrics_.get());
  service.admission_ = std::make_shared<AdmissionController>(options.admission);

  // Callback gauges capture shared_ptr copies, never `this`: they stay
  // valid after the service moves, and a shared external registry cannot
  // dangle as long as it holds the closures (it co-owns the components).
  {
    std::shared_ptr<AdmissionController> admission = service.admission_;
    service.metrics_->RegisterCallbackGauge(
        "serving_in_flight", [admission]() {
          return static_cast<double>(admission->InFlight());
        });
  }

  const Matrix embedded = core::EmbedInChunks(*model, db_features);
  std::vector<std::vector<uint32_t>> codes;
  model->dsq().Encode(embedded, &codes);

  // The index is a grid of breaker-gated flat-ADC + optional-IVF + rerank
  // replicas behind health-driven failover; single-node is the 1 x 1 grid.
  // Every replica records into the same "adc_*"/"ivf_*" instruments and
  // serving_flat_fallbacks_total, so names do not depend on the topology.
  ShardSetOptions shard_options;
  shard_options.num_shards = options.num_shards;
  shard_options.num_replicas = options.num_replicas;
  shard_options.searcher.rerank_pool = options.rerank_pool;
  shard_options.searcher.exact_rerank = options.exact_rerank;
  shard_options.searcher.use_ivf = options.use_ivf;
  shard_options.searcher.ivf = options.ivf;
  shard_options.searcher.breaker = options.breaker;
  shard_options.replica_admission = options.replica_admission;
  auto shards =
      ShardSet::Build(embedded, model->Codebooks(), codes, shard_options);
  if (!shards.ok()) return shards.status();
  auto shard_set = std::make_shared<ShardSet>(std::move(shards).value());
  shard_set->Instrument(service.metrics_.get(), service.inst_.flat_fallbacks);
  service.shards_ = shard_set;
  if (options.use_ivf) {
    std::shared_ptr<const ShardSet> grid = service.shards_;
    service.metrics_->RegisterCallbackGauge(
        "serving_breaker_state", [grid]() {
          // 0 closed, 1 open, 2 half-open.
          return static_cast<double>(
              static_cast<int>(GridBreaker(*grid).first));
        });
    service.metrics_->RegisterCallbackGauge(
        "serving_breaker_open_transitions", [grid]() {
          return static_cast<double>(GridBreaker(*grid).second);
        });
  }
  service.health_ = std::make_shared<ReplicaHealthMonitor>(
      options.num_shards, options.num_replicas, options.health);
  service.health_->InstrumentGauges(service.metrics_.get(), "serving_",
                                    service.health_);
  service.router_ = std::make_unique<Router>(service.shards_, service.health_,
                                             options.router);

  if (options.drift.enabled) {
    obs::DriftDetector::Options drift_options;
    drift_options.logger = options.drift.logger;
    drift_options.registry = service.metrics_.get();
    drift_options.metric_prefix = options.drift.metric_prefix;
    service.drift_ = std::make_shared<DriftMonitor>(std::move(drift_options));
    service.drift_->warmup = std::max<uint64_t>(1, options.drift.warmup_queries);
    service.drift_->check_every =
        std::max<uint64_t>(1, options.drift.check_every);
    // Watch the service's own scan telemetry: per-chunk scan cost always,
    // the IVF routing distributions when that path exists, and the served
    // latency distribution. All registered above, so GetHistogram returns
    // the very instruments the scans record into.
    std::vector<std::string> names = {"adc_scan_chunk_seconds"};
    if (options.use_ivf) {
      names.push_back("ivf_probed_cells");
      names.push_back("ivf_scanned_fraction");
    }
    names.push_back(
        obs::WithLabel("serving_latency_seconds", "outcome", "served"));
    for (const std::string& name : names) {
      service.drift_->detector.AddWatch(
          name, service.metrics_->GetHistogram(name), options.drift.watch);
    }
    service.drift_->watches = std::move(names);
  }

  if (options.slow_query.latency_threshold_seconds > 0.0 ||
      (options.shadow.sample_rate > 0.0 &&
       options.shadow.recall_miss_threshold > 0.0)) {
    service.slow_log_ =
        std::make_shared<obs::SlowQueryLog>(options.slow_query);
  }
  if (options.shadow.sample_rate > 0.0) {
    ShadowOptions shadow_options = options.shadow;
    if (service.slow_log_ != nullptr && !shadow_options.on_recall_miss) {
      // Recall misses land in the slow-query ring next to latency outliers;
      // the shadow task is asynchronous, so there is no span tree or scan
      // accounting to attach.
      std::shared_ptr<obs::SlowQueryLog> slow_log = service.slow_log_;
      shadow_options.on_recall_miss = [slow_log](double recall,
                                                 uint64_t /*successes*/,
                                                 uint64_t /*trials*/) {
        obs::SlowQueryRecord record;
        record.kind = "recall_miss";
        record.outcome = "ok";
        record.recall = recall;
        slow_log->Add(std::move(record));
      };
    }
    // The verifier needs the exact embedded database as its oracle; this is
    // the one place that copy is justified — it is what "shadow
    // verification against the exact index" means.
    service.shadow_ = std::make_shared<ShadowVerifier>(
        embedded, std::move(shadow_options), service.metrics_);
  }
  return service;
}

ServiceStats StatsSince(const ServiceStats& later,
                        const ServiceStats& earlier) {
  ServiceStats window = later;
  window.admitted -= earlier.admitted;
  window.degraded_admissions -= earlier.degraded_admissions;
  window.served -= earlier.served;
  window.partial -= earlier.partial;
  window.shed -= earlier.shed;
  window.expired -= earlier.expired;
  window.cancelled -= earlier.cancelled;
  window.failed -= earlier.failed;
  window.flat_fallbacks -= earlier.flat_fallbacks;
  window.failovers -= earlier.failovers;
  window.timeouts -= earlier.timeouts;
  window.health_transitions -= earlier.health_transitions;
  window.breaker_open_transitions -= earlier.breaker_open_transitions;
  // in_flight and breaker_state are instantaneous, not cumulative: keep
  // the later reading.
  window.served_latency = later.served_latency.Delta(earlier.served_latency);
  window.coverage = later.coverage.Delta(earlier.coverage);
  return window;
}

void RetrievalService::CountOutcome(const Status& status,
                                    double elapsed_seconds) const {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      inst_.expired->Increment();
      inst_.latency_expired->Record(elapsed_seconds);
      break;
    case StatusCode::kCancelled:
      inst_.cancelled->Increment();
      inst_.latency_cancelled->Record(elapsed_seconds);
      break;
    default:
      inst_.failed->Increment();
      inst_.latency_failed->Record(elapsed_seconds);
      break;
  }
}

void RetrievalService::TickDrift() const {
  const uint64_t n =
      drift_->served.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (n >= drift_->warmup &&
      !drift_->frozen.exchange(true, std::memory_order_acq_rel)) {
    // Exactly one thread freezes: everything served during warmup becomes
    // the baseline distribution for every watch.
    for (const std::string& name : drift_->watches) {
      drift_->detector.FreezeBaseline(name);
    }
    return;
  }
  if (n > drift_->warmup && (n - drift_->warmup) % drift_->check_every == 0) {
    drift_->detector.CheckAll();
  }
}

Result<std::vector<ServedHit>> RetrievalService::ServeEmbedded(
    const float* query, size_t top_k, const ScanControl& control,
    size_t observed_depth, obs::Trace* trace, const obs::Span* parent,
    int class_bucket, RequestCost* cost) const {
  WallTimer timer;
  obs::ProfilePhase request_phase("request");
  // The whole post-embedding lifecycle runs on this thread (per-query scan
  // work is single-threaded; parallelism is across queries), so the
  // thread-CPU delta is exactly the request's compute. With a router pool
  // and several shards, scans on other workers are not in it.
  const uint64_t cpu_start = obs::ThreadCpuNowNanos();
  RoutedResult routed;
  // Rolls the request's resource vector into the segmented cost counters
  // (overall always; head/mid/tail when the caller told us the bucket) and
  // hands it to the caller's RequestCost. Runs on every terminal path so
  // conservation holds: the sum of per-request vectors equals the counter
  // deltas exactly.
  const auto account_cost = [&]() {
    const uint64_t cpu_end = obs::ThreadCpuNowNanos();
    const uint64_t cpu_ns = cpu_end > cpu_start ? cpu_end - cpu_start : 0;
    const ScanStats scan =
        control.stats != nullptr ? *control.stats : ScanStats{};
    for (size_t s = 0; s < obs::kNumRecallSegments; ++s) {
      if (s != 0 && static_cast<int>(s) != class_bucket + 1) continue;
      inst_.cost_cpu_ns[s]->Increment(cpu_ns);
      inst_.cost_items[s]->Increment(scan.items);
      inst_.cost_codes_decoded[s]->Increment(scan.codes_decoded);
      inst_.cost_lut_builds[s]->Increment(scan.lut_builds);
      inst_.cost_shortlist[s]->Increment(scan.shortlist);
    }
    if (cost != nullptr) {
      cost->cpu_ns = cpu_ns;
      cost->scan = scan;
      cost->coverage = routed.coverage;
      cost->shards_answered = routed.shards_answered;
      cost->failovers = routed.failovers;
    }
    return cpu_ns;
  };

  // A request that arrives already expired or cancelled consumes no
  // admission slot and no rate-limiter token.
  Status pre = control.Check();
  if (!pre.ok()) {
    CountOutcome(pre, timer.ElapsedSeconds());
    account_cost();
    return pre;
  }

  AdmissionOutcome outcome;
  {
    obs::Span admission_span = obs::MaybeSpan(trace, "admission", parent);
    outcome = admission_->TryAdmit(observed_depth);
  }
  if (outcome == AdmissionOutcome::kShed) {
    inst_.shed->Increment();
    inst_.latency_shed->Record(timer.ElapsedSeconds());
    account_cost();
    return Status::Unavailable("RetrievalService: overloaded, request shed");
  }
  AdmissionTicket ticket(admission_.get());
  const bool degraded = outcome == AdmissionOutcome::kDegrade;
  inst_.admitted->Increment();
  if (degraded) {
    inst_.degraded_admissions->Increment();
  }

  {
    obs::Span search_span = obs::MaybeSpan(trace, "search", parent);
    ScanControl routed_control = control;
    routed_control.degraded = degraded;
    routed = router_->Search(query, top_k, routed_control, trace,
                             trace ? &search_span : nullptr);
  }
  const double elapsed = timer.ElapsedSeconds();
  inst_.failovers->Increment(routed.failovers);
  inst_.timeouts->Increment(routed.timeouts);
  // One outcome rule (DESIGN.md §9): an admitted request that comes back
  // with hits is served, or partial when shards covering part of the
  // database were missing; an admitted request without hits is expired,
  // cancelled or failed — never shed, which is admission's verdict alone.
  if (routed.status.ok()) {
    inst_.coverage->Record(routed.coverage);
    if (routed.coverage < 1.0) {
      inst_.partial->Increment();
      inst_.latency_partial->Record(elapsed);
    } else {
      inst_.served->Increment();
      inst_.latency_served->Record(elapsed);
      if (drift_ != nullptr) TickDrift();
    }
  } else {
    CountOutcome(routed.status, elapsed);
  }
  const uint64_t cpu_ns = account_cost();
  MaybeCaptureSlowQuery(slow_log_.get(), routed, elapsed, trace, control.stats,
                        cpu_ns, degraded);
  if (!routed.status.ok()) return routed.status;

  std::vector<ServedHit> hits(routed.hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    hits[i] = {routed.hits[i].id, routed.hits[i].distance};
  }
  // Shadow verification rides after the response is accounted: selection
  // and budget are decided in Acquire(), the exact re-run happens on the
  // pool (or inline when no pool is configured), never on the caller's
  // latency path beyond one query copy. Partial answers are not verified
  // against the whole database.
  if (shadow_ != nullptr && routed.coverage >= 1.0 && shadow_->Acquire()) {
    std::vector<uint32_t> ids;
    ids.reserve(hits.size());
    for (const ServedHit& hit : hits) ids.push_back(hit.id);
    shadow_->Submit(query, std::move(ids));
  }
  return hits;
}

Result<std::vector<ServedHit>> RetrievalService::Query(const Matrix& features,
                                                       size_t top_k) const {
  return Query(features, top_k, RequestOptions{});
}

Result<std::vector<ServedHit>> RetrievalService::Query(
    const Matrix& features, size_t top_k,
    const RequestOptions& request) const {
  if (features.rows() != 1 ||
      features.cols() != model_->config().input_dim) {
    return Status::InvalidArgument("Query: expected a 1 x input_dim vector");
  }
  if (!AllFinite(features)) {
    return Status::InvalidArgument("Query: features contain NaN/Inf");
  }
  obs::ProfilePhase serve_phase("serve");
  ScanStats scan_stats;
  ScanControl control{request.deadline, request.cancel,
                      options_.scan_check_every};
  // Slow-query capture and the caller's resource vector both need scan
  // accounting even when the caller did not opt into tracing, so an
  // internal per-call trace / stats block stands in; QueryBatch rows keep
  // both off (shared ScanControl).
  obs::Trace internal_trace;
  obs::Trace* trace = request.trace;
  if (slow_log_ != nullptr || request.cost != nullptr) {
    control.stats = &scan_stats;
  }
  if (slow_log_ != nullptr && trace == nullptr) {
    trace = &internal_trace;
  }
  obs::Span query_span = obs::MaybeSpan(trace, "query", nullptr);
  Matrix embedded;
  {
    obs::Span embed_span =
        obs::MaybeSpan(trace, "embed", trace ? &query_span : nullptr);
    embedded = model_->Embed(features);
  }
  return ServeEmbedded(embedded.row(0), top_k, control,
                       /*observed_depth=*/0, trace,
                       trace ? &query_span : nullptr, request.class_bucket,
                       request.cost);
}

Result<std::vector<Result<std::vector<ServedHit>>>>
RetrievalService::QueryBatch(const Matrix& features, size_t top_k,
                             ThreadPool* pool,
                             const RequestOptions& request) const {
  using RowResult = Result<std::vector<ServedHit>>;
  if (features.cols() != model_->config().input_dim) {
    return Status::InvalidArgument("QueryBatch: feature dim mismatch");
  }
  const size_t n = features.rows();
  // Rows start out expired: any row the batch deadline prevents from
  // running keeps this status, so callers always get one Result per row.
  std::vector<RowResult> rows;
  rows.reserve(n);
  for (size_t q = 0; q < n; ++q) {
    rows.emplace_back(Status::DeadlineExceeded(
        "QueryBatch: deadline expired before this row started"));
  }
  if (n == 0) return rows;

  const ScanControl control{request.deadline, request.cancel,
                            options_.scan_check_every};
  try {
    // Embedding is a dense matrix product; non-finite rows embed to
    // non-finite garbage but are rejected per-row below, before any scan.
    const Matrix embedded =
        core::EmbedInChunks(*model_, features, /*chunk=*/4096, pool);

    // One task per row so a deadline can cut the batch between rows:
    // CancelPending() drops rows that never started, and running rows stop
    // at their next chunk check. Each call runs under its own TaskGroup, so
    // concurrent QueryBatch calls sharing one pool wait only on their own
    // queries. No exceptions cross the serving API: each row converts its
    // own failure to a per-row Status.
    TaskGroup group(pool);
    for (size_t q = 0; q < n; ++q) {
      group.Submit([&, q]() {
        try {
          if (!RowFinite(features, q)) {
            rows[q] = Status::InvalidArgument(
                "QueryBatch: row features contain NaN/Inf");
            return;
          }
          const size_t depth = pool ? pool->ApproxQueueDepth() : 0;
          inst_.queue_depth->Set(static_cast<double>(depth));
          rows[q] = ServeEmbedded(embedded.row(q), top_k, control, depth,
                                  /*trace=*/nullptr, /*parent=*/nullptr,
                                  request.class_bucket, /*cost=*/nullptr);
        } catch (const std::exception& e) {
          rows[q] = Status::Internal(
              std::string("QueryBatch: worker failed: ") + e.what());
        } catch (...) {
          rows[q] = Status::Internal("QueryBatch: worker failed");
        }
      });
    }
    if (request.deadline.IsInfinite()) {
      group.Wait();
    } else if (!group.WaitUntil(request.deadline.time_point())) {
      const size_t dropped = group.CancelPending();
      inst_.expired->Increment(dropped);
      // Rows already running observe the deadline at their next chunk
      // check, so this second wait is bounded by one chunk of work.
      group.Wait();
    }
    return rows;
  } catch (const std::exception& e) {
    return Status::Internal(std::string("QueryBatch: batch failed: ") +
                            e.what());
  } catch (...) {
    return Status::Internal("QueryBatch: batch failed");
  }
}

ServiceStats RetrievalService::Stats() const {
  // A view over the registry: Counter::Value() sums shards exactly, so
  // this snapshot satisfies the same conservation laws the old private
  // atomics did (asserted by the chaos tests).
  ServiceStats s;
  s.admitted = inst_.admitted->Value();
  s.degraded_admissions = inst_.degraded_admissions->Value();
  s.served = inst_.served->Value();
  s.partial = inst_.partial->Value();
  s.shed = inst_.shed->Value();
  s.expired = inst_.expired->Value();
  s.cancelled = inst_.cancelled->Value();
  s.failed = inst_.failed->Value();
  s.flat_fallbacks = inst_.flat_fallbacks->Value();
  s.failovers = inst_.failovers->Value();
  s.timeouts = inst_.timeouts->Value();
  s.health_transitions = health_->transition_count();
  s.in_flight = admission_->InFlight();
  s.served_latency = inst_.latency_served->Snapshot();
  s.coverage = inst_.coverage->Snapshot();
  std::tie(s.breaker_state, s.breaker_open_transitions) =
      GridBreaker(*shards_);
  return s;
}

}  // namespace lightlt::serving
