// RetrievalService: the deployment-facing facade. Owns a trained LightLT
// model plus a compressed index and serves labelled top-k queries, with
// optional exact re-ranking of the candidate pool and optional IVF
// acceleration for large databases.
//
// Topology (DESIGN.md §13): the index is always a ShardSet of num_shards x
// num_replicas ReplicaSearchers behind a ReplicaHealthMonitor and a Router
// over a LocalShardTransport. Single-node serving is the 1 x 1 grid; every
// feature below (batching, shadow, drift, cost vectors, coverage, failover)
// works at any shard and replica count.
//
// Robustness contract: artifacts are validated at Build (finite weights and
// database features, consistent dimensions), non-finite query features are
// rejected as InvalidArgument, and an IVF search that fails or comes up
// short degrades to the always-present flat ADC scan instead of failing the
// query (observable via Stats().flat_fallbacks / degraded_query_count()).
//
// Request lifecycle (DESIGN.md §9): every query passes through
//   deadline/cancel check → admission → router → per shard:
//   (breaker-gated IVF | flat scan) → rerank → merge → served
// and ends in exactly one outcome — served, partial (coverage < 1), shed
// (refused by admission), expired (kDeadlineExceeded), cancelled
// (kCancelled) or failed — all visible in the ServiceStats snapshot.

#ifndef LIGHTLT_SERVING_SERVICE_H_
#define LIGHTLT_SERVING_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/lightlt_model.h"
#include "src/index/adc_index.h"
#include "src/index/ivf_index.h"
#include "src/obs/metrics.h"
#include "src/obs/quality.h"
#include "src/obs/trace.h"
#include "src/serving/admission.h"
#include "src/serving/circuit_breaker.h"
#include "src/serving/health.h"
#include "src/serving/router.h"
#include "src/serving/shadow.h"
#include "src/serving/shard.h"
#include "src/util/deadline.h"
#include "src/util/status.h"
#include "src/util/threadpool.h"

namespace lightlt::serving {

/// Self-monitoring for scan-distribution drift (DESIGN.md §11): the service
/// watches its own scan histograms (adc_scan_chunk_seconds, and with IVF
/// ivf_probed_cells / ivf_scanned_fraction, plus the served-latency
/// histogram), freezes the traffic of the first `warmup_queries` served
/// queries as the baseline, then sweeps CheckAll() every `check_every`
/// served queries.
struct ServiceDriftOptions {
  bool enabled = false;
  /// Served queries accumulated before the baseline freezes.
  uint64_t warmup_queries = 1000;
  /// Served queries between CheckAll() sweeps once frozen.
  uint64_t check_every = 500;
  /// Thresholds/hysteresis applied to every watch.
  obs::DriftWatchOptions watch;
  std::string metric_prefix = "serving_drift_";
  /// Structured-log sink for fire/clear events (null = silent).
  obs::Logger* logger = nullptr;
};

struct ServiceOptions {
  /// Candidate pool size fetched from the compressed index before
  /// re-ranking; 0 = exactly top_k (no over-fetch).
  size_t rerank_pool = 0;
  /// Re-rank the candidate pool by exact distance to the stored
  /// reconstructions (cheap) — mitigates quantization error in the head of
  /// the ranking.
  bool exact_rerank = false;
  /// Use the IVF-accelerated index (requires ivf options at Build time).
  bool use_ivf = false;
  index::IvfOptions ivf;
  /// Overload policy: in-flight caps, backlog shedding, token bucket.
  /// Defaults leave every limit off (always admit).
  AdmissionOptions admission;
  /// Circuit breaker around the IVF path; irrelevant without use_ivf.
  CircuitBreakerOptions breaker;
  /// Items scanned between deadline/cancellation checks inside index scan
  /// loops; bounds deadline overshoot to roughly one chunk of work.
  size_t scan_check_every = 1024;
  /// Metrics registry the service records into (serving counters, latency
  /// histograms, index scan telemetry). Null: the service creates its own,
  /// reachable via Metrics(). Shared so external registries (one per
  /// process, many services) outlive in-flight callback gauges.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Online quality monitoring (DESIGN.md §11): shadow-verify a seeded
  /// fraction of served queries against the exact flat index. sample_rate 0
  /// keeps the verifier (and its flat copy of the database) out entirely.
  ShadowOptions shadow;
  /// Slow-query capture: single queries at/above latency_threshold_seconds
  /// — and shadow recall misses, when both features are on — land in a ring
  /// with their span tree and scan "explain" record. Threshold 0 disables.
  obs::SlowQueryLog::Options slow_query;
  /// Scan-distribution drift self-monitoring; off by default.
  ServiceDriftOptions drift;
  /// Topology: contiguous row partitions, and independent replicas of each.
  size_t num_shards = 1;
  size_t num_replicas = 1;
  /// Per-replica admission budget, beside the service-wide `admission`.
  /// Defaults admit everything.
  AdmissionOptions replica_admission;
  /// Replica health state machine. It applies to a lone replica too: with
  /// the defaults, three consecutive failures take it out of rotation for
  /// the 5 s cooldown.
  HealthOptions health;
  /// Failover, quorum and scatter pool (null pool: shards run inline).
  RouterOptions router;
};

/// Per-request resource vector (DESIGN.md §16): what one request actually
/// cost, not just how long it took. cpu_ns is the serving thread's CPU time
/// across the post-embedding lifecycle (CLOCK_THREAD_CPUTIME_ID delta), the
/// scan stats are the index layer's exact per-request accounting.
struct RequestCost {
  uint64_t cpu_ns = 0;
  /// Sum of the shards' scan accounting.
  ScanStats scan;
  /// Fan-out: fraction of database rows behind the answer, shards that
  /// answered, and replica attempts beyond the first.
  double coverage = 0.0;
  uint32_t shards_answered = 0;
  uint32_t failovers = 0;
};

/// Per-request lifecycle knobs. Default: no deadline, not cancellable.
struct RequestOptions {
  Deadline deadline;
  CancellationToken cancel;
  /// Opt-in span tracing for single-query calls: Query() records the
  /// query → embed / admission / search → router → shard_<s> →
  /// (ivf_route|adc_scan) / rerank tree into this trace. Null (default)
  /// costs one branch per span site. QueryBatch rows are not traced
  /// (metrics cover the aggregate path).
  obs::Trace* trace = nullptr;
  /// When set, Query() fills it with the request's resource vector. Must
  /// outlive the call and belong to this request alone, so QueryBatch
  /// (one shared RequestOptions across rows) leaves it null.
  RequestCost* cost = nullptr;
  /// Head/mid/tail class-frequency bucket of the query (0/1/2), -1 when
  /// unknown. Routes the serving_cost_* counters' segment label so per-
  /// segment cost accounting mirrors the recall estimator's segmentation.
  int class_bucket = -1;
};

/// One retrieval result with its database payload.
struct ServedHit {
  uint32_t id = 0;
  float distance = 0.0f;
};

/// Point-in-time counter snapshot; every terminal request outcome
/// increments exactly one of served/partial/shed/expired/cancelled/failed.
struct ServiceStats {
  uint64_t admitted = 0;    // passed admission (includes degraded)
  uint64_t degraded_admissions = 0;  // admitted in degraded mode
  uint64_t served = 0;      // returned hits over the whole database
  uint64_t partial = 0;     // returned hits with coverage < 1
  uint64_t shed = 0;        // rejected by admission (kUnavailable)
  uint64_t expired = 0;     // kDeadlineExceeded
  uint64_t cancelled = 0;   // kCancelled
  uint64_t failed = 0;      // any other terminal error after admission
  uint64_t flat_fallbacks = 0;  // served by flat scan though IVF was on
  uint64_t failovers = 0;   // replica attempts beyond the first
  uint64_t timeouts = 0;    // attempts that burned their sub-deadline
  uint64_t health_transitions = 0;  // replica health state changes
  uint64_t breaker_open_transitions = 0;  // summed over replicas
  uint64_t in_flight = 0;
  BreakerState breaker_state = BreakerState::kClosed;  // most open replica
  /// Served-request latency distribution at snapshot time (cumulative).
  obs::HistogramSnapshot served_latency;
  /// Coverage of successful (served + partial) requests.
  obs::HistogramSnapshot coverage;
};

/// Windowed view between two Stats() snapshots of the same service: counter
/// differences plus the served-latency HistogramSnapshot delta, so callers
/// can report per-interval p95 instead of since-boot aggregates.
ServiceStats StatsSince(const ServiceStats& later, const ServiceStats& earlier);

/// A ready-to-serve retrieval stack: model (query encoder) + compressed
/// database index.
class RetrievalService {
 public:
  /// Builds the service from a trained model and raw database features.
  /// The model is shared (not copied); it must outlive the service.
  static Result<RetrievalService> Build(
      std::shared_ptr<const core::LightLtModel> model,
      const Matrix& db_features, const ServiceOptions& options = {});

  /// Top-k search for one raw feature vector (1 x input_dim).
  Result<std::vector<ServedHit>> Query(const Matrix& features,
                                       size_t top_k) const;
  Result<std::vector<ServedHit>> Query(const Matrix& features, size_t top_k,
                                       const RequestOptions& request) const;

  /// Batched search; parallelized across the pool when provided. The outer
  /// Status covers batch-level malformation only (dimension mismatch); each
  /// row carries its own Result so one poisoned or deadline-expired row
  /// cannot fail its siblings. Rows that never started when the batch
  /// deadline expired report kDeadlineExceeded.
  Result<std::vector<Result<std::vector<ServedHit>>>> QueryBatch(
      const Matrix& features, size_t top_k, ThreadPool* pool = nullptr,
      const RequestOptions& request = {}) const;

  size_t num_items() const { return shards_->total_items(); }
  size_t IndexMemoryBytes() const { return shards_->MemoryBytes(); }
  const ServiceOptions& options() const { return options_; }

  /// The serving grid, its health monitor and the router over them.
  const ShardSet& shards() const { return *shards_; }
  ReplicaHealthMonitor& health() const { return *health_; }
  const Router& router() const { return *router_; }

  /// Lifecycle counters as a point-in-time view over the metrics registry.
  /// Exact, not sampled: every outcome increments exactly one registry
  /// counter and Counter::Value() sums its shards losslessly, so the chaos
  /// tests' conservation law (admitted + shed + pre-admission terminals ==
  /// total requests) holds on this snapshot.
  ServiceStats Stats() const;

  /// The registry this service records into (its own unless
  /// ServiceOptions::metrics supplied one). Render with
  /// Metrics().RenderText() for Prometheus-style exposition.
  obs::MetricsRegistry& Metrics() const { return *metrics_; }

  /// Number of queries served by the flat-scan fallback because the IVF
  /// path failed, came up short, or was breaker-disallowed. Always 0 when
  /// IVF is not enabled. (Alias of Stats().flat_fallbacks.)
  uint64_t degraded_query_count() const {
    return inst_.flat_fallbacks ? inst_.flat_fallbacks->Value() : 0;
  }

  /// The shadow verifier, when ServiceOptions::shadow enabled one.
  ShadowVerifier* Shadow() const { return shadow_.get(); }

  /// The slow-query ring, when ServiceOptions::slow_query enabled one.
  obs::SlowQueryLog* SlowQueries() const { return slow_log_.get(); }

  /// The drift detector, when ServiceOptions::drift enabled one. Watches
  /// fire only after the warmup baseline froze and a CheckAll sweep ran.
  obs::DriftDetector* Drift() const {
    return drift_ ? &drift_->detector : nullptr;
  }
  /// True once the warmup window has been frozen as the drift baseline.
  bool DriftBaselineFrozen() const {
    return drift_ != nullptr && drift_->frozen.load(std::memory_order_acquire);
  }

 private:
  RetrievalService() = default;

  /// Registry-backed handles shared by QueryBatch workers; counters are
  /// sharded relaxed atomics (Counter) so the worker hot path stays
  /// contention-free. Raw pointers into metrics_, stable for its lifetime;
  /// the struct is trivially copyable so the service stays movable.
  struct Instruments {
    obs::Counter* admitted = nullptr;
    obs::Counter* degraded_admissions = nullptr;
    obs::Counter* served = nullptr;
    obs::Counter* partial = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* expired = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* flat_fallbacks = nullptr;
    obs::Counter* failovers = nullptr;
    obs::Counter* timeouts = nullptr;
    /// Coverage of successful requests.
    obs::Histogram* coverage = nullptr;
    /// Request latency per terminal outcome, seconds.
    obs::Histogram* latency_served = nullptr;
    obs::Histogram* latency_partial = nullptr;
    obs::Histogram* latency_shed = nullptr;
    obs::Histogram* latency_expired = nullptr;
    obs::Histogram* latency_cancelled = nullptr;
    obs::Histogram* latency_failed = nullptr;
    /// Pool backlog observed by QueryBatch rows (ApproxQueueDepth).
    obs::Gauge* queue_depth = nullptr;
    /// Cost accounting (DESIGN.md §16): the per-request resource vector
    /// rolled up into exact counters per segment — index 0 "overall",
    /// then the head/mid/tail class-frequency buckets. Every request lands
    /// in overall; segmented rows need RequestOptions::class_bucket.
    obs::Counter* cost_cpu_ns[obs::kNumRecallSegments] = {};
    obs::Counter* cost_items[obs::kNumRecallSegments] = {};
    obs::Counter* cost_codes_decoded[obs::kNumRecallSegments] = {};
    obs::Counter* cost_lut_builds[obs::kNumRecallSegments] = {};
    obs::Counter* cost_shortlist[obs::kNumRecallSegments] = {};

    void Register(obs::MetricsRegistry* registry);
  };

  /// Records a terminal non-OK outcome (and its latency) for an admitted
  /// (or pre-admission expired/cancelled) request.
  void CountOutcome(const Status& status, double elapsed_seconds) const;

  /// Full post-embedding lifecycle for one query: deadline/cancel check,
  /// admission, routed search, outcome and cost accounting. `trace`
  /// (may be null) hangs lifecycle spans under `parent`; `class_bucket`
  /// segments the cost counters; `cost` (may be null) receives the
  /// request's resource vector.
  Result<std::vector<ServedHit>> ServeEmbedded(const float* query,
                                               size_t top_k,
                                               const ScanControl& control,
                                               size_t observed_depth,
                                               obs::Trace* trace,
                                               const obs::Span* parent,
                                               int class_bucket,
                                               RequestCost* cost) const;

  /// Drift self-monitoring state: the detector plus the served-query
  /// cadence that freezes the baseline and paces CheckAll sweeps.
  /// shared_ptr so the (const) serving path can mutate it and the service
  /// stays movable.
  struct DriftMonitor {
    explicit DriftMonitor(obs::DriftDetector::Options options)
        : detector(std::move(options)) {}
    obs::DriftDetector detector;
    std::vector<std::string> watches;
    std::atomic<uint64_t> served{0};
    std::atomic<bool> frozen{false};
    uint64_t warmup = 0;
    uint64_t check_every = 0;
  };

  /// Advances the drift cadence after one served query: freezes the
  /// baseline when the warmup count is reached, then sweeps CheckAll every
  /// `check_every` served queries.
  void TickDrift() const;

  ServiceOptions options_;
  std::shared_ptr<const core::LightLtModel> model_;
  std::shared_ptr<const ShardSet> shards_;
  std::shared_ptr<ReplicaHealthMonitor> health_;
  std::unique_ptr<Router> router_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  Instruments inst_;
  std::shared_ptr<AdmissionController> admission_;
  std::shared_ptr<ShadowVerifier> shadow_;   // null unless sampling enabled
  std::shared_ptr<obs::SlowQueryLog> slow_log_;  // null unless capture on
  std::shared_ptr<DriftMonitor> drift_;      // null unless drift enabled
};

}  // namespace lightlt::serving

#endif  // LIGHTLT_SERVING_SERVICE_H_
