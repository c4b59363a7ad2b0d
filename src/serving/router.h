// Scatter-gather router (DESIGN.md §13).
//
// Router scatter-gathers one query across every shard of a ShardSet on a
// ThreadPool: each shard task walks the ReplicaHealthMonitor's candidate
// list (healthy → suspect → probing), claims an attempt slot, and runs the
// replica search under a *sub-deadline* carved from the request's remaining
// budget — remaining/attempts_left, so the first attempt leaves room for a
// failover and the last one gets everything that is left. Attempt verdicts
// feed the monitor (success+latency / failure / timeout / abandoned), which
// is what drives the next request's failover order.
//
// Per-shard top-k results merge by the deterministic (distance, id) order in
// global database ids: with every shard healthy the merged top-k is
// bit-identical to a single-shard search over the same corpus (each shard's
// local top-k is a superset of its contribution to the global top-k; ADC
// distances depend only on codebooks+codes, not on the partition).
//
// Degradation contract: a shard whose every usable replica fails costs
// *coverage*, not availability — the query succeeds with `coverage` = the
// fraction of database rows actually searched, as long as coverage stays at
// or above RouterOptions::quorum_coverage. Below quorum the query fails
// with kUnavailable (or the stronger kDeadlineExceeded / kCancelled when
// the request's own budget was the cause).
//
// RetrievalService (src/serving/service.h) serves every in-process
// topology through one Router over a LocalShardTransport; a single-node
// service is the 1 x 1 grid. Callers driving a Router directly (over a
// RemoteTransport) get the same merge, failover and slow-query records.

#ifndef LIGHTLT_SERVING_ROUTER_H_
#define LIGHTLT_SERVING_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/log.h"
#include "src/obs/quality.h"
#include "src/serving/health.h"
#include "src/serving/shard.h"
#include "src/serving/transport.h"
#include "src/util/deadline.h"
#include "src/util/status.h"
#include "src/util/threadpool.h"

namespace lightlt::serving {

struct RouterOptions {
  /// Replica attempts allowed per shard per request, including the first
  /// (failover cap). Clamped to the replica count.
  int max_attempts_per_shard = 2;
  /// Minimum fraction of database rows successful shards must cover for
  /// the query to succeed; below it the query fails (kUnavailable, or the
  /// request's own deadline/cancel status when that was the cause).
  double quorum_coverage = 0.5;
  /// Pool the scatter runs on (null = shards searched inline, in order).
  ThreadPool* pool = nullptr;
  /// A replica attempt whose carved sub-deadline would be at or below this
  /// many seconds fails fast with kDeadlineExceeded instead of dispatching:
  /// an already-expired or near-zero budget cannot finish any scan, and
  /// dispatching it would charge the replica a bogus timeout verdict (worse
  /// over a remote transport, where dialing alone would eat the budget).
  double min_attempt_budget_seconds = 1e-6;
  /// Optional structured logger: every failover verdict (timeout/failure
  /// that moves the walk to the next replica) and terminal shard failure
  /// is logged with the request's trace id, so log lines and trace dumps
  /// join by grep (DESIGN.md §15).
  obs::Logger* logger = nullptr;
};

/// Outcome of one routed query. `status` is the single terminal verdict;
/// the fan-out metadata is populated either way so callers can count
/// failovers and timeouts even on a failed request.
struct RoutedResult {
  Status status;
  /// Merged top-k in global database ids, (distance, id) ascending.
  std::vector<index::SearchHit> hits;
  /// Fraction of database rows covered by successful shards (1.0 = full).
  double coverage = 0.0;
  uint32_t shards_answered = 0;
  /// Replica attempts beyond the first, summed over shards.
  uint32_t failovers = 0;
  /// Attempts that burned their sub-deadline (health timeout signals).
  uint32_t timeouts = 0;
  /// Per-shard terminal status, index = shard id.
  std::vector<Status> shard_status;
  /// Some answering shard served from the flat scan although IVF was on.
  bool flat_fallback = false;
};

/// The explain record of one routed query: coverage / shards-answered /
/// failover attribution and the fallback bit from `routed`, the scan
/// accounting from `scan` (when non-null), and the request's CPU time and
/// degraded flag.
obs::ExplainRecord ExplainRouted(const RoutedResult& routed,
                                 const ScanStats* scan = nullptr,
                                 uint64_t cpu_ns = 0, bool degraded = false);

/// Captures one routed query into a slow-query explain ring when it
/// crossed the ring's latency threshold: terminal outcome from `routed`,
/// `explain`, and the full span tree (stitched remote subtrees carry
/// per-span shard attribution). Null `log` and untraced requests are fine;
/// sub-threshold queries are ignored. RetrievalService calls this for
/// every admitted request; callers driving Router directly (e.g. over a
/// RemoteTransport) pass ExplainRouted(routed) to get the same ring
/// records.
void MaybeCaptureSlowQuery(obs::SlowQueryLog* log, const RoutedResult& routed,
                           double elapsed_seconds, const obs::Trace* trace,
                           const obs::ExplainRecord& explain);

/// Scatter-gather search over a SearchTransport with health-driven
/// failover. Transport-agnostic: in-process ShardSet and remote shard
/// servers merge bit-identically (see src/serving/transport.h).
/// Thread-safe: holds shared immutable state plus the (internally locked)
/// health monitor.
class Router {
 public:
  Router(std::shared_ptr<const SearchTransport> transport,
         std::shared_ptr<ReplicaHealthMonitor> health,
         const RouterOptions& options);

  /// Convenience overload: routes over an in-process ShardSet.
  Router(std::shared_ptr<const ShardSet> shards,
         std::shared_ptr<ReplicaHealthMonitor> health,
         const RouterOptions& options);

  /// Routes one embedded query under the request's `control`. Its
  /// deadline and token bound the whole fan-out; each shard attempt gets a
  /// sub-deadline derived from the remaining budget, and `degraded` and
  /// `check_every_items` reach every replica. When `control.stats` is set,
  /// each shard task fills its own ScanStats and the sum lands in
  /// *control.stats after the join. Span tree when `trace` is non-null:
  /// router → shard_<s> → (ivf_route | adc_scan) / rerank.
  RoutedResult Search(const float* query, size_t top_k,
                      const ScanControl& control, obs::Trace* trace,
                      const obs::Span* parent) const;
  /// Same, for a request with no scan accounting and no degrade.
  RoutedResult Search(const float* query, size_t top_k,
                      const Deadline& deadline,
                      const CancellationToken& cancel, obs::Trace* trace,
                      const obs::Span* parent) const;

  const SearchTransport& transport() const { return *transport_; }
  ReplicaHealthMonitor& health() const { return *health_; }
  const RouterOptions& options() const { return options_; }

 private:
  /// One shard's failover walk: candidates in health order, sub-deadline
  /// per attempt, verdicts recorded into the monitor.
  struct ShardOutcome {
    Status status;
    std::vector<index::SearchHit> hits;
    uint32_t attempts = 0;
    uint32_t timeouts = 0;
    bool flat_fallback = false;
    /// This shard's attempts' scan accounting (only when requested).
    ScanStats scan;
  };
  ShardOutcome SearchShard(size_t shard, const float* query, size_t top_k,
                           const ScanControl& request, obs::Trace* trace,
                           const obs::Span* parent) const;

  std::shared_ptr<const SearchTransport> transport_;
  std::shared_ptr<ReplicaHealthMonitor> health_;
  RouterOptions options_;
};

}  // namespace lightlt::serving

#endif  // LIGHTLT_SERVING_ROUTER_H_
