#include "src/serving/router.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "src/obs/profile.h"
#include "src/util/check.h"

namespace lightlt::serving {

Router::Router(std::shared_ptr<const SearchTransport> transport,
               std::shared_ptr<ReplicaHealthMonitor> health,
               const RouterOptions& options)
    : transport_(std::move(transport)),
      health_(std::move(health)),
      options_(options) {
  LIGHTLT_CHECK(transport_ != nullptr);
  LIGHTLT_CHECK(health_ != nullptr);
  LIGHTLT_CHECK(health_->num_shards() == transport_->num_shards());
  LIGHTLT_CHECK(health_->num_replicas() == transport_->num_replicas());
  if (options_.max_attempts_per_shard < 1) options_.max_attempts_per_shard = 1;
  if (options_.min_attempt_budget_seconds < 0.0) {
    options_.min_attempt_budget_seconds = 0.0;
  }
}

Router::Router(std::shared_ptr<const ShardSet> shards,
               std::shared_ptr<ReplicaHealthMonitor> health,
               const RouterOptions& options)
    : Router(std::make_shared<LocalShardTransport>(std::move(shards)), health,
             options) {}

Router::ShardOutcome Router::SearchShard(size_t shard, const float* query,
                                         size_t top_k,
                                         const ScanControl& request,
                                         obs::Trace* trace,
                                         const obs::Span* parent) const {
  ShardOutcome outcome;
  obs::ProfilePhase shard_phase("shard_search");
  obs::Span shard_span =
      obs::MaybeSpan(trace, "shard_" + std::to_string(shard), parent);
  const obs::Span* shard_parent = trace ? &shard_span : nullptr;

  // Every failover verdict is logged with the request's trace id, so a
  // stitched trace dump and the router's log lines join by grep
  // (trace_id=0000... on untraced requests).
  const uint64_t trace_id = trace != nullptr ? trace->trace_id() : 0;
  auto log_verdict = [&](const char* verdict, size_t replica,
                         const Status& s) {
    if (options_.logger == nullptr) return;
    options_.logger->Log(
        obs::LogLevel::kWarn, "router", "replica attempt failed",
        {obs::LogField("trace_id", obs::TraceIdHex(trace_id)),
         obs::LogField("shard", static_cast<uint64_t>(shard)),
         obs::LogField("replica", static_cast<uint64_t>(replica)),
         obs::LogField("verdict", verdict),
         obs::LogField("code", Status::CodeName(s.code())),
         obs::LogField("error", s.message())});
  };

  const std::vector<size_t> candidates = health_->Candidates(shard);
  if (candidates.empty()) {
    outcome.status =
        Status::Unavailable("router: every replica of the shard is down");
    return outcome;
  }
  const uint32_t max_attempts = static_cast<uint32_t>(
      std::min<size_t>(static_cast<size_t>(options_.max_attempts_per_shard),
                       candidates.size()));

  const Deadline& deadline = request.deadline;
  Status last = Status::Unavailable("router: all replica attempts failed");
  for (size_t i = 0;
       i < candidates.size() && outcome.attempts < max_attempts; ++i) {
    Status budget = request.Check();
    if (!budget.ok()) {
      outcome.status = std::move(budget);
      return outcome;
    }
    const size_t replica = candidates[i];

    // Sub-deadline: an even split of the remaining request budget over the
    // attempts still allowed, so the first attempt leaves room for a
    // failover and the last one gets everything that is left. Computed
    // before the attempt slot is claimed: a zero-or-near-zero slice cannot
    // finish any scan, so dispatching it would only charge the replica a
    // bogus timeout verdict (and, over a remote transport, burn a wire
    // round trip) — fail fast instead. The last attempt runs under the
    // request's own deadline, so its expiry is never mistaken for a
    // replica timeout.
    ScanControl control = request;
    control.stats = request.stats != nullptr ? &outcome.scan : nullptr;
    if (!deadline.IsInfinite()) {
      const uint32_t attempts_left = max_attempts - outcome.attempts;
      const double budget = std::max(0.0, deadline.RemainingSeconds()) /
                            static_cast<double>(attempts_left);
      if (budget <= options_.min_attempt_budget_seconds) {
        outcome.status = Status::DeadlineExceeded(
            "router: no budget left for a replica attempt");
        return outcome;
      }
      if (attempts_left > 1) control.deadline = Deadline::After(budget);
    }

    // A denied claim (probe budget exhausted, or the replica raced to DOWN
    // since Candidates ran) consumes no attempt: move to the next candidate.
    if (!health_->BeginAttempt(shard, replica)) continue;
    ++outcome.attempts;
    ReplicaAttempt attempt = transport_->SearchReplica(
        shard, replica, query, top_k, control, trace, shard_parent);

    if (attempt.status.ok()) {
      // Health still hears about slow successes (slow_latency_seconds);
      // the hits are served either way — they arrived inside the budget.
      health_->RecordSuccess(shard, replica, attempt.latency_seconds);
      outcome.status = Status::Ok();
      outcome.hits = std::move(attempt.hits);
      outcome.flat_fallback = attempt.flat_fallback;
      return outcome;
    }
    switch (attempt.status.code()) {
      case StatusCode::kCancelled:
        // The caller pulled the plug — no verdict about the replica.
        health_->RecordAbandoned(shard, replica);
        outcome.status = std::move(attempt.status);
        return outcome;
      case StatusCode::kDeadlineExceeded:
        if (!deadline.Expired()) {
          // The sub-deadline fired while the request still has budget: the
          // replica was too slow to answer in its share — a timeout signal,
          // and grounds to fail over.
          health_->RecordTimeout(shard, replica);
          log_verdict("timeout", replica, attempt.status);
          ++outcome.timeouts;
          last = std::move(attempt.status);
          break;
        }
        // The request's own budget is gone; the replica was never really
        // given a chance.
        health_->RecordAbandoned(shard, replica);
        outcome.status = std::move(attempt.status);
        return outcome;
      default:
        // Error or admission shed — both count against the replica.
        health_->RecordFailure(shard, replica);
        log_verdict("failure", replica, attempt.status);
        last = std::move(attempt.status);
        break;
    }
  }
  if (options_.logger != nullptr && !last.ok()) {
    options_.logger->Log(
        obs::LogLevel::kWarn, "router", "shard exhausted its replicas",
        {obs::LogField("trace_id", obs::TraceIdHex(trace_id)),
         obs::LogField("shard", static_cast<uint64_t>(shard)),
         obs::LogField("attempts", static_cast<uint64_t>(outcome.attempts)),
         obs::LogField("code", Status::CodeName(last.code()))});
  }
  outcome.status = std::move(last);
  return outcome;
}

RoutedResult Router::Search(const float* query, size_t top_k,
                            const Deadline& deadline,
                            const CancellationToken& cancel,
                            obs::Trace* trace,
                            const obs::Span* parent) const {
  return Search(query, top_k, ScanControl{deadline, cancel}, trace, parent);
}

RoutedResult Router::Search(const float* query, size_t top_k,
                            const ScanControl& control, obs::Trace* trace,
                            const obs::Span* parent) const {
  const size_t num_shards = transport_->num_shards();
  RoutedResult result;
  result.shard_status.resize(num_shards);

  obs::Span router_span = obs::MaybeSpan(trace, "router", parent);
  const obs::Span* router_parent = trace ? &router_span : nullptr;

  // Scatter: one task per shard. Each task observes the request deadline
  // internally (sub-deadlines bound every attempt), so a plain Wait()
  // returns promptly after expiry — at most one chunk of scan work late.
  // Each task writes only its own outcome, scan accounting included.
  std::vector<ShardOutcome> outcomes(num_shards);
  {
    obs::ProfilePhase scatter_phase("router_scatter");
    const auto search_shard = [&](size_t s) {
      try {
        outcomes[s] =
            SearchShard(s, query, top_k, control, trace, router_parent);
      } catch (const std::exception& e) {
        outcomes[s].status = Status::Internal(
            std::string("router: shard task failed: ") + e.what());
      } catch (...) {
        outcomes[s].status = Status::Internal("router: shard task failed");
      }
    };
    if (num_shards == 1) {
      search_shard(0);  // nothing to scatter: no task group, no hop
    } else {
      TaskGroup group(options_.pool);
      for (size_t s = 0; s < num_shards; ++s) {
        group.Submit([&search_shard, s] { search_shard(s); });
      }
      group.Wait();
    }
  }

  // Gather: successful shards contribute hits and coverage; failed shards
  // contribute their status to the terminal verdict.
  obs::ProfilePhase merge_phase("router_merge");
  std::vector<index::SearchHit> merged;
  size_t covered = 0;
  bool saw_expired = false;
  bool saw_cancelled = false;
  for (size_t s = 0; s < num_shards; ++s) {
    ShardOutcome& outcome = outcomes[s];
    result.shard_status[s] = outcome.status;
    if (outcome.attempts > 0) result.failovers += outcome.attempts - 1;
    result.timeouts += outcome.timeouts;
    if (control.stats != nullptr) *control.stats += outcome.scan;
    if (outcome.status.ok()) {
      ++result.shards_answered;
      covered += transport_->shard_items(s);
      result.flat_fallback = result.flat_fallback || outcome.flat_fallback;
      if (merged.empty()) {
        merged = std::move(outcome.hits);
      } else {
        merged.insert(merged.end(), outcome.hits.begin(), outcome.hits.end());
      }
    } else if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
      saw_expired = true;
    } else if (outcome.status.code() == StatusCode::kCancelled) {
      saw_cancelled = true;
    }
  }
  const size_t total = transport_->total_items();
  result.coverage =
      total == 0 ? 0.0
                 : static_cast<double>(covered) / static_cast<double>(total);

  if (result.shards_answered > 0 &&
      result.coverage >= options_.quorum_coverage) {
    // Deterministic k-way merge: each shard's local top-k is already a
    // superset of its contribution to the global top-k and sorted by
    // (distance, id), so one exact sort over the union reproduces the
    // single-shard order bit for bit — and one shard's list is the answer.
    if (result.shards_answered > 1) {
      std::sort(merged.begin(), merged.end(),
                [](const index::SearchHit& a, const index::SearchHit& b) {
                  return a.distance < b.distance ||
                         (a.distance == b.distance && a.id < b.id);
                });
    }
    if (merged.size() > top_k) merged.resize(top_k);
    result.hits = std::move(merged);
    result.status = Status::Ok();
    return result;
  }
  // Below quorum. The caller's own lifecycle signals outrank a generic
  // unavailability verdict: cancel is the explicit stop request (same
  // precedence as ScanControl::Check), then the deadline.
  if (saw_cancelled) {
    result.status = Status::Cancelled("router: request cancelled");
  } else if (saw_expired) {
    result.status =
        Status::DeadlineExceeded("router: request deadline exceeded");
  } else {
    result.status = Status::Unavailable(
        "router: coverage below quorum, too many shards unavailable");
  }
  return result;
}

obs::ExplainRecord ExplainRouted(const RoutedResult& routed,
                                 const ScanStats* scan, uint64_t cpu_ns,
                                 bool degraded) {
  obs::ExplainRecord explain;
  if (scan != nullptr) explain.scan = *scan;
  explain.cpu_ns = cpu_ns;
  explain.degraded = degraded;
  explain.flat_fallback = routed.flat_fallback;
  explain.coverage = routed.coverage;
  explain.shards_answered = routed.shards_answered;
  explain.failovers = routed.failovers;
  return explain;
}

void MaybeCaptureSlowQuery(obs::SlowQueryLog* log, const RoutedResult& routed,
                           double elapsed_seconds, const obs::Trace* trace,
                           const obs::ExplainRecord& explain) {
  if (log == nullptr || log->options().latency_threshold_seconds <= 0.0 ||
      elapsed_seconds < log->options().latency_threshold_seconds) {
    return;
  }
  obs::SlowQueryRecord record;
  record.kind = "latency";
  record.outcome =
      routed.status.ok() ? "ok" : Status::CodeName(routed.status.code());
  record.trace_id = trace != nullptr ? trace->trace_id() : 0;
  record.latency_seconds = elapsed_seconds;
  record.explain = explain;
  // The request's root span is typically still open here; closed child
  // spans — including stitched remote subtrees with shard attribution —
  // carry the useful timing.
  if (trace != nullptr) record.spans = trace->Records();
  log->Add(std::move(record));
}

}  // namespace lightlt::serving
