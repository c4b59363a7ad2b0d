// Replica health monitoring for the in-process cluster (DESIGN.md §13).
//
// A ReplicaHealthMonitor tracks one health state per (shard, replica) pair
// and drives the router's failover decisions. The state machine is closed —
// every transition below is the only way to move between states — and
// driven purely by per-attempt signals (success + latency, failure,
// timeout) plus an injectable clock, so tests walk it deterministically:
//
//               failure streak >= failures_to_suspect
//   HEALTHY ─────────────────────────────────────────▶ SUSPECT
//      ▲                                                 │ │
//      │ success streak >= successes_to_recover          │ │ failure streak
//      ├─────────────────────────────────────────────────┘ │ >= failures_to_down
//      │                                                   ▼
//      │ success streak >= successes_to_recover          DOWN ◀──┐
//      └───────────────── PROBING ◀──────────────────────┘       │
//                            │        cooldown elapsed           │
//                            └───────────────────────────────────┘
//                              any failure/timeout while probing
//
// Hysteresis: SUSPECT replicas still serve (they rank after HEALTHY ones)
// and need `successes_to_recover` consecutive successes to clear, so one
// good reply cannot mask a flapping replica. DOWN replicas serve nothing;
// after `down_cooldown_seconds` they are promoted to PROBING, where at most
// `probe_budget` concurrent probe attempts are allowed through (the
// half-open pattern of the CircuitBreaker, per replica). Successes slower
// than `slow_latency_seconds` count as failure signals — a replica that
// answers too late is as useless as one that errors.
//
// Thread-safe: the router's scatter tasks record signals from pool workers.
// Every served request passes through here, so the common case — a
// HEALTHY replica with no failure streak — takes no lock: Candidates,
// BeginAttempt and a fast RecordSuccess read a per-replica atomic flag that
// every locked transition keeps current, and change nothing.

#ifndef LIGHTLT_SERVING_HEALTH_H_
#define LIGHTLT_SERVING_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace lightlt::serving {

enum class ReplicaHealth { kHealthy, kSuspect, kDown, kProbing };

const char* ReplicaHealthName(ReplicaHealth state);

struct HealthOptions {
  /// Consecutive failure signals that demote HEALTHY → SUSPECT.
  int failures_to_suspect = 1;
  /// Consecutive failure signals (counted from the streak's start, so
  /// including the ones that caused SUSPECT) that demote SUSPECT → DOWN.
  int failures_to_down = 3;
  /// Consecutive successes that promote SUSPECT or PROBING → HEALTHY.
  int successes_to_recover = 2;
  /// Seconds a DOWN replica stays unservable before probing again.
  double down_cooldown_seconds = 5.0;
  /// Concurrent probe attempts allowed while PROBING; excess attempts are
  /// denied (BeginAttempt returns false) until a verdict frees a slot.
  int probe_budget = 1;
  /// Successes slower than this count as failure signals (0 = off).
  double slow_latency_seconds = 0.0;
  /// Injectable monotonic clock (seconds); defaults to the steady clock.
  std::function<double()> clock;
};

class ReplicaHealthMonitor {
 public:
  ReplicaHealthMonitor(size_t num_shards, size_t num_replicas,
                       const HealthOptions& options);

  ReplicaHealthMonitor(const ReplicaHealthMonitor&) = delete;
  ReplicaHealthMonitor& operator=(const ReplicaHealthMonitor&) = delete;

  /// Replicas of `shard` in failover preference order: HEALTHY first, then
  /// SUSPECT, then PROBING (ties broken by replica index, so selection is
  /// deterministic). DOWN replicas whose cooldown elapsed are promoted to
  /// PROBING here; replicas still DOWN are excluded entirely.
  std::vector<size_t> Candidates(size_t shard);

  /// Claims an attempt slot on (shard, replica). Always true for HEALTHY /
  /// SUSPECT; for PROBING, true only while fewer than `probe_budget` probes
  /// are outstanding; always false for DOWN. A true return MUST be matched
  /// by exactly one RecordSuccess / RecordFailure / RecordTimeout /
  /// RecordAbandoned call.
  bool BeginAttempt(size_t shard, size_t replica);

  /// The attempt succeeded in `latency_seconds`. Slow successes (past
  /// HealthOptions::slow_latency_seconds) count as failure signals.
  void RecordSuccess(size_t shard, size_t replica, double latency_seconds);

  /// The attempt failed on the replica (error or shed) — a failure signal.
  void RecordFailure(size_t shard, size_t replica);

  /// The attempt hit its per-shard sub-deadline on this replica — a failure
  /// signal (a replica that cannot answer inside its budget is unhealthy),
  /// counted separately for observability.
  void RecordTimeout(size_t shard, size_t replica);

  /// The attempt ended without a verdict about the replica (the *request*
  /// ran out of budget before the replica was really tried, or was
  /// cancelled). Balances BeginAttempt's probe accounting only.
  void RecordAbandoned(size_t shard, size_t replica);

  ReplicaHealth state(size_t shard, size_t replica) const;

  /// True when at least one replica of `shard` could be attempted right now
  /// (not DOWN, or DOWN with an elapsed cooldown).
  bool ShardServable(size_t shard) const;

  size_t num_shards() const { return num_shards_; }
  size_t num_replicas() const { return num_replicas_; }

  /// Cumulative state-machine transitions (any edge), for tests and gauges.
  uint64_t transition_count() const;
  /// Timeout signals recorded (subset of failure signals).
  uint64_t timeout_count() const;

  /// Registers one callback health-state gauge per replica
  /// (`{prefix}replica_health{shard="s",replica="r"}`, value 0 healthy /
  /// 1 suspect / 2 down / 3 probing) plus `{prefix}health_transitions_total`.
  /// The registry must not outlive this monitor's owner-supplied closure
  /// lifetime contract (callers keep the monitor in a shared_ptr).
  void InstrumentGauges(obs::MetricsRegistry* registry,
                        const std::string& prefix,
                        const std::shared_ptr<ReplicaHealthMonitor>& self);

 private:
  struct Cell {
    ReplicaHealth state = ReplicaHealth::kHealthy;
    int failure_streak = 0;
    int success_streak = 0;
    int probes_in_flight = 0;
    double downed_at = 0.0;
  };

  double Now() const;
  Cell& CellAt(size_t shard, size_t replica);
  const Cell& CellAt(size_t shard, size_t replica) const;
  /// DOWN → PROBING once the cooldown has elapsed. Caller holds mu_.
  void MaybePromoteLocked(Cell* cell) const;
  /// Applies one failure signal. Caller holds mu_.
  void FailureSignalLocked(Cell* cell);
  /// Applies one success signal. Caller holds mu_.
  void SuccessSignalLocked(Cell* cell);
  /// Releases a PROBING attempt slot if one was held. Caller holds mu_.
  void ReleaseProbeLocked(Cell* cell);
  /// Republishes the cell's lock-free "clean" flag. Caller holds mu_.
  void PublishLocked(const Cell& cell);
  bool Clean(size_t shard, size_t replica) const {
    return clean_[shard * num_replicas_ + replica].load(
        std::memory_order_acquire);
  }

  const size_t num_shards_;
  const size_t num_replicas_;
  HealthOptions options_;
  mutable std::mutex mu_;
  /// Flat [shard * num_replicas + replica]; states are mutable through
  /// const observers (state(), ShardServable()) because a DOWN cell whose
  /// cooldown elapsed must read as PROBING as soon as the clock allows,
  /// mirroring CircuitBreaker::MaybeHalfOpenLocked.
  mutable std::vector<Cell> cells_;
  /// Per cell: HEALTHY with a zero failure streak. Written under mu_ after
  /// every transition, read without it on the hot path.
  std::unique_ptr<std::atomic<bool>[]> clean_;
  mutable uint64_t transitions_ = 0;
  uint64_t timeouts_ = 0;
};

}  // namespace lightlt::serving

#endif  // LIGHTLT_SERVING_HEALTH_H_
