#include "src/serving/health.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "src/util/check.h"

namespace lightlt::serving {

const char* ReplicaHealthName(ReplicaHealth state) {
  switch (state) {
    case ReplicaHealth::kHealthy:
      return "healthy";
    case ReplicaHealth::kSuspect:
      return "suspect";
    case ReplicaHealth::kDown:
      return "down";
    case ReplicaHealth::kProbing:
      return "probing";
  }
  return "unknown";
}

ReplicaHealthMonitor::ReplicaHealthMonitor(size_t num_shards,
                                           size_t num_replicas,
                                           const HealthOptions& options)
    : num_shards_(num_shards), num_replicas_(num_replicas), options_(options) {
  LIGHTLT_CHECK(num_shards > 0);
  LIGHTLT_CHECK(num_replicas > 0);
  cells_.resize(num_shards * num_replicas);
  clean_ = std::make_unique<std::atomic<bool>[]>(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) clean_[i].store(true);
}

void ReplicaHealthMonitor::PublishLocked(const Cell& cell) {
  clean_[static_cast<size_t>(&cell - cells_.data())].store(
      cell.state == ReplicaHealth::kHealthy && cell.failure_streak == 0,
      std::memory_order_release);
}

double ReplicaHealthMonitor::Now() const {
  if (options_.clock) return options_.clock();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ReplicaHealthMonitor::Cell& ReplicaHealthMonitor::CellAt(size_t shard,
                                                         size_t replica) {
  return cells_[shard * num_replicas_ + replica];
}

const ReplicaHealthMonitor::Cell& ReplicaHealthMonitor::CellAt(
    size_t shard, size_t replica) const {
  return cells_[shard * num_replicas_ + replica];
}

void ReplicaHealthMonitor::MaybePromoteLocked(Cell* cell) const {
  if (cell->state != ReplicaHealth::kDown) return;
  if (Now() - cell->downed_at < options_.down_cooldown_seconds) return;
  cell->state = ReplicaHealth::kProbing;
  cell->success_streak = 0;
  cell->probes_in_flight = 0;
  ++transitions_;
}

void ReplicaHealthMonitor::ReleaseProbeLocked(Cell* cell) {
  if (cell->probes_in_flight > 0) --cell->probes_in_flight;
}

void ReplicaHealthMonitor::FailureSignalLocked(Cell* cell) {
  cell->success_streak = 0;
  ++cell->failure_streak;
  switch (cell->state) {
    case ReplicaHealth::kHealthy:
      if (cell->failure_streak >= options_.failures_to_suspect) {
        cell->state = ReplicaHealth::kSuspect;
        ++transitions_;
      }
      break;
    case ReplicaHealth::kSuspect:
      if (cell->failure_streak >= options_.failures_to_down) {
        cell->state = ReplicaHealth::kDown;
        cell->downed_at = Now();
        ++transitions_;
      }
      break;
    case ReplicaHealth::kProbing:
      // One failed probe sends the replica straight back to DOWN with a
      // fresh cooldown — the half-open re-open rule.
      cell->state = ReplicaHealth::kDown;
      cell->downed_at = Now();
      cell->failure_streak = std::max(cell->failure_streak,
                                      options_.failures_to_down);
      ++transitions_;
      break;
    case ReplicaHealth::kDown:
      // A straggler verdict from an attempt that began before the replica
      // went down; nothing further to demote.
      break;
  }
}

void ReplicaHealthMonitor::SuccessSignalLocked(Cell* cell) {
  cell->failure_streak = 0;
  ++cell->success_streak;
  switch (cell->state) {
    case ReplicaHealth::kSuspect:
    case ReplicaHealth::kProbing:
      if (cell->success_streak >= options_.successes_to_recover) {
        cell->state = ReplicaHealth::kHealthy;
        ++transitions_;
      }
      break;
    case ReplicaHealth::kHealthy:
    case ReplicaHealth::kDown:
      break;
  }
}

std::vector<size_t> ReplicaHealthMonitor::Candidates(size_t shard) {
  std::vector<size_t> out;
  out.reserve(num_replicas_);
  for (size_t r = 0; r < num_replicas_ && Clean(shard, r); ++r) {
    out.push_back(r);
  }
  if (out.size() == num_replicas_) return out;  // all healthy, index order
  out.clear();
  std::lock_guard<std::mutex> lock(mu_);
  // Preference order: healthy, then suspect, then probing; stable by
  // replica index within each class so failover is deterministic.
  for (const ReplicaHealth want :
       {ReplicaHealth::kHealthy, ReplicaHealth::kSuspect,
        ReplicaHealth::kProbing}) {
    for (size_t r = 0; r < num_replicas_; ++r) {
      Cell& cell = CellAt(shard, r);
      MaybePromoteLocked(&cell);
      if (cell.state == want) out.push_back(r);
    }
  }
  return out;
}

bool ReplicaHealthMonitor::BeginAttempt(size_t shard, size_t replica) {
  if (Clean(shard, replica)) return true;
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = CellAt(shard, replica);
  MaybePromoteLocked(&cell);
  switch (cell.state) {
    case ReplicaHealth::kHealthy:
    case ReplicaHealth::kSuspect:
      return true;
    case ReplicaHealth::kProbing:
      if (cell.probes_in_flight >= options_.probe_budget) return false;
      ++cell.probes_in_flight;
      return true;
    case ReplicaHealth::kDown:
      return false;
  }
  return false;
}

void ReplicaHealthMonitor::RecordSuccess(size_t shard, size_t replica,
                                         double latency_seconds) {
  const bool slow = options_.slow_latency_seconds > 0.0 &&
                    latency_seconds > options_.slow_latency_seconds;
  // A fast success on a clean replica changes nothing it would report.
  if (!slow && Clean(shard, replica)) return;
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = CellAt(shard, replica);
  ReleaseProbeLocked(&cell);
  if (slow) {
    FailureSignalLocked(&cell);
  } else {
    SuccessSignalLocked(&cell);
  }
  PublishLocked(cell);
}

void ReplicaHealthMonitor::RecordFailure(size_t shard, size_t replica) {
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = CellAt(shard, replica);
  ReleaseProbeLocked(&cell);
  FailureSignalLocked(&cell);
  PublishLocked(cell);
}

void ReplicaHealthMonitor::RecordTimeout(size_t shard, size_t replica) {
  std::lock_guard<std::mutex> lock(mu_);
  ++timeouts_;
  Cell& cell = CellAt(shard, replica);
  ReleaseProbeLocked(&cell);
  FailureSignalLocked(&cell);
  PublishLocked(cell);
}

void ReplicaHealthMonitor::RecordAbandoned(size_t shard, size_t replica) {
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = CellAt(shard, replica);
  ReleaseProbeLocked(&cell);
  // No verdict: streaks and state untouched.
}

ReplicaHealth ReplicaHealthMonitor::state(size_t shard,
                                          size_t replica) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Cell& cell = CellAt(shard, replica);
  // Observers must see DOWN→PROBING as soon as the clock allows it.
  MaybePromoteLocked(const_cast<Cell*>(&cell));
  return cell.state;
}

bool ReplicaHealthMonitor::ShardServable(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t r = 0; r < num_replicas_; ++r) {
    const Cell& cell = CellAt(shard, r);
    MaybePromoteLocked(const_cast<Cell*>(&cell));
    if (cell.state != ReplicaHealth::kDown) return true;
  }
  return false;
}

uint64_t ReplicaHealthMonitor::transition_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transitions_;
}

uint64_t ReplicaHealthMonitor::timeout_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timeouts_;
}

void ReplicaHealthMonitor::InstrumentGauges(
    obs::MetricsRegistry* registry, const std::string& prefix,
    const std::shared_ptr<ReplicaHealthMonitor>& self) {
  LIGHTLT_CHECK(self.get() == this);
  for (size_t s = 0; s < num_shards_; ++s) {
    for (size_t r = 0; r < num_replicas_; ++r) {
      // Hand-built two-label name; WithLabel only composes a single label.
      const std::string name = prefix + "replica_health{shard=\"" +
                               std::to_string(s) + "\",replica=\"" +
                               std::to_string(r) + "\"}";
      registry->RegisterCallbackGauge(name, [self, s, r]() {
        return static_cast<double>(static_cast<int>(self->state(s, r)));
      });
    }
  }
  registry->RegisterCallbackGauge(
      prefix + "health_transitions_total",
      [self]() { return static_cast<double>(self->transition_count()); });
}

}  // namespace lightlt::serving
