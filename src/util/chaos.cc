#include "src/util/chaos.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

namespace lightlt {
namespace {

ChaosPlan g_plan;
std::atomic<bool> g_armed{false};

std::atomic<uint64_t> g_ivf_searches{0};
std::atomic<uint64_t> g_ivf_failures{0};
std::atomic<uint64_t> g_scan_chunks{0};
std::atomic<uint64_t> g_scan_failures{0};
std::atomic<uint64_t> g_replica_searches{0};
std::atomic<uint64_t> g_replica_failures{0};

/// Per-ReplicaFault-rule attempt counters (index-matched with
/// g_plan.replica_faults), allocated at Arm so fail_first_n / flap_period
/// windows count matching attempts per rule, not globally.
std::unique_ptr<std::atomic<uint64_t>[]> g_replica_rule_hits;

// The IVF hold gate. A plain mutex/condvar pair: holds are rare (tests
// only) and the armed check guards the fast path.
std::mutex g_hold_mu;
std::condition_variable g_hold_cv;
bool g_hold_ivf = false;

}  // namespace

void ArmChaos(const ChaosPlan& plan) {
  g_plan = plan;
  g_ivf_searches.store(0);
  g_ivf_failures.store(0);
  g_scan_chunks.store(0);
  g_scan_failures.store(0);
  g_replica_searches.store(0);
  g_replica_failures.store(0);
  g_replica_rule_hits =
      plan.replica_faults.empty()
          ? nullptr
          : std::make_unique<std::atomic<uint64_t>[]>(
                plan.replica_faults.size());
  g_armed.store(true, std::memory_order_release);
}

void DisarmChaos() {
  g_armed.store(false, std::memory_order_release);
  g_plan = ChaosPlan{};
  // Never leave scans parked on the gate after a test disarms.
  HoldIvf(false);
}

bool ChaosArmed() { return g_armed.load(std::memory_order_acquire); }

ChaosCounters ChaosCountersSnapshot() {
  ChaosCounters c;
  c.ivf_searches = g_ivf_searches.load();
  c.ivf_failures_injected = g_ivf_failures.load();
  c.scan_chunks = g_scan_chunks.load();
  c.scan_failures_injected = g_scan_failures.load();
  c.replica_searches = g_replica_searches.load();
  c.replica_failures_injected = g_replica_failures.load();
  return c;
}

Status ChaosOnIvfSearch() {
  if (!ChaosArmed()) return Status::Ok();
  // Counted before the hold gate, so a test can wait for a pinned search.
  const uint64_t n = g_ivf_searches.fetch_add(1) + 1;
  {
    std::unique_lock<std::mutex> lock(g_hold_mu);
    g_hold_cv.wait(lock, [] { return !g_hold_ivf; });
  }
  if (g_plan.ivf_fail_first_n > 0 &&
      n <= static_cast<uint64_t>(g_plan.ivf_fail_first_n)) {
    g_ivf_failures.fetch_add(1);
    return Status::Unavailable("chaos: injected IVF failure");
  }
  return Status::Ok();
}

Status ChaosOnScanChunk() {
  if (!ChaosArmed()) return Status::Ok();
  const uint64_t chunk = g_scan_chunks.fetch_add(1);
  if (g_plan.scan_chunk_delay_seconds > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(g_plan.scan_chunk_delay_seconds));
  }
  if (g_plan.scan_fail_nth >= 0 &&
      chunk == static_cast<uint64_t>(g_plan.scan_fail_nth)) {
    g_scan_failures.fetch_add(1);
    return Status::Unavailable("chaos: injected scan failure");
  }
  return Status::Ok();
}

Status ChaosOnReplicaSearch(size_t shard, size_t replica) {
  if (!ChaosArmed()) return Status::Ok();
  g_replica_searches.fetch_add(1);
  for (size_t i = 0; i < g_plan.replica_faults.size(); ++i) {
    const ReplicaFault& rule = g_plan.replica_faults[i];
    if (rule.shard >= 0 && static_cast<size_t>(rule.shard) != shard) continue;
    if (rule.replica >= 0 && static_cast<size_t>(rule.replica) != replica) {
      continue;
    }
    // First match wins; `n` is this rule's 0-based matching-attempt index.
    const uint64_t n = g_replica_rule_hits[i].fetch_add(1);
    if (rule.latency_seconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(rule.latency_seconds));
    }
    bool fail = rule.kill;
    if (!fail && rule.fail_first_n > 0 &&
        n < static_cast<uint64_t>(rule.fail_first_n)) {
      fail = true;
    }
    if (!fail && rule.flap_period > 0 &&
        (n / static_cast<uint64_t>(rule.flap_period)) % 2 == 1) {
      fail = true;
    }
    if (fail) {
      g_replica_failures.fetch_add(1);
      return Status::Unavailable("chaos: injected replica fault");
    }
    return Status::Ok();
  }
  return Status::Ok();
}

void HoldIvf(bool hold) {
  {
    std::lock_guard<std::mutex> lock(g_hold_mu);
    g_hold_ivf = hold;
  }
  if (!hold) g_hold_cv.notify_all();
}

struct PoolStarver::Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
};

PoolStarver::PoolStarver(ThreadPool* pool, size_t threads)
    : gate_(std::make_shared<Gate>()), group_(pool) {
  // A null (or zero-thread) pool would run the blocking tasks inline on
  // this thread and never return; starving nothing is the only sane answer.
  if (pool == nullptr || pool->num_threads() == 0) return;
  for (size_t i = 0; i < threads; ++i) {
    group_.Submit([gate = gate_] {
      std::unique_lock<std::mutex> lock(gate->mu);
      gate->cv.wait(lock, [&] { return gate->released; });
    });
  }
}

PoolStarver::~PoolStarver() {
  Release();
  // TaskGroup's destructor drains; the blocked tasks exit on release.
}

void PoolStarver::Release() {
  {
    std::lock_guard<std::mutex> lock(gate_->mu);
    gate_->released = true;
  }
  gate_->cv.notify_all();
}

}  // namespace lightlt
