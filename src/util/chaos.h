// Deterministic compute-side fault injection, mirroring IoFaultPlan
// (src/util/io.h) for the serving path. A ChaosPlan is armed globally;
// instrumented code calls the hooks below, which inject latency spikes,
// transient scan failures and IVF-path failures so tests can drive every
// request-lifecycle state (served / degraded / shed / expired) on demand.
//
// Arm/disarm only from single-threaded test code; the hooks themselves are
// thread-safe (scan loops run on pool workers). Hook counters are global
// and reset on Arm, so a test can assert exactly how many injections fired.

#ifndef LIGHTLT_UTIL_CHAOS_H_
#define LIGHTLT_UTIL_CHAOS_H_

#include <cstdint>
#include <vector>

#include "src/util/status.h"
#include "src/util/threadpool.h"

namespace lightlt {

/// One per-replica fault rule of the cluster layer (DESIGN.md §13). A
/// search attempt on (shard, replica) consults the first matching rule;
/// -1 wildcards match any shard/replica.
struct ReplicaFault {
  int shard = -1;
  int replica = -1;
  /// Every matching attempt fails with kUnavailable — a dead process.
  bool kill = false;
  /// Injected latency before the replica search runs (0 = off); against a
  /// per-shard sub-deadline this is a deterministic shard latency spike.
  double latency_seconds = 0.0;
  /// The first N matching attempts fail (0 = off): a transient outage.
  int fail_first_n = 0;
  /// Flap storm: with period P > 0, attempts [P, 2P), [3P, 4P), ... fail
  /// while the interleaved windows succeed, so a replica keeps oscillating
  /// between serving and erroring (0 = off).
  int flap_period = 0;
};

struct ChaosPlan {
  /// The first N IVF searches fail with kUnavailable (0 = off). Each one
  /// drives its request onto the serving flat fallback.
  int ivf_fail_first_n = 0;
  /// Injected latency before every scan chunk (flat ADC chunks and IVF
  /// cells), simulating a slow machine so short deadlines expire
  /// deterministically mid-scan (0 = off).
  double scan_chunk_delay_seconds = 0.0;
  /// 0-based global scan-chunk index that fails with kUnavailable
  /// (-1 = off): a transient one-off compute fault.
  int64_t scan_fail_nth = -1;
  /// Per-replica fault rules for the cluster layer; first match wins.
  std::vector<ReplicaFault> replica_faults;
};

/// Counts of injections and hook visits since the last ArmChaos().
struct ChaosCounters {
  uint64_t ivf_searches = 0;
  uint64_t ivf_failures_injected = 0;
  uint64_t scan_chunks = 0;
  uint64_t scan_failures_injected = 0;
  uint64_t replica_searches = 0;
  uint64_t replica_failures_injected = 0;
};

void ArmChaos(const ChaosPlan& plan);
void DisarmChaos();
bool ChaosArmed();
ChaosCounters ChaosCountersSnapshot();

/// Hook at IVF search entry: counts the attempt and fails the first
/// `ivf_fail_first_n` of them. Blocks while HoldIvf(true) is in effect
/// (lets a test deterministically pin a request inside the IVF path).
Status ChaosOnIvfSearch();

/// Hook between scan chunks: injects the per-chunk delay and the one-shot
/// scan failure. No-op (and not counted) when chaos is disarmed.
Status ChaosOnScanChunk();

/// Hook at cluster replica-search entry: applies the first ReplicaFault
/// matching (shard, replica) — kill, latency spike, transient failures, or
/// flap storm. Per-rule attempt counters are global and reset on Arm.
/// No-op (and not counted) when chaos is disarmed.
Status ChaosOnReplicaSearch(size_t shard, size_t replica);

/// Gate for pinning requests inside the IVF path. HoldIvf(true) makes every
/// subsequent ChaosOnIvfSearch() block until HoldIvf(false); a blocked
/// search already counts in ChaosCounters::ivf_searches.
void HoldIvf(bool hold);

/// Deterministic pool starvation: occupies `threads` workers of `pool` with
/// tasks that block until Release() (or destruction). Lets a test saturate
/// a pool so admission control observes real backlog.
class PoolStarver {
 public:
  PoolStarver(ThreadPool* pool, size_t threads);
  ~PoolStarver();

  PoolStarver(const PoolStarver&) = delete;
  PoolStarver& operator=(const PoolStarver&) = delete;

  /// Unblocks the occupied workers; idempotent.
  void Release();

 private:
  struct Gate;
  std::shared_ptr<Gate> gate_;
  TaskGroup group_;
};

}  // namespace lightlt

#endif  // LIGHTLT_UTIL_CHAOS_H_
