// Online quality monitoring (DESIGN.md §11): the primitives the serving
// layer uses to watch *retrieval quality* — not just latency — in
// production.
//
//  * StreamingRecallEstimator — aggregates shadow-verification outcomes
//    (how many of the exact top-k the approximate path returned) into
//    recall proportions with Wilson score confidence intervals, segmented
//    by head/mid/tail class-frequency bucket. Lock-free: shadow tasks on
//    pool workers feed it with relaxed atomics.
//  * PopulationStabilityIndex / DriftDetector — compares windowed
//    HistogramSnapshot deltas of live telemetry (scanned fraction, probed
//    cells, codebook utilization) against a frozen baseline distribution,
//    with hysteresis so one noisy window cannot flap an alert.
//  * SlowQueryLog — a bounded ring of "explain" records (span tree, scan
//    accounting, degraded/fallback flags, shadow recall) for queries past
//    a latency or recall-miss threshold, dumpable as JSONL.

#ifndef LIGHTLT_OBS_QUALITY_H_
#define LIGHTLT_OBS_QUALITY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/deadline.h"
#include "src/util/status.h"

namespace lightlt::obs {

/// Wilson score interval for a binomial proportion — well-behaved at small
/// n and at proportions near 0/1, unlike the normal approximation.
struct WilsonInterval {
  double center = 0.0;  ///< point estimate successes / trials
  double lower = 0.0;
  double upper = 1.0;
};

/// `z` is the normal quantile of the desired confidence (1.96 ~ 95%).
/// Zero trials yield the vacuous [0, 1] interval.
WilsonInterval WilsonScore(uint64_t successes, uint64_t trials,
                           double z = 1.96);

/// Segments of the streaming recall estimate: the aggregate plus the
/// paper's head/mid/tail class-frequency thirds (eval::HeadMidTailBuckets).
constexpr size_t kNumRecallSegments = 4;

/// "overall", "head", "mid", "tail".
const char* RecallSegmentName(size_t segment);

/// Streaming recall@k estimator fed by shadow verification. Each sampled
/// query contributes `trials` Bernoulli slots (the exact top-k) of which
/// `successes` were present in the served result; the aggregate proportion
/// is recall@k with a Wilson interval. Thread-safe and lock-free.
class StreamingRecallEstimator {
 public:
  explicit StreamingRecallEstimator(double z = 1.96) : z_(z) {}

  /// `class_bucket` is the query's head/mid/tail bucket (0/1/2) or -1 when
  /// unknown — the observation always also lands in the overall segment.
  void Add(int class_bucket, uint64_t successes, uint64_t trials);

  struct SegmentSnapshot {
    uint64_t queries = 0;
    uint64_t successes = 0;
    uint64_t trials = 0;
    WilsonInterval recall;
  };
  SegmentSnapshot Snapshot(size_t segment) const;

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> successes{0};
    std::atomic<uint64_t> trials{0};
  };
  Cell cells_[kNumRecallSegments];
  double z_;
};

/// PSI between two count distributions over the same bucket layout:
/// sum_i (q_i - p_i) * ln(q_i / p_i) with probabilities clamped at
/// `floor_probability` so empty buckets stay finite. Conventional reading:
/// < 0.1 stable, 0.1-0.25 moderate shift, > 0.25 significant drift.
double PopulationStabilityIndex(const HistogramSnapshot& expected,
                                const HistogramSnapshot& observed,
                                double floor_probability = 1e-6);

/// Per-watch drift thresholds with hysteresis.
struct DriftWatchOptions {
  double psi_fire = 0.25;   ///< window PSI at/above this counts a strike
  double psi_clear = 0.10;  ///< PSI at/below this clears strikes and alerts
  int consecutive = 2;      ///< strikes in a row before the alert fires
  /// Windows with fewer observations are skipped (kept accumulating), so
  /// idle periods cannot produce all-noise PSI values.
  uint64_t min_window_count = 50;
};

/// Watches named live histograms for distribution drift against a frozen
/// baseline. Typical wiring: add watches over `ivf_scanned_fraction`,
/// `ivf_probed_cells` and per-stage DSQ utilization histograms, freeze the
/// baseline after a known-good warmup window, then CheckAll() on a scrape
/// cadence. Alert transitions are logged and counted; per-watch PSI and
/// alert state surface as plain gauges (`{prefix}psi{watch=...}`,
/// `{prefix}active{watch=...}`) owned by the registry.
class DriftDetector {
 public:
  struct Options {
    /// Structured-log sink for fire/clear events (null = silent).
    Logger* logger = nullptr;
    /// Optional gauge surface; must outlive the detector's CheckAll calls.
    MetricsRegistry* registry = nullptr;
    std::string metric_prefix = "drift_";
  };
  DriftDetector() : DriftDetector(Options{}) {}
  explicit DriftDetector(Options options);

  DriftDetector(const DriftDetector&) = delete;
  DriftDetector& operator=(const DriftDetector&) = delete;

  /// Starts accumulating `live` (cumulative) into the named watch. The
  /// histogram must outlive the detector.
  void AddWatch(const std::string& name, const Histogram* live,
                const DriftWatchOptions& options = {});

  /// Freezes the traffic observed since AddWatch (or the previous freeze)
  /// as the watch's baseline distribution. Returns false when the window
  /// is empty or the watch is unknown.
  bool FreezeBaseline(const std::string& name);

  /// Evaluates every watch's window-since-last-check against its baseline,
  /// advancing hysteresis state and emitting alert transitions.
  void CheckAll();

  bool Drifted(const std::string& name) const;
  double LastPsi(const std::string& name) const;
  /// Total quiet→drifted transitions across all watches.
  uint64_t fire_count() const;

 private:
  struct Watch {
    const Histogram* live = nullptr;
    DriftWatchOptions options;
    HistogramSnapshot baseline;
    HistogramSnapshot cursor;  ///< cumulative state at the last window cut
    bool has_baseline = false;
    double last_psi = 0.0;
    int strikes = 0;
    bool drifted = false;
  };

  Options options_;
  mutable std::mutex mu_;
  std::map<std::string, Watch> watches_;
  uint64_t fire_count_ = 0;
};

/// One request's resource vector and lifecycle flags (DESIGN.md §16): the
/// "explain" part of a slow-query record, and what RequestOptions::cost
/// receives. It explains *what the request cost*, not only how long it
/// took.
struct ExplainRecord {
  /// Scan accounting, summed over the shards that scanned.
  ScanStats scan;
  uint64_t cpu_ns = 0;        ///< serving-thread CPU time for the request
  bool degraded = false;      ///< admitted in degraded mode
  bool flat_fallback = false; ///< IVF path failed/short; flat scan served
  /// Fan-out attribution: fraction of database rows behind the answer,
  /// shards that answered, and replica attempts beyond the first across
  /// all shards.
  double coverage = 1.0;
  uint32_t shards_answered = 0;
  uint32_t failovers = 0;
};

struct SlowQueryRecord {
  uint64_t id = 0;  ///< assigned by the log, monotonically increasing
  std::string kind;     ///< "latency" or "recall_miss"
  std::string outcome;  ///< terminal status: "ok" or a StatusCode name
  /// Id of the request's trace (0 = untraced) so a slow-query record joins
  /// against trace dumps and trace-stamped log lines by grep.
  uint64_t trace_id = 0;
  double latency_seconds = 0.0;
  double recall = -1.0;  ///< shadow recall@k, -1 when not sampled
  ExplainRecord explain;
  /// Full span tree of the request when tracing was active for it —
  /// including stitched remote subtrees, whose records carry shard
  /// attribution (SpanRecord::shard/remote).
  std::vector<Trace::SpanRecord> spans;
};

/// Bounded ring of slow-query records. Thread-safe; overwrites the oldest
/// record when full (counted, never silent).
class SlowQueryLog {
 public:
  struct Options {
    size_t capacity = 64;
    /// Served/failed queries at/above this latency are captured
    /// (0 = latency capture off; recall misses are pushed explicitly).
    double latency_threshold_seconds = 0.0;
  };
  explicit SlowQueryLog(const Options& options);

  /// Stores `record` (assigning its id), evicting the oldest when full.
  void Add(SlowQueryRecord record);

  /// Oldest-to-newest copy of the ring.
  std::vector<SlowQueryRecord> Snapshot() const;

  uint64_t captured_count() const;
  uint64_t evicted_count() const;
  const Options& options() const { return options_; }

  /// One JSON object per record, spans inlined as an array.
  std::string RenderJsonl() const;
  /// Appends RenderJsonl() to `path`.
  Status DumpJsonl(const std::string& path) const;

 private:
  Options options_;
  mutable std::mutex mu_;
  std::vector<SlowQueryRecord> ring_;  ///< insertion ring, size <= capacity
  size_t next_slot_ = 0;
  uint64_t next_id_ = 0;
  uint64_t evicted_ = 0;
};

}  // namespace lightlt::obs

#endif  // LIGHTLT_OBS_QUALITY_H_
