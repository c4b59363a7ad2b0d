// Lock-cheap metrics primitives (DESIGN.md §10).
//
// Three metric kinds, all safe to touch from scan loops and worker threads:
//  * Counter — monotonically increasing, sharded across cache lines so the
//    hot path pays one relaxed fetch_add with no cross-core contention.
//  * Gauge — a point-in-time double (set/add); callback gauges are read at
//    render time (replica health, queue depth).
//  * Histogram — log-bucketed (factor-2 octaves split into 4 sub-buckets,
//    ~19% relative resolution) with sharded bucket counters; Snapshot()
//    merges shards and answers p50/p95/p99 with bucket-bound guarantees:
//    Quantile(q) returns the upper bound of the bucket holding rank q, so
//    the true rank value lies in [bound / BucketRatio(), bound).
//
// A MetricsRegistry names and owns metrics. Names follow the
// `<layer>_<noun>_<unit>[_total]` scheme with optional Prometheus-style
// labels embedded in the name (`serving_requests_total{outcome="served"}`);
// the registry treats the full labelled string as the key and groups
// `# TYPE` lines by base name in RenderText(). RenderJsonl() emits one JSON
// object per metric so tools/ and bench/ can diff runs.

#ifndef LIGHTLT_OBS_METRICS_H_
#define LIGHTLT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace lightlt::obs {

/// Adds `delta` to an atomic double with a CAS loop (fetch_add on
/// atomic<double> is not yet portable across the toolchains we build with).
inline void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
  }
}

/// Returns a small stable shard slot for the calling thread.
size_t ThisThreadShard();

/// Monotonic counter, sharded so concurrent writers on different cores do
/// not bounce one cache line. Value() sums the shards (exact: every
/// increment lands in exactly one shard).
class Counter {
 public:
  static constexpr size_t kShards = 8;

  void Increment(uint64_t n = 1) {
    shards_[ThisThreadShard() % kShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Point-in-time value. Set/Add are relaxed; last writer wins on Set.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) { AtomicAddDouble(&value_, delta); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Merged point-in-time view of a Histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  /// counts[i] observations fell in
  /// [Histogram::BucketLowerBound(i), Histogram::BucketUpperBound(i)).
  std::vector<uint64_t> counts;

  double Mean() const { return count == 0 ? 0.0 : sum / count; }

  /// Upper bucket bound of the observation at rank ceil(q * count); the
  /// true value lies within one bucket ratio below the returned bound.
  /// 0 when empty.
  double Quantile(double q) const;

  /// The observations recorded between `earlier` and this snapshot of the
  /// same cumulative histogram — windowed quantiles and drift detection
  /// work off two cumulative snapshots without a second histogram.
  /// Underflow-guarded: bucket counts subtract saturating at 0 and the sum
  /// is floored at 0, so snapshots taken while shards were mid-merge (or
  /// accidentally swapped operands) yield an empty-ish window instead of
  /// wrapped 2^64 counts. `count` is recomputed from the guarded buckets.
  HistogramSnapshot Delta(const HistogramSnapshot& earlier) const;

  /// Layout-checked merge: adds `other`'s buckets, count and sum into this
  /// snapshot. Merging into an empty (bucketless) snapshot adopts `other`'s
  /// layout, so a zero-initialised accumulator works; otherwise the bucket
  /// vectors must have identical length (same kSubBuckets/exponent-range
  /// build) — a mismatch is kInvalidArgument and leaves this snapshot
  /// untouched. The fleet collector folds per-shard snapshots with this,
  /// and conservation is exact: merged counts equal the element-wise sum.
  Status MergeFrom(const HistogramSnapshot& other);
};

inline HistogramSnapshot operator-(const HistogramSnapshot& later,
                                   const HistogramSnapshot& earlier) {
  return later.Delta(earlier);
}

/// Log-bucketed histogram of non-negative doubles (typically seconds).
/// Record() is one relaxed fetch_add on a sharded bucket plus a relaxed
/// CAS for the running sum — cheap enough for per-chunk scan telemetry,
/// never used per vector.
class Histogram {
 public:
  /// 4 sub-buckets per power-of-two octave: relative bucket width
  /// 2^(1/4) ~= 1.19.
  static constexpr int kSubBuckets = 4;
  /// Finite range ~[2^-20, 2^20) ~= [1e-6, 1e6] — microseconds to days
  /// when recording seconds. Out-of-range values land in the clamp
  /// buckets at either end.
  static constexpr int kMinExponent = -20;
  static constexpr int kMaxExponent = 20;
  static constexpr size_t kNumBuckets =
      static_cast<size_t>(kMaxExponent - kMinExponent) * kSubBuckets + 2;
  /// Upper/lower bound ratio of every finite bucket.
  static double BucketRatio();

  void Record(double value);

  /// Bucket index a value falls into (values <= 0 go to bucket 0).
  static size_t BucketIndex(double value);
  /// Exclusive upper bound of bucket i (+inf for the overflow bucket).
  static double BucketUpperBound(size_t i);
  /// Inclusive lower bound of bucket i (0 for the underflow bucket).
  static double BucketLowerBound(size_t i);

  HistogramSnapshot Snapshot() const;

 private:
  static constexpr size_t kShards = 4;
  struct alignas(64) Shard {
    std::atomic<uint64_t> counts[kNumBuckets] = {};
    std::atomic<double> sum{0.0};
  };
  Shard shards_[kShards];
};

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote and newline become \\, \" and \n.
std::string EscapeLabelValue(const std::string& value);

/// Builds `base{key="value"}` — the labelled-name convention the registry
/// keys on. `value` is escaped here, so the registry key is already valid
/// exposition text and RenderText can emit names verbatim.
std::string WithLabel(const std::string& base, const std::string& key,
                      const std::string& value);

/// Adds one label to a possibly-already-labelled name:
/// `base` → `base{key="value"}`, `base{a="b"}` → `base{a="b",key="value"}`.
/// The fleet collector uses this to re-export remote series under
/// shard=/replica= labels without parsing the original label block.
std::string AddLabel(const std::string& name, const std::string& key,
                     const std::string& value);

/// Structured point-in-time dump of a whole registry — the payload of the
/// metrics admin frame (DESIGN.md §15). Callback gauges are evaluated into
/// plain gauge samples; histograms keep full bucket vectors so a collector
/// can merge them exactly (RenderText alone loses the buckets).
struct RegistrySnapshot {
  struct CounterSample {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    HistogramSnapshot snapshot;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;          ///< includes callback gauges
  std::vector<HistogramSample> histograms;
};

/// Named metric owner. Get* registers on first use and returns a stable
/// pointer — callers cache it and never pay the registry lock again.
/// Thread-safe; metrics live as long as the registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Sets the `# HELP` text RenderText emits for a base (unlabelled) name.
  /// Metrics without explicit help get a generic line — the exposition
  /// format wants every family documented, even tersely.
  void SetHelp(const std::string& base_name, const std::string& help);

  /// A gauge whose value is computed at render/snapshot time (e.g. replica
  /// health). The callback must be safe to invoke from any thread for the
  /// registry's lifetime; re-registering a name replaces the callback.
  void RegisterCallbackGauge(const std::string& name,
                             std::function<double()> fn);

  /// Prometheus text exposition: counters, gauges, and summary-style
  /// histograms (quantile lines + _sum/_count), sorted by name. Conformant
  /// with the exposition format: every family gets `# HELP` and `# TYPE`
  /// lines, and counter sample names carry the `_total` suffix (appended
  /// here, before the label block, when the registered name lacks it —
  /// snapshots and JSONL keep the registered name, so the wire payload and
  /// fleet merges are unaffected).
  std::string RenderText() const;

  /// Structured dump: every counter/gauge value plus full histogram
  /// snapshots, each group sorted by name (callback gauges are evaluated
  /// here and appended after the plain gauges).
  RegistrySnapshot Snapshot() const;

  /// One JSON object per line per metric — machine-readable dump for
  /// diffing runs (tools/bench_smoke.sh).
  std::string RenderJsonl() const;

  /// Appends RenderJsonl() to `path` (creating it if needed).
  Status WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<double()>> callback_gauges_;
  std::map<std::string, std::string> help_;  ///< base name -> HELP text
};

}  // namespace lightlt::obs

#endif  // LIGHTLT_OBS_METRICS_H_
