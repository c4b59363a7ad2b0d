// Sharded search building blocks (DESIGN.md §13).
//
// ReplicaSearcher is the single-partition search engine: one code store
// covering its partition — a flat ADC index, or the cell-ordered store of
// an IVF index — and the optional exact re-rank, with a per-request
// fallback (IVF → scan of every cell) and deterministic (distance, id)
// ordering. A ShardSet owns a grid of them;
// a single-node RetrievalService is the 1 x 1 grid.
//
// ShardSet partitions a database's rows into `num_shards` contiguous
// ranges and builds `num_replicas` independent ReplicaSearcher copies per
// shard, each with its own AdmissionController budget, so one hot or dead
// replica cannot take its siblings down. Search results come back in
// *global* database ids (partition offset + local id), ready for the
// Router's k-way merge. Per-replica chaos hooks (ChaosOnReplicaSearch)
// make kills, latency spikes and flap storms injectable per (shard,
// replica) pair.

#ifndef LIGHTLT_SERVING_SHARD_H_
#define LIGHTLT_SERVING_SHARD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/index/adc_index.h"
#include "src/index/ivf_index.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serving/admission.h"
#include "src/tensor/matrix.h"
#include "src/util/deadline.h"
#include "src/util/status.h"

namespace lightlt::serving {

/// Per-searcher configuration, shared by every replica of a ShardSet.
struct SearcherOptions {
  /// Candidate pool size fetched before re-ranking; 0 = exactly top_k.
  size_t rerank_pool = 0;
  /// Re-rank the candidate pool by exact distance to the reconstructions.
  bool exact_rerank = false;
  /// Use the IVF-accelerated index.
  bool use_ivf = false;
  index::IvfOptions ivf;
};

/// One partition's search engine over one code store: flat ADC, or IVF
/// whose store a flat fallback scans whole; optional exact re-rank. Moveable; not copyable.
class ReplicaSearcher {
 public:
  /// `embedded` is the partition's embedded vectors (rows of the database
  /// slice), `codebooks`/`codes` the DSQ artifacts for exactly those rows.
  static Result<ReplicaSearcher> Build(
      const Matrix& embedded, const std::vector<Matrix>& codebooks,
      const std::vector<std::vector<uint32_t>>& codes,
      const SearcherOptions& options);

  /// Candidate retrieval + rerank with graceful degradation: IVF first,
  /// and the flat scan of the same store whenever this request's IVF
  /// search fails (other than by deadline or cancel) or comes up short;
  /// deterministic (distance, id) order. `degraded` skips the optional work (IVF path,
  /// over-fetch, rerank). `used_fallback` (may be null) reports whether the
  /// flat scan served although IVF was enabled. Span names: ivf_route /
  /// adc_scan / rerank under `parent` when `trace` is non-null.
  Result<std::vector<index::SearchHit>> Search(const float* query,
                                               size_t top_k,
                                               const ScanControl& control,
                                               bool degraded,
                                               obs::Trace* trace,
                                               const obs::Span* parent,
                                               bool* used_fallback) const;

  /// Records scans into the registry's `adc_*` / `ivf_*` instruments and
  /// bumps `flat_fallbacks` whenever the flat scan serves although IVF was
  /// enabled. Call once after Build; the registry must outlive the scans.
  void Instrument(obs::MetricsRegistry* registry, obs::Counter* flat_fallbacks);

  size_t num_items() const { return store().num_items(); }
  size_t dim() const { return store().dim(); }
  /// Exactly the one index's bytes (the IVF index's when enabled).
  size_t MemoryBytes() const {
    return ivf_ ? ivf_->MemoryBytes() : adc_->MemoryBytes();
  }

 private:
  ReplicaSearcher() = default;

  /// The one code store: the IVF index's, else the flat index.
  const index::AdcIndex& store() const { return ivf_ ? ivf_->store() : *adc_; }

  SearcherOptions options_;
  std::unique_ptr<index::AdcIndex> adc_;  // null when IVF is enabled
  std::unique_ptr<index::IvfAdcIndex> ivf_;
  obs::Counter* flat_fallbacks_ = nullptr;  // null until instrumented
};

/// Configuration of a ShardSet grid.
struct ShardSetOptions {
  size_t num_shards = 1;
  size_t num_replicas = 1;
  SearcherOptions searcher;
  /// Per-replica admission budget (each replica gets its own controller,
  /// so a hot shard sheds without starving its siblings). Defaults admit
  /// everything.
  AdmissionOptions replica_admission;
};

/// Outcome of one replica search attempt, as the router needs to see it:
/// hits are in global database ids.
struct ReplicaAttempt {
  Status status;
  std::vector<index::SearchHit> hits;
  /// Seconds the attempt took (health latency signal).
  double latency_seconds = 0.0;
  /// The replica shed the request at its admission budget (kUnavailable
  /// with no health verdict about the replica's machinery).
  bool shed = false;
  /// IVF was enabled but the flat scan served (in-process replicas only).
  bool flat_fallback = false;
};

/// A grid of num_shards x num_replicas ReplicaSearchers over contiguous
/// row partitions of one embedded database.
class ShardSet {
 public:
  /// Partitions `embedded`/`codes` into contiguous shard ranges (the same
  /// floor-boundary split ParallelFor uses: shard s covers rows
  /// [s*n/S, (s+1)*n/S)) and builds every replica. All replicas of a shard
  /// hold independent index copies of the same partition.
  static Result<ShardSet> Build(const Matrix& embedded,
                                const std::vector<Matrix>& codebooks,
                                const std::vector<std::vector<uint32_t>>& codes,
                                const ShardSetOptions& options);

  /// One search attempt on (shard, replica): chaos hook → admission →
  /// ReplicaSearcher::Search, local ids translated to global. The search
  /// runs degraded when `control.degraded` or the replica's own admission
  /// says so. Never throws; all failure modes land in
  /// ReplicaAttempt::status.
  ReplicaAttempt SearchReplica(size_t shard, size_t replica,
                               const float* query, size_t top_k,
                               const ScanControl& control,
                               obs::Trace* trace,
                               const obs::Span* parent) const;

  size_t num_shards() const { return options_.num_shards; }
  size_t num_replicas() const { return options_.num_replicas; }
  /// First global row id of `shard`'s partition.
  size_t shard_offset(size_t shard) const { return offsets_[shard]; }
  /// Number of database rows in `shard`'s partition.
  size_t shard_items(size_t shard) const {
    return offsets_[shard + 1] - offsets_[shard];
  }
  size_t total_items() const { return offsets_.back(); }
  size_t MemoryBytes() const;

  const ReplicaSearcher& searcher(size_t shard, size_t replica) const {
    return *replicas_[shard * options_.num_replicas + replica];
  }

  /// Instruments every replica (ReplicaSearcher::Instrument): the grid's
  /// scans share one set of `adc_*` / `ivf_*` instruments, so names and
  /// drift watches are the same at any shard count.
  void Instrument(obs::MetricsRegistry* registry, obs::Counter* flat_fallbacks);

 private:
  ShardSet() = default;

  ShardSetOptions options_;
  /// num_shards + 1 partition boundaries (offsets_[0] == 0).
  std::vector<size_t> offsets_;
  /// Row-major [shard * num_replicas + replica]. unique_ptr so the set is
  /// moveable while searchers stay address-stable.
  std::vector<std::unique_ptr<ReplicaSearcher>> replicas_;
  /// One admission controller per replica, same layout. shared_ptr so
  /// callback gauges may co-own them later.
  std::vector<std::shared_ptr<AdmissionController>> admissions_;
};

}  // namespace lightlt::serving

#endif  // LIGHTLT_SERVING_SHARD_H_
