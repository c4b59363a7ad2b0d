#include "src/serving/shard.h"

#include <algorithm>
#include <span>
#include <utility>

#include "src/obs/profile.h"
#include "src/util/chaos.h"
#include "src/util/check.h"
#include "src/util/timer.h"

namespace lightlt::serving {
namespace {

/// Rerank hits checked this often against the request deadline/token.
constexpr size_t kRerankCheckEvery = 64;

}  // namespace

Result<ReplicaSearcher> ReplicaSearcher::Build(
    const Matrix& embedded, const std::vector<Matrix>& codebooks,
    const std::vector<std::vector<uint32_t>>& codes,
    const SearcherOptions& options) {
  if (embedded.rows() == 0) {
    return Status::InvalidArgument("ReplicaSearcher: empty partition");
  }
  if (embedded.rows() != codes.size()) {
    return Status::InvalidArgument(
        "ReplicaSearcher: embedded rows / codes count mismatch");
  }
  ReplicaSearcher searcher;
  searcher.options_ = options;
  if (options.use_ivf) {
    auto ivf =
        index::IvfAdcIndex::Build(embedded, codebooks, codes, options.ivf);
    if (!ivf.ok()) return ivf.status();
    searcher.ivf_ =
        std::make_unique<index::IvfAdcIndex>(std::move(ivf).value());
    return searcher;
  }
  auto adc = index::AdcIndex::Build(codebooks, codes);
  if (!adc.ok()) return adc.status();
  searcher.adc_ = std::make_unique<index::AdcIndex>(std::move(adc).value());
  return searcher;
}

void ReplicaSearcher::Instrument(obs::MetricsRegistry* registry,
                                 obs::Counter* flat_fallbacks) {
  flat_fallbacks_ = flat_fallbacks;
  if (ivf_ == nullptr) return adc_->Instrument(registry, "adc_");
  // The fallback scans the IVF store whole; it reports as a flat scan.
  ivf_->store().Instrument(registry, "adc_");
  ivf_->Instrument(registry, "ivf_");
}

Result<std::vector<index::SearchHit>> ReplicaSearcher::Search(
    const float* query, size_t top_k, const ScanControl& control,
    bool degraded, obs::Trace* trace, const obs::Span* parent,
    bool* used_fallback) const {
  // Degraded requests shed the optional work: no over-fetch, no exact
  // rerank, and the flat scan instead of the IVF path.
  const bool rerank = options_.exact_rerank && !degraded;
  const size_t pool = std::max(top_k, rerank ? options_.rerank_pool : top_k);

  // Hits stay in store slots until the re-rank has reconstructed them.
  const index::AdcIndex& codes = store();
  std::vector<index::SearchHit> hits;
  bool have_hits = false;
  if (ivf_ != nullptr && !degraded) {
    obs::Span ivf_span = obs::MaybeSpan(trace, "ivf_route", parent);
    // Graceful degradation: the store covers the whole partition, so if
    // the IVF path fails or its probed cells yield fewer candidates than a
    // scan of every cell would, fall back rather than fail or silently
    // shortchange the caller. A deadline or cancel ends the request
    // instead: the budget is spent either way.
    auto ivf_hits = ivf_->SearchSlots(query, pool, control, /*nprobe=*/0);
    if (ivf_hits.ok()) {
      if (ivf_hits.value().size() >= std::min(pool, codes.num_items())) {
        hits = std::move(ivf_hits).value();
        have_hits = true;
      }
    } else if (ivf_hits.status().code() == StatusCode::kDeadlineExceeded ||
               ivf_hits.status().code() == StatusCode::kCancelled) {
      return ivf_hits.status();
    }
    if (!have_hits) {
      if (flat_fallbacks_ != nullptr) flat_fallbacks_->Increment();
      if (used_fallback != nullptr) *used_fallback = true;
    }
  }
  if (!have_hits) {
    obs::Span scan_span = obs::MaybeSpan(trace, "adc_scan", parent);
    auto flat = codes.SearchSlots(query, pool, control);
    if (!flat.ok()) return flat.status();
    hits = std::move(flat).value();
  }

  if (rerank) {
    obs::Span rerank_span = obs::MaybeSpan(trace, "rerank", parent);
    obs::ProfilePhase rerank_phase("rerank");
    // Re-rank the pool by exact distance to the reconstructions: the ADC
    // score already is that distance up to a query-constant, so re-ranking
    // only matters when the candidate pool came from a lossier path (IVF
    // probing) or a future approximate scorer; it is cheap either way.
    // One kernel call per piece of kRerankCheckEvery hits, the control
    // polled before each.
    float distances[kRerankCheckEvery] = {};
    for (size_t begin = 0; begin < hits.size(); begin += kRerankCheckEvery) {
      if (!control.Trivial()) LIGHTLT_RETURN_IF_ERROR(control.Check());
      const size_t count = std::min(kRerankCheckEvery, hits.size() - begin);
      codes.ReconstructionDistances(
          query, std::span<const index::SearchHit>(hits).subspan(begin, count),
          distances);
      for (size_t i = 0; i < count; ++i) {
        hits[begin + i].distance = distances[i];
      }
    }
  }
  codes.ToStoredIds(&hits);
  if (rerank) {
    // (distance, id) is a total order over distinct ids, so sorting only
    // the first top_k gives the head a full sort would.
    const size_t keep = std::min(top_k, hits.size());
    std::partial_sort(hits.begin(), hits.begin() + keep, hits.end(),
                      [](const index::SearchHit& a, const index::SearchHit& b) {
                        return a.distance < b.distance ||
                               (a.distance == b.distance && a.id < b.id);
                      });
  }

  if (hits.size() > top_k) hits.resize(top_k);
  return hits;
}

Result<ShardSet> ShardSet::Build(
    const Matrix& embedded, const std::vector<Matrix>& codebooks,
    const std::vector<std::vector<uint32_t>>& codes,
    const ShardSetOptions& options) {
  const size_t n = embedded.rows();
  const size_t shards = options.num_shards;
  if (shards == 0 || options.num_replicas == 0) {
    return Status::InvalidArgument(
        "ShardSet: need at least one shard and one replica");
  }
  if (n < shards) {
    return Status::InvalidArgument(
        "ShardSet: fewer database rows than shards");
  }
  if (codes.size() != n) {
    return Status::InvalidArgument(
        "ShardSet: embedded rows / codes count mismatch");
  }

  ShardSet set;
  set.options_ = options;
  // Contiguous floor-boundary partition, the same deterministic split
  // ParallelFor uses: shard s covers [s*n/S, (s+1)*n/S).
  set.offsets_.resize(shards + 1);
  for (size_t s = 0; s <= shards; ++s) set.offsets_[s] = (n * s) / shards;

  set.replicas_.reserve(shards * options.num_replicas);
  set.admissions_.reserve(shards * options.num_replicas);
  const auto build_replicas =
      [&](const Matrix& part,
          const std::vector<std::vector<uint32_t>>& part_codes) -> Status {
    for (size_t r = 0; r < options.num_replicas; ++r) {
      // Replicas are deliberately independent copies — index and
      // admission budget — so per-replica failure injection and health
      // verdicts model real isolated processes.
      auto searcher =
          ReplicaSearcher::Build(part, codebooks, part_codes, options.searcher);
      if (!searcher.ok()) return searcher.status();
      set.replicas_.push_back(std::make_unique<ReplicaSearcher>(
          std::move(searcher).value()));
      set.admissions_.push_back(
          std::make_shared<AdmissionController>(options.replica_admission));
    }
    return Status::Ok();
  };
  // One shard covers the whole database: build from it without copying.
  if (shards == 1) {
    LIGHTLT_RETURN_IF_ERROR(build_replicas(embedded, codes));
    return set;
  }
  for (size_t s = 0; s < shards; ++s) {
    const size_t begin = set.offsets_[s];
    const size_t rows = set.offsets_[s + 1] - begin;
    Matrix part(rows, embedded.cols());
    std::copy(embedded.row(begin), embedded.row(begin) + rows * embedded.cols(),
              part.data());
    const std::vector<std::vector<uint32_t>> part_codes(
        codes.begin() + static_cast<ptrdiff_t>(begin),
        codes.begin() + static_cast<ptrdiff_t>(begin + rows));
    LIGHTLT_RETURN_IF_ERROR(build_replicas(part, part_codes));
  }
  return set;
}

ReplicaAttempt ShardSet::SearchReplica(size_t shard, size_t replica,
                                       const float* query, size_t top_k,
                                       const ScanControl& control,
                                       obs::Trace* trace,
                                       const obs::Span* parent) const {
  LIGHTLT_CHECK(shard < options_.num_shards);
  LIGHTLT_CHECK(replica < options_.num_replicas);
  const size_t flat = shard * options_.num_replicas + replica;
  ReplicaAttempt attempt;
  WallTimer timer;

  // Chaos first: a killed replica fails every request before its admission
  // or index sees it, exactly like a dead process behind a socket.
  Status chaos = ChaosOnReplicaSearch(shard, replica);
  if (!chaos.ok()) {
    attempt.latency_seconds = timer.ElapsedSeconds();
    attempt.status = std::move(chaos);
    return attempt;
  }
  // Entry budget check: a small partition's scan may finish inside one
  // chunk without ever polling the control, so an attempt that burned its
  // sub-deadline in the chaos hook (an injected latency spike standing in
  // for a slow network or replica) must observe the expiry here.
  if (!control.Trivial()) {
    Status entry = control.Check();
    if (!entry.ok()) {
      attempt.latency_seconds = timer.ElapsedSeconds();
      attempt.status = std::move(entry);
      return attempt;
    }
  }

  const AdmissionOutcome outcome = admissions_[flat]->TryAdmit();
  if (outcome == AdmissionOutcome::kShed) {
    attempt.latency_seconds = timer.ElapsedSeconds();
    attempt.shed = true;
    attempt.status =
        Status::Unavailable("ShardSet: replica admission shed the request");
    return attempt;
  }
  AdmissionTicket ticket(admissions_[flat].get());
  const bool degraded =
      control.degraded || outcome == AdmissionOutcome::kDegrade;

  auto result = replicas_[flat]->Search(query, top_k, control, degraded,
                                        trace, parent, &attempt.flat_fallback);
  attempt.latency_seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    attempt.status = result.status();
    return attempt;
  }
  attempt.hits = std::move(result).value();
  // Local partition ids → global database ids.
  const uint32_t offset = static_cast<uint32_t>(offsets_[shard]);
  for (index::SearchHit& hit : attempt.hits) hit.id += offset;
  return attempt;
}

size_t ShardSet::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& replica : replicas_) bytes += replica->MemoryBytes();
  return bytes;
}

void ShardSet::Instrument(obs::MetricsRegistry* registry,
                          obs::Counter* flat_fallbacks) {
  for (auto& replica : replicas_) replica->Instrument(registry, flat_fallbacks);
}

}  // namespace lightlt::serving
