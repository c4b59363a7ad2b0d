// IVF-ADC: inverted-file acceleration on top of the ADC index.
//
// The paper's LightLT scans all n items per query (O(dMK + nM), §IV-B).
// For larger databases, classical practice partitions the database with a
// coarse k-means quantizer and scans only the `nprobe` cells nearest to the
// query — the natural extension of the paper's efficiency story. Residual
// encoding composes naturally with LightLT: each item is stored as
// (cell id, DSQ codes of the item), and distances are computed with the
// same per-query lookup tables, restricted to probed cells.

#ifndef LIGHTLT_INDEX_IVF_INDEX_H_
#define LIGHTLT_INDEX_IVF_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/index/adc_index.h"
#include "src/tensor/matrix.h"
#include "src/util/deadline.h"
#include "src/util/status.h"

namespace lightlt::index {

struct IvfOptions {
  /// Number of coarse cells (k-means centroids).
  size_t num_cells = 64;
  /// Cells scanned per query.
  size_t nprobe = 8;
  /// Coarse-quantizer training iterations.
  int kmeans_iterations = 20;
  uint64_t seed = 0x1f5;

  Status Validate() const;
};

/// Inverted-file index over quantization codes: the coarse centroids plus
/// one AdcIndex built in cell order, whose block-aligned cells are the
/// inverted lists (DESIGN.md §12). Build with the database's *continuous*
/// embeddings (for the coarse quantizer) plus the same codebooks/codes an
/// AdcIndex would take.
class IvfAdcIndex {
 public:
  /// `embeddings` are the n continuous vectors (used only to train and
  /// assign the coarse quantizer); `codebooks`/`item_codes` mirror
  /// AdcIndex::Build.
  static Result<IvfAdcIndex> Build(
      const Matrix& embeddings, const std::vector<Matrix>& codebooks,
      const std::vector<std::vector<uint32_t>>& item_codes,
      const IvfOptions& options);

  /// Top-k search probing `nprobe` cells (option default; overridable per
  /// query with `nprobe_override` > 0). Returns original database ids.
  std::vector<SearchHit> Search(const float* query, size_t top_k,
                                size_t nprobe_override = 0) const;

  /// Control-aware Search: polls deadline/cancellation between scan chunks
  /// (a chunk never spans cells), and runs the chaos IVF hooks — an
  /// injected IVF failure surfaces here as kUnavailable, which the serving
  /// layer answers with a flat scan. On success, may still return fewer
  /// than top_k hits when the probed cells are short (caller degrades).
  Result<std::vector<SearchHit>> Search(const float* query, size_t top_k,
                                        const ScanControl& control,
                                        size_t nprobe_override) const;

  /// Search with hits in store slots (see AdcIndex::SearchSlots).
  Result<std::vector<SearchHit>> SearchSlots(const float* query,
                                             size_t top_k,
                                             const ScanControl& control,
                                             size_t nprobe_override) const;

  /// The store ranges a query probes, nearest cell first: the `nprobe`
  /// cells (or `nprobe_override` when > 0) SearchSlots scans, in its order.
  std::vector<SlotRange> Probes(const float* query,
                                size_t nprobe_override) const;

  /// Expected fraction of the database scanned per query (diagnostic; cell
  /// balance determines the real speedup over exhaustive ADC). Uses actual
  /// cell masses: for each cell, the mass of the nprobe cells nearest to its
  /// centroid, weighted by the probability a query lands there (approximated
  /// by the cell's own mass).
  double ExpectedScanFraction(size_t nprobe_override = 0) const;

  size_t num_items() const { return store_.num_items(); }
  size_t num_cells() const { return centroids_.rows(); }

  /// The cell-ordered code store. Searching it directly scans every cell —
  /// the exhaustive fallback over the same codes.
  const AdcIndex& store() const { return store_; }
  AdcIndex& store() { return store_; }

  /// Centroids + their norms + the store's exact bytes.
  size_t MemoryBytes() const;

  /// Versioned binary persistence (checksummed footer, atomic write).
  Status Save(const std::string& path) const;
  static Result<IvfAdcIndex> Load(const std::string& path);

  /// Registers `{prefix}scan_*` chunk telemetry plus `{prefix}probed_cells`
  /// and `{prefix}scanned_fraction` histograms, recorded per search (early
  /// returns included). The store's own flat-scan instruments are separate.
  /// Instruments are not persisted — call again after Load. Not
  /// thread-safe against in-flight searches; the registry must outlive the
  /// index.
  void Instrument(obs::MetricsRegistry* registry, const std::string& prefix);

 private:
  IvfAdcIndex() = default;

  IvfOptions options_;
  Matrix centroids_;                   // num_cells x d
  std::vector<float> centroid_norms_;  // ||centroid_c||^2, fixed at Build
  AdcIndex store_;                     // cell c = store_.cells_[c]
  /// Per-chunk telemetry plus probe-breadth histograms (DESIGN.md §10).
  ScanInstruments instruments_;
};

}  // namespace lightlt::index

#endif  // LIGHTLT_INDEX_IVF_INDEX_H_
