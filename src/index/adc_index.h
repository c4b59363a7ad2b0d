// Asymmetric-distance-computation (ADC) index over additive quantization
// codes — the inference path of LightLT (paper §IV, Eqn. 24, Fig. 3).
//
// The index stores, per item: M codeword IDs plus the squared norm of the
// reconstruction (4 bytes). At query time we build an (M x K) lookup table
// of <q, codeword> inner products in O(dMK), then score every item with M
// table lookups.
//
// It is the one code store of a replica (DESIGN.md §12): items live in
// *slots*, the codes in the blocked fast-scan layout (K <= 256) or bit-packed
// (K > 256). A flat index stores item i in slot i. An IVF index builds its
// store in cell order — every cell a block-aligned run of slots — with a
// slot -> id map, and searches a few cells through the same scan routine a
// flat search uses over all of them.

#ifndef LIGHTLT_INDEX_ADC_INDEX_H_
#define LIGHTLT_INDEX_ADC_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/index/codes.h"
#include "src/index/kernels/scan_kernels.h"
#include "src/obs/metrics.h"
#include "src/tensor/matrix.h"
#include "src/util/deadline.h"
#include "src/util/status.h"
#include "src/util/threadpool.h"

namespace lightlt::index {

/// A (database id, squared distance) search hit.
struct SearchHit {
  uint32_t id;
  float distance;
};

/// Telemetry handles for a scan hot path (DESIGN.md §10). All-null by
/// default: an uninstrumented index pays one branch per chunk and nothing
/// per vector. When wired to a registry, each scan chunk costs one clock
/// read and one histogram record (chunk timestamps are chained), and the
/// counters are added once per scan — never any per-vector work or
/// locking.
struct ScanInstruments {
  obs::Counter* chunks = nullptr;          ///< scan chunks executed
  obs::Counter* items = nullptr;           ///< vectors scored
  /// Scans stopped mid-flight by deadline/cancellation — each such stop
  /// overshot its budget by up to one chunk of work (§9).
  obs::Counter* overshoot = nullptr;
  obs::Histogram* chunk_seconds = nullptr; ///< per-chunk scoring time
  /// Probe breadth of IVF scans: ranges fully scanned, and the scanned
  /// share of the store. Recorded on early returns too. Null on flat scans.
  obs::Histogram* probed_cells = nullptr;
  obs::Histogram* scanned_fraction = nullptr;

  bool enabled() const { return chunks != nullptr; }

  /// Wires the handles to `{prefix}scan_*` metrics in `registry`.
  void Register(obs::MetricsRegistry* registry, const std::string& prefix);
};

/// A run of slots [begin, end) whose codes start at block `first_block` of
/// the blocked array. IVF cells are such ranges; a flat search is one range
/// over every slot.
struct SlotRange {
  uint32_t begin = 0;
  uint32_t end = 0;
  uint32_t first_block = 0;
};

/// ADC index: codebooks + one code store + per-item reconstruction norms.
class AdcIndex {
 public:
  /// Builds from `codebooks` (M matrices of K x d) and per-item codes
  /// (codes[i][m] in [0, K)). Item i goes to slot i. Reconstruction norms
  /// are computed here.
  static Result<AdcIndex> Build(
      const std::vector<Matrix>& codebooks,
      const std::vector<std::vector<uint32_t>>& item_codes);

  /// Fills `scores[id]` with the (exact, up to quantization) squared
  /// distance ||q - o_id||^2 - ||q||^2 + const... specifically
  /// `||o_id||^2 - 2 <q, o_id>`, which ranks identically to the full
  /// squared distance for a fixed query. O(dMK + nM).
  void ComputeScores(const float* query, std::vector<float>* scores) const;

  /// Returns the top_k nearest items by ADC distance (ascending; equal
  /// distances break by ascending id), exactly as an exhaustive float scan
  /// ranks them (DESIGN.md §12). An injected chaos fault yields no hits.
  std::vector<SearchHit> Search(const float* query, size_t top_k) const;

  /// Control-aware Search: kDeadlineExceeded / kCancelled when the scan is
  /// stopped mid-flight, kUnavailable for an injected transient fault.
  Result<std::vector<SearchHit>> Search(const float* query, size_t top_k,
                                        const ScanControl& control) const;

  /// Search with hits in *slots* (`id` holds the slot), ordered by
  /// (distance, stored id): the serving layer re-ranks by slot, then maps
  /// the hits with ToStoredIds.
  Result<std::vector<SearchHit>> SearchSlots(const float* query, size_t top_k,
                                             const ScanControl& control) const;

  /// Rewrites slot ids in `hits` to stored ids.
  void ToStoredIds(std::vector<SearchHit>* hits) const;

  /// Name of the scan kernel Search uses ("off" = exact float scorer).
  const char* scan_kernel_name() const { return scan_kernel_.name; }

  /// Every stored id, nearest first (for MAP evaluation).
  std::vector<uint32_t> RankAll(const float* query) const;

  /// Per-query lookup tables lut[cb*K + j] = <q, C_cb[j]>, each a
  /// DenseProduct dot (k-order sum, no FMA). O(dMK).
  std::vector<float> BuildLookupTables(const float* query) const;

  /// Reconstructs the item in `slot` as the sum of its selected codewords.
  Matrix Reconstruct(size_t slot) const;

  /// out[i] = ‖query − o‖² for the item o in slot hits[i].id: the
  /// ReconstructionDistances kernel over every hit in one call, with the
  /// same bits as summing Reconstruct(slot) and the squared differences in
  /// order (DESIGN.md §17).
  void ReconstructionDistances(const float* query,
                               std::span<const SearchHit> hits,
                               float* out) const;

  size_t num_items() const { return norms_.size(); }
  size_t num_codebooks() const { return codebooks_.size(); }
  size_t num_codewords() const {
    return codebooks_.empty() ? 0 : codebooks_[0].rows();
  }
  size_t dim() const { return codebooks_.empty() ? 0 : codebooks_[0].cols(); }

  /// Exact bytes held: 4KMd (codebooks) + the code store (blocked with
  /// block padding, or packed for K > 256) + 4n (norms), plus for a
  /// cell-ordered store 4n of ids and the cell table — the space-complexity
  /// expression of §IV-A.
  size_t MemoryBytes() const;

  /// Theoretical per-query distance-computation cost in fused
  /// multiply-adds: dMK (lookup tables) + nM (scoring), §IV-B.
  size_t TheoreticalQueryOps() const;

  /// Flat-index persistence (ADC v3); a cell-ordered store is saved by its
  /// IVF index.
  Status Save(const std::string& path) const;
  static Result<AdcIndex> Load(const std::string& path);

  /// Registers `{prefix}scan_*` metrics and records flat scans into them.
  /// Call once after Build/Load (not thread-safe against in-flight scans);
  /// the registry must outlive the index.
  void Instrument(obs::MetricsRegistry* registry, const std::string& prefix);

 private:
  friend class IvfAdcIndex;  // builds, persists and probes a cell store

  AdcIndex() = default;

  /// Shared Build. With `cells` (K <= 256), cell c holds the items
  /// `(*cells)[c]` (ids into `item_codes`) in consecutive slots from a
  /// block boundary, and those ids become the stored ids.
  static Result<AdcIndex> BuildStore(
      const std::vector<Matrix>& codebooks,
      const std::vector<std::vector<uint32_t>>& item_codes,
      const std::vector<std::vector<uint32_t>>* cells);

  /// Fills the cell table for `cell_sizes`, each cell starting on a block
  /// boundary. Returns the number of blocks the cells span.
  size_t LayOutCells(const std::vector<size_t>& cell_sizes);

  /// Every slot of the store as ranges: the cells, or one range when the
  /// store has none.
  std::vector<SlotRange> AllRanges() const;

  /// The scan routine behind every search: float and quantized LUTs built
  /// once, a chunked pass over `ranges` (polling `control`, running the
  /// chaos scan hook and timing into `instruments` per chunk) keeping a
  /// running top-k pruned by the quantized error bound — SIMD survivor
  /// masks first, then the per-item test against the live heap — and
  /// survivors scored exactly in float. Hits carry slots, ordered by
  /// (distance, stored id).
  /// `ivf_cells` marks the ranges as probed IVF cells (profile phase
  /// `ivf_scan`, probe accounting) rather than a flat scan (`adc_scan`).
  Result<std::vector<SearchHit>> Scan(const float* query, size_t top_k,
                                      std::span<const SlotRange> ranges,
                                      const ScanControl& control,
                                      const ScanInstruments& instruments,
                                      bool ivf_cells) const;

  /// Picks the fast-scan kernel (Build/Load epilogue).
  void SelectKernel();

  /// Byte offset of codebook `cb`'s code at blocked position `pos`.
  size_t BlockedOffset(size_t pos, size_t cb) const {
    return (pos / kernels::kBlockItems * codebooks_.size() + cb) *
               kernels::kBlockItems +
           pos % kernels::kBlockItems;
  }

  /// Code of codebook `cb` for the item in `slot`, stored at blocked
  /// position `pos` (pos = slot for a flat store).
  uint32_t CodeAt(size_t slot, size_t pos, size_t cb) const {
    return blocked_.empty() ? packed_.Get(slot, cb)
                            : blocked_[BlockedOffset(pos, cb)];
  }

  void SetCode(size_t slot, size_t pos, size_t cb, uint32_t code) {
    if (blocked_.empty()) return packed_.Set(slot, cb, code);
    blocked_[BlockedOffset(pos, cb)] = static_cast<uint8_t>(code);
  }

  /// Blocked position of `slot`.
  size_t PositionOf(size_t slot) const;

  uint32_t StoredId(size_t slot) const {
    return ids_.empty() ? static_cast<uint32_t>(slot) : ids_[slot];
  }

  /// Exact float score: codebooks accumulate in order, so every path that
  /// scores an item produces the same bits.
  float ExactScore(const float* lut, size_t slot, size_t pos) const {
    const size_t m = codebooks_.size();
    const size_t k = num_codewords();
    float dot = 0.0f;
    for (size_t cb = 0; cb < m; ++cb) {
      dot += lut[cb * k + CodeAt(slot, pos, cb)];
    }
    return norms_[slot] - 2.0f * dot;
  }

  std::vector<Matrix> codebooks_;    // M x (K x d)
  /// The code store: blocked fast-scan layout when K <= 256
  /// (kernels::BuildBlockedCodes; tail lanes code 0), else bit-packed.
  std::vector<uint8_t> blocked_;
  PackedCodes packed_;
  std::vector<float> norms_;         // ||o||^2 per slot
  std::vector<uint32_t> ids_;        // slot -> stored id; empty = identity
  std::vector<SlotRange> cells_;     // empty = one range over every slot
  kernels::ScanKernel scan_kernel_;
  ScanInstruments instruments_;
};

}  // namespace lightlt::index

#endif  // LIGHTLT_INDEX_ADC_INDEX_H_
