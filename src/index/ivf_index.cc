#include "src/index/ivf_index.h"

#include <algorithm>
#include <numeric>

#include "src/clustering/kmeans.h"
#include "src/obs/profile.h"
#include "src/tensor/dense_product.h"
#include "src/util/chaos.h"
#include "src/util/io.h"

namespace lightlt::index {

Status IvfOptions::Validate() const {
  if (num_cells == 0) {
    return Status::InvalidArgument("IvfOptions: num_cells must be > 0");
  }
  if (nprobe == 0 || nprobe > num_cells) {
    return Status::InvalidArgument(
        "IvfOptions: nprobe must be in [1, num_cells]");
  }
  return Status::Ok();
}

Result<IvfAdcIndex> IvfAdcIndex::Build(
    const Matrix& embeddings, const std::vector<Matrix>& codebooks,
    const std::vector<std::vector<uint32_t>>& item_codes,
    const IvfOptions& options) {
  LIGHTLT_RETURN_IF_ERROR(options.Validate());
  if (codebooks.empty()) {
    return Status::InvalidArgument("IvfAdcIndex: no codebooks");
  }
  if (embeddings.rows() != item_codes.size()) {
    return Status::InvalidArgument(
        "IvfAdcIndex: embeddings/codes count mismatch");
  }
  if (codebooks[0].rows() > 256) {
    return Status::InvalidArgument(
        "IvfAdcIndex: K > 256 not supported by the byte-code cells");
  }
  // Centroids take the embeddings' width and route queries of the
  // codebooks' width.
  const size_t d = codebooks[0].cols();
  if (embeddings.cols() != d) {
    return Status::InvalidArgument(
        "IvfAdcIndex: embeddings/codebooks dimension mismatch");
  }

  IvfAdcIndex idx;
  idx.options_ = options;

  // Coarse quantizer over the continuous embeddings.
  clustering::KMeansOptions km;
  km.num_clusters = options.num_cells;
  km.max_iterations = options.kmeans_iterations;
  km.seed = options.seed;
  const auto coarse = clustering::KMeans(embeddings, km);
  idx.centroids_ = coarse.centroids;

  // ||centroid||^2 is query-independent; computing it here instead of per
  // query keeps the cell-ranking loop in Search to one dot product per cell.
  const size_t cells = idx.centroids_.rows();
  idx.centroid_norms_.resize(cells);
  for (size_t c = 0; c < cells; ++c) {
    const float* centroid = idx.centroids_.row(c);
    DenseProduct(ProductLayout::kABt, centroid, centroid, 1, 1, d,
                 &idx.centroid_norms_[c]);
  }

  // The store lays the items out cell by cell, in id order within a cell.
  std::vector<std::vector<uint32_t>> cell_ids(cells);
  for (size_t i = 0; i < item_codes.size(); ++i) {
    cell_ids[coarse.assignments[i]].push_back(static_cast<uint32_t>(i));
  }
  auto store = AdcIndex::BuildStore(codebooks, item_codes, &cell_ids);
  if (!store.ok()) return store.status();
  idx.store_ = std::move(store).value();
  return idx;
}

std::vector<SearchHit> IvfAdcIndex::Search(const float* query, size_t top_k,
                                           size_t nprobe_override) const {
  // Legacy uncontrolled entry point: chaos-instrumented like the
  // control-aware one (the hooks are no-ops when disarmed), with an
  // injected failure surfacing as an empty result (callers treat a
  // shortfall as degradation).
  auto result = Search(query, top_k, ScanControl{}, nprobe_override);
  return result.ok() ? std::move(result).value() : std::vector<SearchHit>{};
}

Result<std::vector<SearchHit>> IvfAdcIndex::Search(
    const float* query, size_t top_k, const ScanControl& control,
    size_t nprobe_override) const {
  auto hits = SearchSlots(query, top_k, control, nprobe_override);
  if (hits.ok()) store_.ToStoredIds(&hits.value());
  return hits;
}

Result<std::vector<SearchHit>> IvfAdcIndex::SearchSlots(
    const float* query, size_t top_k, const ScanControl& control,
    size_t nprobe_override) const {
  LIGHTLT_RETURN_IF_ERROR(ChaosOnIvfSearch());
  const std::vector<SlotRange> probes = Probes(query, nprobe_override);
  return store_.Scan(query, top_k, probes, control, instruments_,
                     /*ivf_cells=*/true);
}

std::vector<SlotRange> IvfAdcIndex::Probes(const float* query,
                                           size_t nprobe_override) const {
  const size_t cells = centroids_.rows();
  const size_t d = centroids_.cols();
  const size_t nprobe = std::min(
      nprobe_override == 0 ? options_.nprobe : nprobe_override, cells);

  // Rank cells by centroid distance (rank-equivalent form); the nearest
  // nprobe cells are the ranges the store scans.
  obs::ProfilePhase route_phase("ivf_route");
  std::vector<float> cell_scores(cells);
  DenseProduct(ProductLayout::kABt, query, centroids_.data(), 1, cells, d,
               cell_scores.data());
  for (size_t c = 0; c < cells; ++c) {
    cell_scores[c] = centroid_norms_[c] - 2.0f * cell_scores[c];
  }
  std::vector<uint32_t> cell_order(cells);
  std::iota(cell_order.begin(), cell_order.end(), 0u);
  std::partial_sort(cell_order.begin(), cell_order.begin() + nprobe,
                    cell_order.end(), [&](uint32_t a, uint32_t b) {
                      return cell_scores[a] < cell_scores[b] ||
                             (cell_scores[a] == cell_scores[b] && a < b);
                    });
  std::vector<SlotRange> probes(nprobe);
  for (size_t p = 0; p < nprobe; ++p) {
    probes[p] = store_.cells_[cell_order[p]];
  }
  return probes;
}

double IvfAdcIndex::ExpectedScanFraction(size_t nprobe_override) const {
  if (num_items() == 0) return 0.0;
  const size_t cells = centroids_.rows();
  const size_t nprobe = std::min(
      nprobe_override == 0 ? options_.nprobe : nprobe_override, cells);
  const auto cell_items = [this](size_t c) {
    return static_cast<double>(store_.cells_[c].end - store_.cells_[c].begin);
  };

  // For a query whose nearest centroid is cell c, Search scans the nprobe
  // cells closest to the query — approximated here by the nprobe cells
  // closest to centroid c. Weight each seed cell by its own item mass (the
  // empirical query distribution), giving the mass-aware expectation rather
  // than the uniform nprobe/cells estimate.
  const double total = static_cast<double>(num_items());
  double expected = 0.0;
  const Matrix dots = centroids_.MatMulTransposed(centroids_);
  std::vector<std::pair<float, uint32_t>> by_dist(cells);
  for (size_t c = 0; c < cells; ++c) {
    const double seed_weight = cell_items(c) / total;
    if (seed_weight == 0.0) continue;
    for (size_t o = 0; o < cells; ++o) {
      by_dist[o] = {centroid_norms_[o] - 2.0f * dots.at(c, o),
                    static_cast<uint32_t>(o)};
    }
    std::partial_sort(by_dist.begin(), by_dist.begin() + nprobe,
                      by_dist.end());
    double scanned = 0.0;
    for (size_t p = 0; p < nprobe; ++p) {
      scanned += cell_items(by_dist[p].second);
    }
    expected += seed_weight * (scanned / total);
  }
  return expected;
}

namespace {
// Format: magic, u32 version, payload, checksum footer. Footered from its
// first version (there are no legacy IVF files). v2 stores cell codes in
// the blocked fast-scan layout (preceded by its block width) instead of
// item-major bytes — exactly the cell's slice of the store's blocked
// array, so a load pays no repacking; v1 files are repacked on load.
constexpr uint32_t kIvfMagic = 0x4c54'4956;  // "LTIV"
constexpr uint32_t kIvfVersion = 2;
}  // namespace

Status IvfAdcIndex::Save(const std::string& path) const {
  const AdcIndex& s = store_;
  const size_t block_bytes = s.num_codebooks() * kernels::kBlockItems;
  BinaryWriter writer(path);
  writer.WriteU32(kIvfMagic);
  writer.WriteU32(kIvfVersion);
  writer.WriteU32(static_cast<uint32_t>(kernels::kBlockItems));
  writer.WriteU64(options_.num_cells);
  writer.WriteU64(options_.nprobe);
  writer.WriteI64(options_.kmeans_iterations);
  writer.WriteU64(options_.seed);
  writer.WriteU64(num_items());
  writer.WriteU64(centroids_.rows());
  writer.WriteU64(centroids_.cols());
  writer.WriteF32Vector(centroids_.storage());
  writer.WriteF32Vector(centroid_norms_);
  writer.WriteU64(s.codebooks_.size());
  for (const auto& cb : s.codebooks_) {
    writer.WriteU64(cb.rows());
    writer.WriteU64(cb.cols());
    writer.WriteF32Vector(cb.storage());
  }
  for (const SlotRange& cell : s.cells_) {
    const auto codes =
        s.blocked_.begin() + cell.first_block * block_bytes;
    writer.WriteU32Vector(std::vector<uint32_t>(
        s.ids_.begin() + cell.begin, s.ids_.begin() + cell.end));
    writer.WriteBytes(std::vector<uint8_t>(
        codes, codes + kernels::NumBlocks(cell.end - cell.begin) * block_bytes));
    writer.WriteF32Vector(std::vector<float>(
        s.norms_.begin() + cell.begin, s.norms_.begin() + cell.end));
  }
  return writer.Close();
}

Result<IvfAdcIndex> IvfAdcIndex::Load(const std::string& path) {
  BinaryReader reader(path);
  const uint32_t magic = reader.ReadU32();
  if (!reader.status().ok()) return reader.status();
  if (magic != kIvfMagic) {
    return Status::IoError("IvfAdcIndex: bad magic in " + path);
  }
  const uint32_t version = reader.ReadU32();
  if (!reader.status().ok()) return reader.status();
  if (version < 1 || version > kIvfVersion) {
    return Status::IoError("IvfAdcIndex: unsupported format version");
  }
  if (version >= 2) {
    const uint32_t scan_block = reader.ReadU32();
    if (!reader.status().ok()) return reader.status();
    if (scan_block != kernels::kBlockItems) {
      return Status::IoError("IvfAdcIndex: unsupported scan layout");
    }
  }

  IvfAdcIndex idx;
  idx.options_.num_cells = reader.ReadU64();
  idx.options_.nprobe = reader.ReadU64();
  idx.options_.kmeans_iterations =
      static_cast<int>(reader.ReadI64());
  idx.options_.seed = reader.ReadU64();
  const size_t total_items = reader.ReadU64();
  const size_t cells = reader.ReadU64();
  const size_t d = reader.ReadU64();
  if (!reader.status().ok()) return reader.status();
  LIGHTLT_RETURN_IF_ERROR(idx.options_.Validate());
  if (cells == 0 || cells > (1u << 24) || d == 0 || d > (1u << 20)) {
    return Status::IoError("IvfAdcIndex: corrupt coarse quantizer shape");
  }
  std::vector<float> centroid_data = reader.ReadF32Vector();
  if (!reader.status().ok()) return reader.status();
  if (centroid_data.size() != cells * d) {
    return Status::IoError("IvfAdcIndex: centroid payload size mismatch");
  }
  idx.centroids_ = Matrix(cells, d, std::move(centroid_data));
  idx.centroid_norms_ = reader.ReadF32Vector();
  if (!reader.status().ok()) return reader.status();
  if (idx.centroid_norms_.size() != cells) {
    return Status::IoError("IvfAdcIndex: centroid norm table mismatch");
  }

  AdcIndex& store = idx.store_;
  const size_t m = reader.ReadU64();
  if (!reader.status().ok()) return reader.status();
  if (m == 0 || m > 4096) return Status::IoError("IvfAdcIndex: corrupt M");
  size_t k = 0;
  store.codebooks_.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    const size_t rows = reader.ReadU64();
    const size_t cols = reader.ReadU64();
    std::vector<float> data = reader.ReadF32Vector();
    if (!reader.status().ok()) return reader.status();
    if (data.size() != rows * cols) {
      return Status::IoError("IvfAdcIndex: corrupt codebook");
    }
    if (i == 0) {
      k = rows;
      if (k < 2 || k > 256 || cols != d) {
        return Status::IoError("IvfAdcIndex: corrupt codebook shape");
      }
    } else if (rows != k || cols != d) {
      return Status::IoError("IvfAdcIndex: codebook shape mismatch");
    }
    store.codebooks_.emplace_back(rows, cols, std::move(data));
  }

  // Cell payloads are appended to the store cell after cell: each one is
  // the cell's slice of the blocked array, starting on a block boundary.
  std::vector<size_t> sizes(cells);
  std::vector<uint8_t> blocked;
  for (size_t c = 0; c < cells; ++c) {
    std::vector<uint32_t> ids = reader.ReadU32Vector();
    std::vector<uint8_t> codes = reader.ReadBytes();
    std::vector<float> norms = reader.ReadF32Vector();
    if (!reader.status().ok()) return reader.status();
    const size_t n = ids.size();
    const size_t expected_bytes =
        version >= 2 ? kernels::NumBlocks(n) * m * kernels::kBlockItems
                     : n * m;
    if (codes.size() != expected_bytes || norms.size() != n) {
      return Status::IoError("IvfAdcIndex: cell payload size mismatch");
    }
    for (const uint32_t id : ids) {
      if (id >= total_items) {
        return Status::IoError("IvfAdcIndex: cell id out of range");
      }
    }
    // Every stored byte indexes the lookup tables, so validate the whole
    // payload — in v2 that includes the zeroed tail-lane padding.
    for (const uint8_t code : codes) {
      if (code >= k) {
        return Status::IoError("IvfAdcIndex: stored code out of range");
      }
    }
    if (version < 2) {
      std::vector<uint8_t> item_major = std::move(codes);
      kernels::BuildBlockedCodes(item_major.data(), n, m, &codes);
    }
    sizes[c] = n;
    store.ids_.insert(store.ids_.end(), ids.begin(), ids.end());
    store.norms_.insert(store.norms_.end(), norms.begin(), norms.end());
    blocked.insert(blocked.end(), codes.begin(), codes.end());
  }
  if (store.ids_.size() != total_items) {
    return Status::IoError("IvfAdcIndex: item count mismatch");
  }
  LIGHTLT_RETURN_IF_ERROR(reader.VerifyFooter());
  store.LayOutCells(sizes);
  store.blocked_ = std::move(blocked);
  store.SelectKernel();
  return idx;
}

void IvfAdcIndex::Instrument(obs::MetricsRegistry* registry,
                             const std::string& prefix) {
  instruments_.Register(registry, prefix);
  instruments_.probed_cells = registry->GetHistogram(prefix + "probed_cells");
  instruments_.scanned_fraction =
      registry->GetHistogram(prefix + "scanned_fraction");
}

size_t IvfAdcIndex::MemoryBytes() const {
  return (centroids_.size() + centroid_norms_.size()) * sizeof(float) +
         store_.MemoryBytes();
}

}  // namespace lightlt::index
