#include "src/index/adc_index.h"

#include <algorithm>
#include <numeric>

#include "src/obs/profile.h"
#include "src/util/chaos.h"
#include "src/util/check.h"
#include "src/util/io.h"
#include "src/util/timer.h"

namespace lightlt::index {

void ScanInstruments::Register(obs::MetricsRegistry* registry,
                               const std::string& prefix) {
  chunks = registry->GetCounter(prefix + "scan_chunks_total");
  items = registry->GetCounter(prefix + "scan_items_total");
  overshoot = registry->GetCounter(prefix + "scan_deadline_overshoot_total");
  chunk_seconds = registry->GetHistogram(prefix + "scan_chunk_seconds");
}

void AdcIndex::Instrument(obs::MetricsRegistry* registry,
                          const std::string& prefix) {
  instruments_.Register(registry, prefix);
}

Result<AdcIndex> AdcIndex::Build(
    const std::vector<Matrix>& codebooks,
    const std::vector<std::vector<uint32_t>>& item_codes) {
  return BuildStore(codebooks, item_codes, nullptr);
}

Result<AdcIndex> AdcIndex::BuildStore(
    const std::vector<Matrix>& codebooks,
    const std::vector<std::vector<uint32_t>>& item_codes,
    const std::vector<std::vector<uint32_t>>* cells) {
  if (codebooks.empty()) {
    return Status::InvalidArgument("AdcIndex: no codebooks");
  }
  const size_t m = codebooks.size();
  const size_t k = codebooks[0].rows();
  const size_t d = codebooks[0].cols();
  for (const auto& cb : codebooks) {
    if (cb.rows() != k || cb.cols() != d) {
      return Status::InvalidArgument("AdcIndex: codebook shape mismatch");
    }
  }

  AdcIndex idx;
  idx.codebooks_ = codebooks;
  const size_t n = item_codes.size();
  if (cells != nullptr) {
    LIGHTLT_CHECK(k <= 256);
    std::vector<size_t> sizes;
    for (const auto& cell : *cells) {
      sizes.push_back(cell.size());
      idx.ids_.insert(idx.ids_.end(), cell.begin(), cell.end());
    }
    LIGHTLT_CHECK(idx.ids_.size() == n);
    idx.blocked_.assign(
        idx.LayOutCells(sizes) * m * kernels::kBlockItems, 0);
  } else if (k <= 256) {
    idx.blocked_.assign(kernels::NumBlocks(n) * m * kernels::kBlockItems, 0);
  } else {
    idx.packed_ = PackedCodes(n, m, k);
  }
  idx.norms_.resize(n);

  std::vector<float> recon(d);
  for (const SlotRange& range : idx.AllRanges()) {
    for (size_t slot = range.begin; slot < range.end; ++slot) {
      const size_t pos =
          range.first_block * kernels::kBlockItems + (slot - range.begin);
      const std::vector<uint32_t>& codes = item_codes[idx.StoredId(slot)];
      if (codes.size() != m) {
        return Status::InvalidArgument("AdcIndex: item code length mismatch");
      }
      std::fill(recon.begin(), recon.end(), 0.0f);
      for (size_t cb = 0; cb < m; ++cb) {
        if (codes[cb] >= k) {
          return Status::InvalidArgument("AdcIndex: code out of range");
        }
        idx.SetCode(slot, pos, cb, codes[cb]);
        const float* word = codebooks[cb].row(codes[cb]);
        for (size_t j = 0; j < d; ++j) recon[j] += word[j];
      }
      double norm = 0.0;
      for (size_t j = 0; j < d; ++j) {
        norm += static_cast<double>(recon[j]) * recon[j];
      }
      idx.norms_[slot] = static_cast<float>(norm);
    }
  }
  idx.SelectKernel();
  return idx;
}

size_t AdcIndex::LayOutCells(const std::vector<size_t>& cell_sizes) {
  cells_.resize(cell_sizes.size());
  size_t slot = 0;
  size_t block = 0;
  for (size_t c = 0; c < cell_sizes.size(); ++c) {
    cells_[c] = {static_cast<uint32_t>(slot),
                 static_cast<uint32_t>(slot + cell_sizes[c]),
                 static_cast<uint32_t>(block)};
    slot += cell_sizes[c];
    block += kernels::NumBlocks(cell_sizes[c]);
  }
  return block;
}

void AdcIndex::SelectKernel() {
  // Byte codes only (K <= 256); M > 256 could overflow the u16
  // accumulators, so such stores scan with the exact scorer.
  scan_kernel_ = kernels::ScanKernel{};
  if (!blocked_.empty() && codebooks_.size() <= 256) {
    scan_kernel_ =
        kernels::SelectScanKernel(kernels::PadCodewords(num_codewords()));
  }
}

std::vector<SlotRange> AdcIndex::AllRanges() const {
  if (!cells_.empty()) return cells_;
  return {SlotRange{0, static_cast<uint32_t>(num_items()), 0}};
}

size_t AdcIndex::PositionOf(size_t slot) const {
  if (cells_.empty()) return slot;
  // The last cell starting at or before `slot` holds it (empty cells that
  // share its start come first).
  const auto cell =
      std::prev(std::upper_bound(cells_.begin(), cells_.end(), slot,
                                 [](size_t s, const SlotRange& range) {
                                   return s < range.begin;
                                 }));
  return cell->first_block * kernels::kBlockItems + (slot - cell->begin);
}

std::vector<float> AdcIndex::BuildLookupTables(const float* query) const {
  const size_t m = codebooks_.size();
  const size_t k = num_codewords();
  const size_t d = dim();
  std::vector<float> lut(m * k);
  for (size_t cb = 0; cb < m; ++cb) {
    const Matrix& book = codebooks_[cb];
    float* row = lut.data() + cb * k;
    for (size_t j = 0; j < k; ++j) {
      const float* word = book.row(j);
      float acc = 0.0f;
      for (size_t t = 0; t < d; ++t) acc += query[t] * word[t];
      row[j] = acc;
    }
  }
  return lut;
}

void AdcIndex::ComputeScores(const float* query,
                             std::vector<float>* scores) const {
  // Uncontrolled exhaustive scoring (eval, RankAll): one uninterrupted
  // exact pass, no lifecycle checks and no chaos instrumentation.
  const std::vector<float> lut = BuildLookupTables(query);
  obs::ProfilePhase scan_phase("adc_scan");
  scores->resize(num_items());
  for (const SlotRange& range : AllRanges()) {
    const size_t base = range.first_block * kernels::kBlockItems;
    for (size_t slot = range.begin; slot < range.end; ++slot) {
      (*scores)[StoredId(slot)] =
          ExactScore(lut.data(), slot, base + (slot - range.begin));
    }
  }
}

Result<std::vector<SearchHit>> AdcIndex::Scan(
    const float* query, size_t top_k, std::span<const SlotRange> ranges,
    const ScanControl& control, const ScanInstruments& instruments,
    bool ivf_cells) const {
  if (top_k == 0) return std::vector<SearchHit>{};
  const size_t m = codebooks_.size();
  const size_t k = num_codewords();
  const bool fast = scan_kernel_.fn != nullptr;
  std::vector<float> lut;
  kernels::QuantizedLut qlut;
  {
    // Both tables count: the float LUT plus its quantized companion are
    // separate per-query constructions in the resource vector.
    obs::ProfilePhase lut_phase("lut_build");
    lut = BuildLookupTables(query);
    if (fast) qlut = kernels::QuantizeLut(lut.data(), m, k);
  }
  if (control.stats != nullptr) control.stats->lut_builds += fast ? 2 : 1;
  const float bound = qlut.ScoreErrorBound();

  // Running top-k: a worst-on-top heap of exact (distance, stored id) —
  // O(top_k) state however many items the ranges hold.
  const auto better = [this](const SearchHit& a, const SearchHit& b) {
    return a.distance < b.distance ||
           (a.distance == b.distance && StoredId(a.id) < StoredId(b.id));
  };
  std::vector<SearchHit> heap;
  heap.reserve(std::min(top_k, num_items()));
  const auto offer = [&](SearchHit hit) {
    if (heap.size() < top_k) {
      heap.push_back(hit);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(hit, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = hit;
      std::push_heap(heap.begin(), heap.end(), better);
    }
  };

  // Chunks of check_every_items never span ranges, and every range is at
  // least one chunk: the control is polled between chunks (an expired or
  // cancelled request overshoots by at most one chunk, DESIGN.md §9) and
  // the chaos hook and telemetry run once per chunk — nothing per item.
  // The kernel scores the blocks a chunk overlaps; a block split between
  // two chunks is scored twice, to the same sums.
  const size_t chunk = std::max<size_t>(1, control.check_every_items);
  std::vector<uint16_t> sums;
  size_t ranges_done = 0;
  size_t items_done = 0;
  size_t rescored = 0;
  Status status;
  obs::ProfilePhase scan_phase(ivf_cells ? "ivf_scan" : "adc_scan");
  for (const SlotRange& range : ranges) {
    const size_t base = range.first_block * kernels::kBlockItems;
    size_t begin = range.begin;
    do {
      if (items_done > 0 || ranges_done > 0) {
        status = control.Check();
        if (!status.ok()) {
          if (instruments.enabled()) instruments.overshoot->Increment();
          break;
        }
      }
      status = ChaosOnScanChunk();
      if (!status.ok()) break;
      const size_t end = std::min<size_t>(begin + chunk, range.end);
      ScopedTimer timer(instruments.chunk_seconds);
      if (fast) {
        // Quantized scores first; only items whose approximate score could
        // still make the heap (|approx - exact| <= bound, DESIGN.md §12)
        // are scored exactly, so the heap equals the all-float scan's.
        const size_t first = (begin - range.begin) / kernels::kBlockItems;
        const size_t last = kernels::NumBlocks(end - range.begin);
        sums.resize((last - first) * kernels::kBlockItems);
        if (last > first) {
          scan_kernel_.fn(blocked_.data() + (range.first_block + first) * m *
                                                kernels::kBlockItems,
                          last - first, m, qlut.k_padded, qlut.table.data(),
                          sums.data());
        }
        const size_t sum0 = range.begin + first * kernels::kBlockItems;
        for (size_t slot = begin; slot < end; ++slot) {
          const float approx =
              norms_[slot] -
              2.0f * (static_cast<float>(sums[slot - sum0]) * qlut.scale +
                      qlut.bias_sum);
          if (heap.size() == top_k && approx - bound > heap.front().distance) {
            continue;
          }
          ++rescored;
          offer({static_cast<uint32_t>(slot),
                 ExactScore(lut.data(), slot, base + (slot - range.begin))});
        }
      } else {
        for (size_t slot = begin; slot < end; ++slot) {
          offer({static_cast<uint32_t>(slot),
                 ExactScore(lut.data(), slot, base + (slot - range.begin))});
        }
        rescored += end - begin;
      }
      if (instruments.enabled()) {
        instruments.chunks->Increment();
        instruments.items->Increment(end - begin);
      }
      if (control.stats != nullptr) {
        control.stats->chunks += 1;
        control.stats->items += end - begin;
      }
      items_done += end - begin;
      begin = end;
    } while (begin < range.end);
    if (!status.ok()) break;
    ++ranges_done;
  }

  // Probe breadth and exact re-score counts cover whatever was scanned,
  // on the early-out paths too, so those distributions are not biased
  // toward fast queries.
  if (ivf_cells) {
    if (instruments.probed_cells != nullptr) {
      instruments.probed_cells->Record(static_cast<double>(ranges_done));
    }
    if (instruments.scanned_fraction != nullptr && num_items() > 0) {
      instruments.scanned_fraction->Record(static_cast<double>(items_done) /
                                           static_cast<double>(num_items()));
    }
  }
  if (control.stats != nullptr) {
    if (ivf_cells) control.stats->probed_cells += ranges_done;
    control.stats->shortlist += rescored;
    control.stats->codes_decoded += rescored * m;
  }
  if (!status.ok()) return status;
  std::sort_heap(heap.begin(), heap.end(), better);
  return heap;
}

Result<std::vector<SearchHit>> AdcIndex::SearchSlots(
    const float* query, size_t top_k, const ScanControl& control) const {
  return Scan(query, top_k, AllRanges(), control, instruments_,
              /*ivf_cells=*/false);
}

void AdcIndex::ToStoredIds(std::vector<SearchHit>* hits) const {
  for (SearchHit& hit : *hits) hit.id = StoredId(hit.id);
}

Result<std::vector<SearchHit>> AdcIndex::Search(
    const float* query, size_t top_k, const ScanControl& control) const {
  auto hits = SearchSlots(query, top_k, control);
  if (hits.ok()) ToStoredIds(&hits.value());
  return hits;
}

std::vector<SearchHit> AdcIndex::Search(const float* query,
                                        size_t top_k) const {
  auto hits = Search(query, top_k, ScanControl{});
  return hits.ok() ? std::move(hits).value() : std::vector<SearchHit>{};
}

std::vector<uint32_t> AdcIndex::RankAll(const float* query) const {
  std::vector<float> scores;
  ComputeScores(query, &scores);
  std::vector<uint32_t> ids(scores.size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::stable_sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    return scores[a] < scores[b];
  });
  return ids;
}

Matrix AdcIndex::Reconstruct(size_t slot) const {
  const size_t pos = PositionOf(slot);
  Matrix out(1, dim());
  for (size_t cb = 0; cb < codebooks_.size(); ++cb) {
    const float* word = codebooks_[cb].row(CodeAt(slot, pos, cb));
    for (size_t j = 0; j < dim(); ++j) out[j] += word[j];
  }
  return out;
}

size_t AdcIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& cb : codebooks_) bytes += cb.size() * sizeof(float);
  bytes += blocked_.size() + packed_.MemoryBytes();
  bytes += norms_.size() * sizeof(float);
  bytes += ids_.size() * sizeof(uint32_t);
  bytes += cells_.size() * sizeof(SlotRange);
  return bytes;
}

size_t AdcIndex::TheoreticalQueryOps() const {
  return dim() * num_codebooks() * num_codewords() +
         num_items() * num_codebooks();
}

namespace {
// Legacy format: magic directly followed by the payload, no version field,
// no integrity data. Still readable.
constexpr uint32_t kAdcMagicV1 = 0x4144'4331;  // "ADC1"
// Current format: magic, u32 version, payload, checksum footer; written
// atomically. The magic changed because v1 carried no version field.
// v3 adds the scan-layout block width so a reader whose blocked fast-scan
// layout diverged refuses the file instead of mis-scanning it.
constexpr uint32_t kAdcMagicV2 = 0x4144'4332;  // "ADC2"
constexpr uint32_t kAdcVersion = 3;
}  // namespace

Status AdcIndex::Save(const std::string& path) const {
  if (!cells_.empty()) {
    return Status::FailedPrecondition(
        "AdcIndex: a cell-ordered store is saved by its IVF index");
  }
  // Codes are bit-packed on disk whatever the in-memory layout.
  PackedCodes repacked;
  if (!blocked_.empty()) {
    repacked = PackedCodes(num_items(), num_codebooks(), num_codewords());
    for (size_t i = 0; i < num_items(); ++i) {
      for (size_t cb = 0; cb < num_codebooks(); ++cb) {
        repacked.Set(i, cb, CodeAt(i, i, cb));
      }
    }
  }
  BinaryWriter writer(path);
  writer.WriteU32(kAdcMagicV2);
  writer.WriteU32(kAdcVersion);
  writer.WriteU32(static_cast<uint32_t>(kernels::kBlockItems));
  writer.WriteU64(codebooks_.size());
  for (const auto& cb : codebooks_) {
    writer.WriteU64(cb.rows());
    writer.WriteU64(cb.cols());
    writer.WriteF32Vector(cb.storage());
  }
  (blocked_.empty() ? packed_ : repacked).Save(writer);
  writer.WriteF32Vector(norms_);
  return writer.Close();
}

Result<AdcIndex> AdcIndex::Load(const std::string& path) {
  BinaryReader reader(path);
  const uint32_t magic = reader.ReadU32();
  // An unreadable/truncated file is an I/O error, not a bad-magic file.
  if (!reader.status().ok()) return reader.status();
  uint32_t version = 1;
  if (magic == kAdcMagicV2) {
    version = reader.ReadU32();
    if (!reader.status().ok()) return reader.status();
    if (version < 2 || version > kAdcVersion) {
      return Status::IoError("AdcIndex: unsupported format version");
    }
  } else if (magic != kAdcMagicV1) {
    return Status::IoError("AdcIndex: bad magic in " + path);
  }
  if (version >= 3) {
    const uint32_t scan_block = reader.ReadU32();
    if (!reader.status().ok()) return reader.status();
    if (scan_block != kernels::kBlockItems) {
      return Status::IoError("AdcIndex: unsupported scan layout");
    }
  }
  AdcIndex idx;
  const size_t m = reader.ReadU64();
  if (!reader.status().ok()) return reader.status();
  if (m == 0 || m > 4096) return Status::IoError("AdcIndex: corrupt M");
  idx.codebooks_.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    const size_t rows = reader.ReadU64();
    const size_t cols = reader.ReadU64();
    std::vector<float> data = reader.ReadF32Vector();
    if (!reader.status().ok()) return reader.status();
    if (data.size() != rows * cols) {
      return Status::IoError("AdcIndex: corrupt codebook");
    }
    idx.codebooks_.emplace_back(rows, cols, std::move(data));
  }
  // Cross-field consistency: the scan path indexes lookup tables sized from
  // codebook 0, so mismatched shapes in a corrupt file would read out of
  // bounds if admitted here.
  const size_t k = idx.codebooks_[0].rows();
  const size_t d = idx.codebooks_[0].cols();
  if (k < 2 || d == 0) {
    return Status::IoError("AdcIndex: corrupt codebook shape");
  }
  for (const auto& cb : idx.codebooks_) {
    if (cb.rows() != k || cb.cols() != d) {
      return Status::IoError("AdcIndex: codebook shape mismatch");
    }
  }
  auto codes = PackedCodes::Load(reader);
  if (!codes.ok()) return codes.status();
  PackedCodes packed = std::move(codes).value();
  if (packed.num_codebooks() != m || packed.num_codewords() > k) {
    return Status::IoError("AdcIndex: codes/codebook mismatch");
  }
  // Packed code values index the lookup table rows; a corrupt bit pattern
  // above k would read past the table, so every code is range-checked as
  // it moves into the blocked store.
  const size_t n = packed.num_items();
  if (k <= 256) {
    idx.blocked_.assign(kernels::NumBlocks(n) * m * kernels::kBlockItems, 0);
  }
  bool codes_in_range = true;
  packed.ForEachCode([&](size_t item, size_t cb, uint32_t code) {
    if (code >= k) {
      codes_in_range = false;
    } else if (!idx.blocked_.empty()) {
      idx.SetCode(item, item, cb, code);
    }
  });
  if (!codes_in_range) {
    return Status::IoError("AdcIndex: stored code out of range");
  }
  if (idx.blocked_.empty()) idx.packed_ = std::move(packed);
  idx.norms_ = reader.ReadF32Vector();
  if (!reader.status().ok()) return reader.status();
  if (idx.norms_.size() != n) {
    return Status::IoError("AdcIndex: norm table size mismatch");
  }
  Status integrity =
      version >= 2 ? reader.VerifyFooter() : reader.ExpectEof();
  if (!integrity.ok()) return integrity;
  idx.SelectKernel();
  return idx;
}

}  // namespace lightlt::index
