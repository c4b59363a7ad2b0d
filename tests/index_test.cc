// Tests for the retrieval indexes: packed codes, ADC exactness, the pruned
// fast-scan against a per-item reference scan, flat exhaustive search,
// Hamming search, and serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "src/index/adc_index.h"
#include "src/index/codes.h"
#include "src/index/flat_index.h"
#include "src/index/hamming_index.h"
#include "src/index/ivf_index.h"
#include "src/index/kernels/scan_kernels.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"

namespace lightlt::index {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(BitsPerCodeTest, PowerOfTwoAndOdd) {
  EXPECT_EQ(BitsPerCode(2), 1u);
  EXPECT_EQ(BitsPerCode(3), 2u);
  EXPECT_EQ(BitsPerCode(4), 2u);
  EXPECT_EQ(BitsPerCode(256), 8u);
  EXPECT_EQ(BitsPerCode(257), 9u);
}

TEST(PackedCodesTest, RoundTripAllPositions) {
  const size_t n = 37, m = 5, k = 29;  // odd sizes cross word boundaries
  PackedCodes codes(n, m, k);
  Rng rng(1);
  std::vector<uint32_t> expected(n * m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t cb = 0; cb < m; ++cb) {
      const uint32_t v = static_cast<uint32_t>(rng.NextIndex(k));
      expected[i * m + cb] = v;
      codes.Set(i, cb, v);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t cb = 0; cb < m; ++cb) {
      EXPECT_EQ(codes.Get(i, cb), expected[i * m + cb]);
    }
  }
}

TEST(PackedCodesTest, OverwriteDoesNotCorruptNeighbors) {
  PackedCodes codes(4, 3, 29);  // 5 bits per code, spills across words
  for (size_t i = 0; i < 4; ++i) {
    for (size_t m = 0; m < 3; ++m) codes.Set(i, m, 17);
  }
  codes.Set(2, 1, 3);
  EXPECT_EQ(codes.Get(2, 1), 3u);
  EXPECT_EQ(codes.Get(2, 0), 17u);
  EXPECT_EQ(codes.Get(2, 2), 17u);
  EXPECT_EQ(codes.Get(1, 2), 17u);
  EXPECT_EQ(codes.Get(3, 0), 17u);
}

TEST(PackedCodesTest, MemoryMatchesPaperFormula) {
  // n * M * log2(K) / 8 bytes, up to 8-byte block rounding (§IV-A).
  PackedCodes codes(10000, 4, 256);
  const size_t expected_bits = 10000 * 4 * 8;
  EXPECT_NEAR(static_cast<double>(codes.MemoryBytes()),
              static_cast<double>(expected_bits) / 8.0, 8.0);
}

class AdcIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(42);
    for (size_t m = 0; m < kM; ++m) {
      codebooks_.push_back(Matrix::RandomGaussian(kK, kD, rng));
    }
    codes_.assign(kN, std::vector<uint32_t>(kM));
    for (auto& item : codes_) {
      for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(kK));
    }
    query_ = Matrix::RandomGaussian(1, kD, rng);
  }

  static constexpr size_t kN = 50, kM = 4, kK = 16, kD = 8;
  std::vector<Matrix> codebooks_;
  std::vector<std::vector<uint32_t>> codes_;
  Matrix query_;
};

TEST_F(AdcIndexTest, ScoresMatchBruteForceOnReconstructions) {
  auto built = AdcIndex::Build(codebooks_, codes_);
  ASSERT_TRUE(built.ok());
  const AdcIndex& idx = built.value();

  std::vector<float> scores;
  idx.ComputeScores(query_.data(), &scores);
  ASSERT_EQ(scores.size(), kN);

  for (size_t i = 0; i < kN; ++i) {
    const Matrix recon = idx.Reconstruct(i);
    // Score is ||o||^2 - 2<q, o>; full distance adds the constant ||q||^2.
    float expected = recon.SquaredNorm();
    for (size_t j = 0; j < kD; ++j) {
      expected -= 2.0f * query_[j] * recon[j];
    }
    EXPECT_NEAR(scores[i], expected, 1e-3f);
  }
}

TEST_F(AdcIndexTest, LookupTablesMatchScalarDots) {
  // The float LUT is one dense-product dot per (codebook, codeword); it must
  // equal the serial k-order dot bit for bit at every table width the scan
  // kernels pad to.
  Rng rng(17);
  for (size_t k : {16, 64, 256}) {
    const size_t m = 4, d = 64;
    std::vector<Matrix> codebooks;
    for (size_t cb = 0; cb < m; ++cb) {
      codebooks.push_back(Matrix::RandomGaussian(k, d, rng));
    }
    std::vector<std::vector<uint32_t>> codes(3, std::vector<uint32_t>(m, 0));
    auto built = AdcIndex::Build(codebooks, codes);
    ASSERT_TRUE(built.ok());
    const Matrix query = Matrix::RandomGaussian(1, d, rng);
    const std::vector<float> lut =
        built.value().BuildLookupTables(query.data());
    std::vector<float> want(m * k);
    for (size_t cb = 0; cb < m; ++cb) {
      for (size_t j = 0; j < k; ++j) {
        float acc = 0.0f;
        for (size_t t = 0; t < d; ++t) acc += query[t] * codebooks[cb].at(j, t);
        want[cb * k + j] = acc;
      }
    }
    ASSERT_EQ(lut.size(), want.size());
    EXPECT_EQ(std::memcmp(lut.data(), want.data(), want.size() * sizeof(float)),
              0)
        << "K=" << k;
  }
}

TEST_F(AdcIndexTest, SearchReturnsAscendingDistances) {
  auto built = AdcIndex::Build(codebooks_, codes_);
  ASSERT_TRUE(built.ok());
  const auto hits = built.value().Search(query_.data(), 10);
  ASSERT_EQ(hits.size(), 10u);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].distance, hits[i].distance);
  }
}

TEST_F(AdcIndexTest, RankAllIsConsistentWithSearch) {
  auto built = AdcIndex::Build(codebooks_, codes_);
  ASSERT_TRUE(built.ok());
  const auto ranking = built.value().RankAll(query_.data());
  const auto hits = built.value().Search(query_.data(), 5);
  ASSERT_EQ(ranking.size(), kN);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(ranking[i], hits[i].id);
}

TEST_F(AdcIndexTest, RejectsMalformedInputs) {
  // Mismatched codebook shape.
  auto bad_books = codebooks_;
  bad_books[1] = Matrix(kK, kD + 1);
  EXPECT_FALSE(AdcIndex::Build(bad_books, codes_).ok());
  // Code out of range.
  auto bad_codes = codes_;
  bad_codes[3][1] = kK;
  EXPECT_FALSE(AdcIndex::Build(codebooks_, bad_codes).ok());
  // Wrong code count per item.
  bad_codes = codes_;
  bad_codes[0].pop_back();
  EXPECT_FALSE(AdcIndex::Build(codebooks_, bad_codes).ok());
  // No codebooks at all.
  EXPECT_FALSE(AdcIndex::Build({}, codes_).ok());
}

TEST_F(AdcIndexTest, TiedDistancesBreakByAscendingId) {
  // Duplicate every item's codes in groups of five: scores tie in groups
  // that straddle any k cutting mid-group, so the returned ids are only
  // well-defined because ties break by ascending id.
  auto codes = codes_;
  for (size_t i = 0; i < kN; ++i) codes[i] = codes_[i / 5 * 5];
  auto built = AdcIndex::Build(codebooks_, codes);
  ASSERT_TRUE(built.ok());
  const auto hits = built.value().Search(query_.data(), 12);  // cuts a group
  ASSERT_EQ(hits.size(), 12u);
  for (size_t i = 1; i < hits.size(); ++i) {
    ASSERT_TRUE(hits[i - 1].distance < hits[i].distance ||
                (hits[i - 1].distance == hits[i].distance &&
                 hits[i - 1].id < hits[i].id))
        << "i=" << i;
  }
  // Tied neighbours are consecutive ids from the same duplicate group.
  for (size_t i = 1; i < hits.size(); ++i) {
    if (hits[i - 1].distance == hits[i].distance) {
      EXPECT_EQ(hits[i].id, hits[i - 1].id + 1);
    }
  }
}

// ||o||^2 of an item, in AdcIndex::Build's order: codewords summed in
// float, the squares in double.
float ReconstructionNorm(const std::vector<Matrix>& codebooks,
                         const std::vector<uint32_t>& codes) {
  std::vector<float> recon(codebooks[0].cols(), 0.0f);
  for (size_t cb = 0; cb < codebooks.size(); ++cb) {
    const float* word = codebooks[cb].row(codes[cb]);
    for (size_t j = 0; j < recon.size(); ++j) recon[j] += word[j];
  }
  double norm = 0.0;
  for (const float v : recon) norm += static_cast<double>(v) * v;
  return static_cast<float>(norm);
}

// lut[cb*K + j] = <q, C_cb[j]>, in AdcIndex's order.
std::vector<float> ReferenceLut(const std::vector<Matrix>& codebooks,
                                const float* query) {
  const size_t k = codebooks[0].rows();
  const size_t d = codebooks[0].cols();
  std::vector<float> lut(codebooks.size() * k);
  for (size_t cb = 0; cb < codebooks.size(); ++cb) {
    for (size_t j = 0; j < k; ++j) {
      float acc = 0.0f;
      for (size_t t = 0; t < d; ++t) acc += query[t] * codebooks[cb].row(j)[t];
      lut[cb * k + j] = acc;
    }
  }
  return lut;
}

struct PerItemScan {
  std::vector<SearchHit> hits;  // ids are slots
  ScanStats stats;
};

// The scan the masked fast path must reproduce, rebuilt from public pieces:
// the float LUT and norms in AdcIndex's order, QuantizeLut, the scalar
// accumulate kernel, then one prune test per item against the live heap,
// in chunks of check_every items that never span a range. `slot_ids` maps
// slots to stored ids (the heap's tie order); `codes` is by stored id.
PerItemScan PerItemReference(const std::vector<Matrix>& codebooks,
                             const std::vector<std::vector<uint32_t>>& codes,
                             const std::vector<uint32_t>& slot_ids,
                             const std::vector<SlotRange>& ranges,
                             const float* query, size_t top_k,
                             size_t check_every) {
  namespace kn = kernels;
  const size_t m = codebooks.size();
  const size_t k = codebooks[0].rows();
  const std::vector<float> lut = ReferenceLut(codebooks, query);
  const kn::QuantizedLut qlut = kn::QuantizeLut(lut.data(), m, k);
  const float bound = qlut.ScoreErrorBound();
  const kn::AccumulateFn accumulate =
      kn::ScanKernelByName("scalar", qlut.k_padded).fn;

  const auto better = [&](const SearchHit& a, const SearchHit& b) {
    return a.distance < b.distance ||
           (a.distance == b.distance && slot_ids[a.id] < slot_ids[b.id]);
  };
  std::vector<SearchHit> heap;
  PerItemScan out;
  out.stats.lut_builds = 2;
  const size_t chunk = std::max<size_t>(1, check_every);
  for (const SlotRange& range : ranges) {
    const size_t len = range.end - range.begin;
    std::vector<uint8_t> item_major(len * m);
    for (size_t i = 0; i < len; ++i) {
      for (size_t cb = 0; cb < m; ++cb) {
        item_major[i * m + cb] =
            static_cast<uint8_t>(codes[slot_ids[range.begin + i]][cb]);
      }
    }
    std::vector<uint8_t> blocked;
    kn::BuildBlockedCodes(item_major.data(), len, m, &blocked);
    std::vector<uint16_t> sums(kn::NumBlocks(len) * kn::kBlockItems);
    if (len > 0) {
      accumulate(blocked.data(), kn::NumBlocks(len), m, qlut.k_padded,
                 qlut.table.data(), sums.data());
    }
    size_t begin = 0;
    do {
      const size_t end = begin + std::min(chunk, len - begin);
      for (size_t i = begin; i < end; ++i) {
        const uint32_t slot = static_cast<uint32_t>(range.begin + i);
        const std::vector<uint32_t>& item = codes[slot_ids[slot]];
        const float norm = ReconstructionNorm(codebooks, item);
        const float approx =
            norm - 2.0f * (static_cast<float>(sums[i]) * qlut.scale +
                           qlut.bias_sum);
        if (heap.size() == top_k && approx - bound > heap.front().distance) {
          continue;
        }
        ++out.stats.shortlist;
        float dot = 0.0f;
        for (size_t cb = 0; cb < m; ++cb) dot += lut[cb * k + item[cb]];
        const SearchHit hit{slot, norm - 2.0f * dot};
        if (heap.size() < top_k) {
          heap.push_back(hit);
          std::push_heap(heap.begin(), heap.end(), better);
        } else if (better(hit, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), better);
          heap.back() = hit;
          std::push_heap(heap.begin(), heap.end(), better);
        }
      }
      ++out.stats.chunks;
      out.stats.items += end - begin;
      begin = end;
    } while (begin < len);
  }
  out.stats.codes_decoded = out.stats.shortlist * m;
  std::sort_heap(heap.begin(), heap.end(), better);
  out.hits = std::move(heap);
  return out;
}

void ExpectSameScan(const std::vector<SearchHit>& got,
                    const ScanStats& got_stats, const PerItemScan& want) {
  ASSERT_EQ(got.size(), want.hits.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want.hits[i].id) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint32_t>(got[i].distance),
              std::bit_cast<uint32_t>(want.hits[i].distance))
        << "rank " << i;
  }
  EXPECT_EQ(got_stats.items, want.stats.items);
  EXPECT_EQ(got_stats.chunks, want.stats.chunks);
  EXPECT_EQ(got_stats.shortlist, want.stats.shortlist);
  EXPECT_EQ(got_stats.codes_decoded, want.stats.codes_decoded);
  EXPECT_EQ(got_stats.lut_builds, want.stats.lut_builds);
  EXPECT_EQ(got_stats.probed_cells, want.stats.probed_cells);
}

// An index with an item planted exactly on the pruning boundary: slot 1's
// quantized score minus the error bound equals slot 0's exact distance bit
// for bit, so at top_k 1 (slot 0 alone in the heap) slot 1 must be
// re-scored — the prune test is `>`, not `>=`. With M = 1 and a query whose
// last two coordinates are 0, the LUT ignores the codewords' last two
// coordinates, which then tune the planted codeword's norm onto the
// boundary.
struct PlantedBoundary {
  std::vector<Matrix> codebooks;
  std::vector<std::vector<uint32_t>> codes;
  Matrix query;
};

void PlantBoundaryItem(Rng& rng, PlantedBoundary* out) {
  const size_t k = 16, d = 4, n = 40;
  out->codebooks = {Matrix::RandomGaussian(k, d, rng)};
  Matrix& book = out->codebooks[0];
  book.row(0)[2] = 3.0f;
  out->query = Matrix(1, d);
  out->query[0] = static_cast<float>(rng.NextGaussian());
  out->query[1] = static_cast<float>(rng.NextGaussian());

  const std::vector<float> lut = ReferenceLut(out->codebooks,
                                              out->query.data());
  const kernels::QuantizedLut qlut = kernels::QuantizeLut(lut.data(), 1, k);
  const float bound = qlut.ScoreErrorBound();
  const float worst = ReconstructionNorm(out->codebooks, {0}) - 2.0f * lut[0];
  // The norm the planted codeword needs: a float within a few steps of the
  // algebraic solution, if the roundings allow one for that codeword.
  uint32_t planted = 0;
  float target = 0.0f;
  for (uint32_t j = 1; j < k && planted == 0; ++j) {
    const float sum_part =
        2.0f * (static_cast<float>(qlut.table[j]) * qlut.scale +
                qlut.bias_sum);
    float norm = worst + bound + sum_part;
    for (int step = 0; step < 8; ++step) norm = std::nextafter(norm, -1e30f);
    for (int step = 0; step < 16 && planted == 0; ++step) {
      if ((norm - sum_part) - bound == worst) {
        planted = j;
        target = norm;
      }
      norm = std::nextafter(norm, 1e30f);
    }
  }
  ASSERT_NE(planted, 0u) << "no codeword's norm can land on the boundary";
  // Coordinate 2 takes most of the missing norm and the small coordinate 3
  // fine-tunes it: one float step of a 0.1 coordinate moves the norm by far
  // less than one float step of the norm.
  float* word = book.row(planted);
  const double rest = static_cast<double>(word[0]) * word[0] +
                      static_cast<double>(word[1]) * word[1];
  ASSERT_GT(static_cast<double>(target), rest + 0.02);
  word[2] = static_cast<float>(
      std::sqrt(static_cast<double>(target) - rest - 0.01));
  word[3] = static_cast<float>(std::sqrt(
      static_cast<double>(target) - rest -
      static_cast<double>(word[2]) * word[2]));
  for (int step = 0; ReconstructionNorm(out->codebooks, {planted}) != target;
       ++step) {
    ASSERT_LT(step, 4096) << "no codeword coordinate gives the boundary norm";
    word[3] = std::nextafter(
        word[3],
        ReconstructionNorm(out->codebooks, {planted}) < target ? 1e30f
                                                               : -1e30f);
  }
  out->codes = {{0}, {planted}};
  while (out->codes.size() < n) {
    out->codes.push_back({static_cast<uint32_t>(rng.NextIndex(k))});
  }
}

// ComputeScores, block by block, returns every item's ExactScore bits:
// norm - 2·dot with the M table entries summed in codebook order from 0.0f,
// scattered by stored id, on flat and cell-ordered stores whose ranges end
// in partial blocks, and on the bit-packed store (K > 256).
TEST_F(AdcIndexTest, ComputeScoresMatchPerItemExactScore) {
  Rng rng(29);
  const size_t n = 1000, m = 4, d = 8;  // 1000 = 31 blocks + 8
  for (const size_t k : {16u, 64u, 256u, 512u}) {
    std::vector<Matrix> codebooks;
    for (size_t cb = 0; cb < m; ++cb) {
      codebooks.push_back(Matrix::RandomGaussian(k, d, rng));
    }
    std::vector<std::vector<uint32_t>> codes(n, std::vector<uint32_t>(m));
    for (auto& item : codes) {
      for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(k));
    }
    std::vector<const AdcIndex*> stores;
    auto flat = AdcIndex::Build(codebooks, codes);
    ASSERT_TRUE(flat.ok());
    stores.push_back(&flat.value());
    IvfOptions opts;
    opts.num_cells = 7;
    opts.nprobe = 2;
    auto ivf = IvfAdcIndex::Build(Matrix::RandomGaussian(n, d, rng), codebooks,
                                  codes, opts);
    if (k <= 256) {
      ASSERT_TRUE(ivf.ok());
      stores.push_back(&ivf.value().store());
    }
    const Matrix query = Matrix::RandomGaussian(1, d, rng);
    const std::vector<float> lut = ReferenceLut(codebooks, query.data());
    std::vector<float> want(n);
    for (size_t id = 0; id < n; ++id) {
      float dot = 0.0f;
      for (size_t cb = 0; cb < m; ++cb) dot += lut[cb * k + codes[id][cb]];
      want[id] = ReconstructionNorm(codebooks, codes[id]) - 2.0f * dot;
    }
    for (const AdcIndex* store : stores) {
      std::vector<float> got;
      store->ComputeScores(query.data(), &got);
      ASSERT_EQ(got.size(), n);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
          << "k=" << k << (store == stores[0] ? " flat" : " ivf");
    }
  }
}

// The masked fast path (prune kernel against a snapshot of the heap's worst,
// then the per-item test against the live heap) re-scores exactly the items
// a per-item scan re-scores: same hits, bit for bit, and the same work
// counters, on flat and IVF stores, at every table width, heap size and
// chunking — including chunks of one item and a single unpolled chunk —
// and on an item planted exactly on the pruning boundary.
TEST_F(AdcIndexTest, PrunedScanMatchesPerItemReference) {
  Rng rng(23);
  const size_t n = 1500, m = 4, d = 8;
  const std::vector<size_t> top_ks = {1, 10, 50, n + 5};
  const std::vector<size_t> check_everys = {1, 31, 1024, SIZE_MAX};
  for (const size_t k : {16u, 64u, 256u}) {
    std::vector<Matrix> codebooks;
    for (size_t cb = 0; cb < m; ++cb) {
      codebooks.push_back(Matrix::RandomGaussian(k, d, rng));
    }
    std::vector<std::vector<uint32_t>> codes(n, std::vector<uint32_t>(m));
    for (auto& item : codes) {
      for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(k));
    }
    auto flat = AdcIndex::Build(codebooks, codes);
    ASSERT_TRUE(flat.ok());
    ASSERT_STRNE(flat.value().scan_kernel_name(), "off");
    IvfOptions opts;
    opts.num_cells = 8;
    opts.nprobe = 3;
    auto ivf = IvfAdcIndex::Build(Matrix::RandomGaussian(n, d, rng), codebooks,
                                  codes, opts);
    ASSERT_TRUE(ivf.ok());

    std::vector<uint32_t> flat_ids(n);
    std::iota(flat_ids.begin(), flat_ids.end(), 0u);
    // The store's slot -> stored id map, read back through ToStoredIds.
    std::vector<SearchHit> slot_map(n);
    for (size_t s = 0; s < n; ++s) slot_map[s] = {static_cast<uint32_t>(s), 0};
    ivf.value().store().ToStoredIds(&slot_map);
    std::vector<uint32_t> ivf_ids(n);
    for (size_t s = 0; s < n; ++s) ivf_ids[s] = slot_map[s].id;

    for (int q = 0; q < 2; ++q) {
      const Matrix query = Matrix::RandomGaussian(1, d, rng);
      for (const size_t top_k : top_ks) {
        for (const size_t check_every : check_everys) {
          SCOPED_TRACE(::testing::Message()
                       << "k=" << k << " top_k=" << top_k
                       << " check_every=" << check_every);
          ScanControl control;
          control.check_every_items = check_every;
          {
            SCOPED_TRACE("flat");
            ScanStats stats;
            control.stats = &stats;
            auto got = flat.value().SearchSlots(query.data(), top_k, control);
            ASSERT_TRUE(got.ok());
            ExpectSameScan(
                got.value(), stats,
                PerItemReference(codebooks, codes, flat_ids,
                                 {SlotRange{0, static_cast<uint32_t>(n), 0}},
                                 query.data(), top_k, check_every));
          }
          for (const size_t nprobe : {opts.nprobe, ivf.value().num_cells()}) {
            SCOPED_TRACE(::testing::Message() << "ivf nprobe=" << nprobe);
            ScanStats stats;
            control.stats = &stats;
            auto got = ivf.value().SearchSlots(query.data(), top_k, control,
                                               nprobe);
            ASSERT_TRUE(got.ok());
            const std::vector<SlotRange> probes =
                ivf.value().Probes(query.data(), nprobe);
            PerItemScan want =
                PerItemReference(codebooks, codes, ivf_ids, probes,
                                 query.data(), top_k, check_every);
            want.stats.probed_cells = probes.size();
            ExpectSameScan(got.value(), stats, want);
          }
        }
      }
    }
  }

  PlantedBoundary planted;
  ASSERT_NO_FATAL_FAILURE(PlantBoundaryItem(rng, &planted));
  auto built = AdcIndex::Build(planted.codebooks, planted.codes);
  ASSERT_TRUE(built.ok());
  ASSERT_STRNE(built.value().scan_kernel_name(), "off");
  const size_t planted_n = planted.codes.size();
  std::vector<uint32_t> ids(planted_n);
  std::iota(ids.begin(), ids.end(), 0u);
  for (const size_t check_every : check_everys) {
    SCOPED_TRACE(::testing::Message()
                 << "planted boundary, check_every=" << check_every);
    ScanControl control;
    control.check_every_items = check_every;
    ScanStats stats;
    control.stats = &stats;
    auto got = built.value().SearchSlots(planted.query.data(), 1, control);
    ASSERT_TRUE(got.ok());
    const PerItemScan want = PerItemReference(
        planted.codebooks, planted.codes, ids,
        {SlotRange{0, static_cast<uint32_t>(planted_n), 0}},
        planted.query.data(), 1, check_every);
    ASSERT_GE(want.stats.shortlist, 2u) << "the planted item is re-scored";
    ExpectSameScan(got.value(), stats, want);
  }
}

TEST(FlatIndexTieTest, TiedDistancesBreakByAscendingId) {
  // Four copies of each of three distinct rows; k = 6 cuts the second
  // group in half.
  Matrix db(12, 3);
  for (size_t i = 0; i < 12; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      db.at(i, j) = static_cast<float>(i / 4);
    }
  }
  index::FlatIndex idx(db);
  const float q[3] = {0.1f, 0.1f, 0.1f};
  const auto hits = idx.Search(q, 6);
  ASSERT_EQ(hits.size(), 6u);
  const uint32_t want[6] = {0, 1, 2, 3, 4, 5};
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(hits[i].id, want[i]);
}

TEST_F(AdcIndexTest, MemoryAccountingMatchesFormula) {
  // 4KMd + code storage + 4n (§IV-A), the exact sum of what the index
  // holds. With K <= 256 the codes live once, in the blocked fast-scan
  // layout: one byte per code — the packed size at the paper's K=256 —
  // plus tail-block padding (§12).
  auto built = AdcIndex::Build(codebooks_, codes_);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built.value().MemoryBytes(),
            4 * kK * kM * kD +
                kernels::NumBlocks(kN) * kM * kernels::kBlockItems + 4 * kN);

  // K > 256 has no byte codes: the packed bits are the store.
  const size_t wide_k = 300;
  Rng rng(43);
  std::vector<Matrix> wide_books;
  for (size_t m = 0; m < kM; ++m) {
    wide_books.push_back(Matrix::RandomGaussian(wide_k, kD, rng));
  }
  auto wide_codes = codes_;
  for (auto& item : wide_codes) item[0] = wide_k - 1;
  auto wide = AdcIndex::Build(wide_books, wide_codes);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide.value().MemoryBytes(),
            4 * wide_k * kM * kD + PackedCodes(kN, kM, wide_k).MemoryBytes() +
                4 * kN);
}

TEST_F(AdcIndexTest, SaveLoadRoundTrip) {
  auto built = AdcIndex::Build(codebooks_, codes_);
  ASSERT_TRUE(built.ok());
  const std::string path = TempPath("adc_index.bin");
  ASSERT_TRUE(built.value().Save(path).ok());

  auto loaded = AdcIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::vector<float> a, b;
  built.value().ComputeScores(query_.data(), &a);
  loaded.value().ComputeScores(query_.data(), &b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
  std::remove(path.c_str());
}

TEST_F(AdcIndexTest, LoadRejectsCorruptFile) {
  const std::string path = TempPath("corrupt.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[] = "not an index";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_FALSE(AdcIndex::Load(path).ok());
  std::remove(path.c_str());
  // Unreadable file: surfaced as the reader's I/O error, not "bad magic".
  auto missing = AdcIndex::Load("/nonexistent/path/x.bin");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().message().find("bad magic"), std::string::npos)
      << missing.status().ToString();
}

TEST(FlatIndexTest, ExactNearestNeighbor) {
  Rng rng(5);
  Matrix db = Matrix::RandomGaussian(100, 12, rng);
  index::FlatIndex idx(db);
  // Query equal to row 33 must retrieve row 33 first.
  const auto hits = idx.Search(db.row(33), 3);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].id, 33u);
}

TEST(FlatIndexTest, ScoresAreRankEquivalentToTrueDistance) {
  Rng rng(6);
  Matrix db = Matrix::RandomGaussian(30, 5, rng);
  Matrix q = Matrix::RandomGaussian(1, 5, rng);
  index::FlatIndex idx(db);
  std::vector<float> scores;
  idx.ComputeScores(q.data(), &scores);
  const Matrix d2 = q.SquaredEuclideanTo(db);
  // score + ||q||^2 == squared distance.
  const float q2 = q.SquaredNorm();
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_NEAR(scores[i] + q2, d2.at(0, i), 1e-3f);
  }
}

TEST(HammingIndexTest, DistanceMatchesBitDifferences) {
  Matrix raw(3, 4, {1, -1, 1, -1,   // code 0101 (bit b set iff > 0)
                    1, 1, 1, 1,     // code 1111
                    -1, -1, -1, -1});  // code 0000
  size_t blocks = 0;
  auto packed = index::PackSignBits(raw, &blocks);
  index::HammingIndex idx(std::move(packed), blocks, 4);

  Matrix qraw(1, 4, {1.0f, -1.0f, 1.0f, -1.0f});
  size_t qblocks = 0;
  auto q = index::PackSignBits(qraw, &qblocks);
  std::vector<float> scores;
  idx.ComputeScores(q.data(), &scores);
  EXPECT_FLOAT_EQ(scores[0], 0.0f);
  EXPECT_FLOAT_EQ(scores[1], 2.0f);
  EXPECT_FLOAT_EQ(scores[2], 2.0f);
}

TEST(HammingIndexTest, WideCodesSpanMultipleBlocks) {
  Rng rng(7);
  const size_t bits = 130;  // 3 uint64 blocks
  Matrix raw = Matrix::RandomGaussian(20, bits, rng);
  size_t blocks = 0;
  auto packed = index::PackSignBits(raw, &blocks);
  EXPECT_EQ(blocks, 3u);
  index::HammingIndex idx(std::move(packed), blocks, bits);
  // Self-query has distance zero.
  size_t qb = 0;
  auto self = index::PackSignBits(raw.RowCopy(7), &qb);
  std::vector<float> scores;
  idx.ComputeScores(self.data(), &scores);
  EXPECT_FLOAT_EQ(scores[7], 0.0f);
  const auto ranking = idx.RankAll(self.data());
  EXPECT_EQ(ranking[0], 7u);
}

}  // namespace
}  // namespace lightlt::index
