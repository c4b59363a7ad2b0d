// Tests for the retrieval indexes: packed codes, ADC exactness, flat
// exhaustive search, Hamming search, and serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/index/adc_index.h"
#include "src/index/codes.h"
#include "src/index/flat_index.h"
#include "src/index/hamming_index.h"
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
