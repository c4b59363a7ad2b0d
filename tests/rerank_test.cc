// The serving re-rank's arithmetic: every ReconstructionDistances variant
// this host dispatches against the verbatim old loop (reference_rerank.h),
// and ReplicaSearcher's served hits against a re-rank the test computes
// itself from the same pool, including the packed K > 256 store, pools of
// several check pieces and controls that stop the re-rank.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/serving/shard.h"
#include "src/tensor/dense_product.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"
#include "tests/reference_rerank.h"

namespace lightlt {
namespace {

// Gaussian entries with zeros (a tenth), and, about once in 2000 entries
// each, NaN, ±Inf, −0 and denormals, so most candidates stay finite and
// some carry a special. Every NaN is the one this CPU's arithmetic produces
// (Inf − Inf), so memcmp does not depend on which NaN operand an add
// propagates.
std::vector<float> PlantedRow(size_t size, Rng& rng) {
  volatile float inf = std::numeric_limits<float>::infinity();
  const float nan = inf - inf;
  const float specials[] = {nan,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -3e-39f,
                            1e-40f};
  std::vector<float> out(size);  // exact size: ASan sees any over-read
  for (float& v : out) {
    const size_t draw = rng.NextIndex(20000);
    if (draw < 2000) {
      v = 0.0f;
    } else if (draw < 2007) {
      v = specials[draw - 2000];
    } else {
      v = static_cast<float>(rng.NextGaussian());
    }
  }
  return out;
}

// Runs every variant on (query, words) and compares all n outputs with the
// verbatim loop by memcmp; the outputs sit between guard floats that no
// variant may write.
void ExpectVariantsMatchReference(const std::vector<float>& query,
                                  const std::vector<const float*>& words,
                                  size_t n, size_t m, size_t d,
                                  const std::string& what) {
  std::vector<float> want(n);
  for (size_t i = 0; i < n; ++i) {
    want[i] = testing_ref::ReferenceRerankDistance(query.data(),
                                                   words.data() + i * m, m, d);
  }
  constexpr size_t kGuard = 16;
  for (const DenseKernel& kernel : AvailableDenseKernels()) {
    std::vector<float> got(n + 2 * kGuard, -7.0f);
    kernel.reconstruction(query.data(), words.data(), n, m, d,
                          got.data() + kGuard);
    EXPECT_EQ(std::memcmp(got.data() + kGuard, want.data(),
                          n * sizeof(float)),
              0)
        << kernel.name << " " << what;
    for (size_t g = 0; g < kGuard; ++g) {
      EXPECT_EQ(got[g], -7.0f) << kernel.name << " wrote before out, " << what;
      EXPECT_EQ(got[kGuard + n + g], -7.0f)
          << kernel.name << " wrote past out, " << what;
    }
  }
}

// Every dispatched variant returns the old loop's bits on ragged candidate
// counts (lane groups of 8 and 16 and their tails), ragged dimensions and
// 1–16 codebooks, with planted specials. Beside the random candidates each
// shape plants:
// - one whose reconstruction equals the query except at every third
//   coordinate, where the two differ by about 1e-21, so every nonzero
//   square and every partial sum is denormal;
// - one whose codewords and query are all −0. Its reconstruction is
//   0.0f + −0 = +0 in the reference. The squares erase the sign of a zero,
//   so no output can tell +0 from −0 there; the case pins that the −0
//   operands produce +0, not NaN or garbage;
// - one that repeats another candidate's rows, which must score the same
//   bits in another lane.
TEST(ReconstructionDistancesTest, VariantsMatchParentLoop) {
  const std::vector<DenseKernel> kernels = AvailableDenseKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.back().name, "scalar");
  constexpr size_t kWords = 24;  // codewords per codebook
  Rng rng(41);
  for (size_t m : {1, 2, 4, 8, 16}) {
    for (size_t d : {1, 15, 16, 17, 63, 64, 65}) {
      // One exact-size buffer per codeword row.
      std::vector<std::vector<float>> rows;
      for (size_t r = 0; r < m * kWords; ++r) {
        rows.push_back(PlantedRow(d, rng));
      }
      std::vector<float> query = PlantedRow(d, rng);
      // Rows kWords*cb + 0 and + 1 are the planted near and −0 candidates'.
      // The near candidate's first codebook row is the query except at
      // every third coordinate, where the query is tiny and the row 0.
      std::vector<float> zeros(d, 0.0f);
      std::vector<float> near(query);
      bool finite_query = true;
      for (size_t t = 0; t < d; ++t) {
        if (t % 3 == 0) {
          query[t] = 1e-21f * static_cast<float>(1 + t % 5);
          near[t] = 0.0f;
        }
        finite_query = finite_query && std::isfinite(query[t]);
      }
      std::vector<float> negative_zeros(d, -0.0f);
      for (size_t cb = 0; cb < m; ++cb) {
        rows[cb * kWords] = cb == 0 ? near : zeros;
        rows[cb * kWords + 1] = negative_zeros;
      }
      for (size_t n : {1, 7, 8, 9, 15, 16, 17, 50, 64, 65}) {
        std::vector<const float*> words(n * m);
        for (size_t i = 0; i < n; ++i) {
          for (size_t cb = 0; cb < m; ++cb) {
            words[i * m + cb] =
                rows[cb * kWords + 2 + rng.NextIndex(kWords - 2)].data();
          }
        }
        if (n > 2) {
          for (size_t cb = 0; cb < m; ++cb) {
            words[1 * m + cb] = rows[cb * kWords].data();
            words[(n - 1) * m + cb] = words[0 * m + cb];
          }
        }
        ExpectVariantsMatchReference(
            query, words, n, m, d,
            "m=" + std::to_string(m) + " d=" + std::to_string(d) +
                " n=" + std::to_string(n));
        // The same shapes with a −0 query against the −0 candidate.
        if (n > 3) {
          std::vector<float> zero_query(d, -0.0f);
          for (size_t cb = 0; cb < m; ++cb) {
            words[2 * m + cb] = rows[cb * kWords + 1].data();
          }
          ExpectVariantsMatchReference(
              zero_query, words, n, m, d,
              "-0 query m=" + std::to_string(m) + " d=" + std::to_string(d) +
                  " n=" + std::to_string(n));
        }
      }
      // The planted near candidate really sums denormals (the variants'
      // bits for it were pinned above).
      if (finite_query) {
        std::vector<const float*> near_words(m);
        for (size_t cb = 0; cb < m; ++cb) {
          near_words[cb] = rows[cb * kWords].data();
        }
        const float s = testing_ref::ReferenceRerankDistance(
            query.data(), near_words.data(), m, d);
        EXPECT_GT(s, 0.0f) << "m=" << m << " d=" << d;
        EXPECT_LT(s, std::numeric_limits<float>::min())
            << "m=" << m << " d=" << d;
      }
    }
  }
}

// Two candidates whose distances tie exactly when every product and add
// rounds on its own, but not under a fused multiply-add: with difference
// rows (…, a, b, …) and (…, b, a, …) and zeros elsewhere, the unfused sums
// are round(round(a²) + round(b²)) both ways, while fused sums are
// round(round(a²) + b²) and round(round(b²) + a²), which differ for the a, b
// drawn here. A kernel contracted to FMA breaks the tie.
TEST(ReconstructionDistancesTest, SumsTieOnlyWithoutFma) {
  Rng rng(43);
  for (size_t d : {2, 15, 16, 17, 64, 65}) {
    for (size_t m : {1, 4}) {
      float a = 0.0f, b = 0.0f;
      do {
        a = static_cast<float>(rng.NextGaussian()) * 3.0f;
        b = static_cast<float>(rng.NextGaussian()) * 3.0f;
      } while (std::fma(b, b, a * a) == std::fma(a, a, b * b));
      // The pair sits at the last two coordinates (a ragged tail for
      // d % 16 != 0); the query is zero, so each difference is −(Σ words).
      const size_t t0 = d - 2;
      std::vector<float> query(d, 0.0f);
      std::vector<float> zeros(d, 0.0f);
      std::vector<float> first(d, 0.0f), second(d, 0.0f);
      first[t0] = -a;
      first[t0 + 1] = -b;
      second[t0] = -b;
      second[t0 + 1] = -a;
      for (size_t n : {2, 17}) {
        std::vector<const float*> words(n * m, zeros.data());
        words[0] = first.data();
        words[(n - 1) * m] = second.data();
        ExpectVariantsMatchReference(query, words, n, m, d,
                                     "tie d=" + std::to_string(d) +
                                         " m=" + std::to_string(m) +
                                         " n=" + std::to_string(n));
        for (const DenseKernel& kernel : AvailableDenseKernels()) {
          std::vector<float> got(n);
          kernel.reconstruction(query.data(), words.data(), n, m, d,
                                got.data());
          EXPECT_EQ(std::memcmp(&got[0], &got[n - 1], sizeof(float)), 0)
              << kernel.name << " d=" << d << " m=" << m << " n=" << n;
        }
      }
    }
  }
}

// No candidates write nothing; no codebooks measure ‖q‖²; d = 0 gives +0.
TEST(ReconstructionDistancesTest, EmptyShapes) {
  const std::vector<float> query = {1.5f, -2.0f, 0.25f};
  for (const DenseKernel& kernel : AvailableDenseKernels()) {
    float untouched = -7.0f;
    kernel.reconstruction(query.data(), nullptr, 0, 4, 3, &untouched);
    EXPECT_EQ(untouched, -7.0f) << kernel.name;
    std::vector<const float*> none;
    std::vector<float> norms(3, -7.0f);
    kernel.reconstruction(query.data(), none.data(), 3, 0, 3, norms.data());
    for (float v : norms) EXPECT_EQ(v, 1.5f * 1.5f + 4.0f + 0.0625f);
    std::vector<float> word(1);
    std::vector<const float*> words(5, word.data());
    std::vector<float> empty(5, -7.0f);
    kernel.reconstruction(query.data(), words.data(), 5, 1, 0, empty.data());
    for (float v : empty) {
      EXPECT_EQ(std::signbit(v), false);
      EXPECT_EQ(v, 0.0f) << kernel.name;
    }
  }
}

// AdcIndex::ReconstructionDistances returns, for every hit, the bits of the
// old loop over Reconstruct(slot): on the blocked store, on the packed
// K > 256 store, and with more codebooks than its stack buffer holds rows
// for, where it gathers one candidate per kernel call into a heap buffer.
TEST(ReconstructionDistancesTest, IndexHelperMatchesReconstruct) {
  struct Shape {
    size_t n, m, k, d;
  };
  Rng rng(61);
  for (const Shape& s : {Shape{300, 4, 64, 33}, Shape{200, 2, 300, 16},
                         Shape{70, 1030, 2, 3}}) {
    std::vector<Matrix> codebooks;
    for (size_t cb = 0; cb < s.m; ++cb) {
      codebooks.push_back(Matrix::RandomGaussian(s.k, s.d, rng));
    }
    std::vector<std::vector<uint32_t>> codes(s.n, std::vector<uint32_t>(s.m));
    for (auto& item : codes) {
      for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(s.k));
    }
    auto idx = index::AdcIndex::Build(codebooks, codes);
    ASSERT_TRUE(idx.ok()) << "m=" << s.m;
    const Matrix query = Matrix::RandomGaussian(1, s.d, rng);
    std::vector<index::SearchHit> hits;
    for (size_t i = 0; i < 130; ++i) {
      hits.push_back({static_cast<uint32_t>(rng.NextIndex(s.n)), 0.0f});
    }
    std::vector<float> got(hits.size());
    idx.value().ReconstructionDistances(query.data(), hits, got.data());
    for (size_t i = 0; i < hits.size(); ++i) {
      const Matrix recon = idx.value().Reconstruct(hits[i].id);
      float dist = 0.0f;
      for (size_t j = 0; j < s.d; ++j) {
        const float diff = query[j] - recon[j];
        dist += diff * diff;
      }
      EXPECT_EQ(std::memcmp(&got[i], &dist, sizeof(float)), 0)
          << "m=" << s.m << " k=" << s.k << " hit " << i;
    }
  }
}

}  // namespace

namespace serving {
namespace {

// A random partition: Gaussian embeddings (for the IVF coarse quantizer),
// codebooks and codes, with duplicated items so the re-rank meets exact
// distance ties that only the id breaks.
struct Partition {
  Matrix embedded;
  std::vector<Matrix> codebooks;
  std::vector<std::vector<uint32_t>> codes;
};

Partition MakePartition(size_t n, size_t m, size_t k, size_t d, Rng& rng) {
  Partition p;
  p.embedded = Matrix::RandomGaussian(n, d, rng);
  for (size_t cb = 0; cb < m; ++cb) {
    p.codebooks.push_back(Matrix::RandomGaussian(k, d, rng));
  }
  p.codes.assign(n, std::vector<uint32_t>(m));
  for (auto& item : p.codes) {
    for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(k));
  }
  for (size_t i = 0; i < n; i += 7) p.codes[i] = p.codes[i / 2];
  return p;
}

Result<std::vector<index::SearchHit>> SearchOnce(const ReplicaSearcher& s,
                                                 const float* query,
                                                 size_t top_k,
                                                 const ScanControl& control) {
  return s.Search(query, top_k, control, /*degraded=*/false, nullptr, nullptr,
                  nullptr);
}

void ExpectSameHits(const std::vector<index::SearchHit>& got,
                    const std::vector<index::SearchHit>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    EXPECT_EQ(std::memcmp(&got[i].distance, &want[i].distance, sizeof(float)),
              0)
        << what << " rank " << i << ": " << got[i].distance << " vs "
        << want[i].distance;
  }
}

// A searcher with the exact re-rank serves the reference re-rank of the
// pool the same searcher serves without it: ids and distance bits, flat and
// IVF, on the blocked store and on the packed K > 256 store, with pools of
// one piece (50) and of three pieces (130, checked against a live deadline
// before each piece).
TEST(RerankServingTest, ServedHitsMatchReferenceRerank) {
  Rng rng(47);
  struct Case {
    const char* what;
    size_t n, m, k, d;
    bool ivf;
  };
  const Case cases[] = {
      {"flat K=64", 900, 4, 64, 24, false},
      {"ivf K=64", 900, 4, 64, 24, true},
      {"flat packed K=512", 700, 2, 512, 17, false},
  };
  for (const Case& c : cases) {
    const Partition p = MakePartition(c.n, c.m, c.k, c.d, rng);
    for (size_t pool : {50, 130}) {
      SearcherOptions plain;
      plain.use_ivf = c.ivf;
      plain.ivf.num_cells = 12;
      plain.ivf.nprobe = 5;
      SearcherOptions rerank = plain;
      rerank.exact_rerank = true;
      rerank.rerank_pool = pool;
      auto without = ReplicaSearcher::Build(p.embedded, p.codebooks, p.codes,
                                            plain);
      auto with = ReplicaSearcher::Build(p.embedded, p.codebooks, p.codes,
                                         rerank);
      ASSERT_TRUE(without.ok() && with.ok()) << c.what;
      ScanControl live;
      live.deadline = Deadline::After(3600.0);
      for (size_t q = 0; q < 12; ++q) {
        const Matrix query = Matrix::RandomGaussian(1, c.d, rng);
        for (size_t top_k : {1, 10, 60}) {
          auto candidates = SearchOnce(without.value(), query.data(),
                                       std::max(top_k, pool), ScanControl{});
          ASSERT_TRUE(candidates.ok());
          ASSERT_EQ(candidates.value().size(), std::max(top_k, pool));
          const auto want = testing_ref::ReferenceRerank(
              query.data(), candidates.value(), p.codebooks, p.codes, top_k);
          const std::string what = std::string(c.what) +
                                   " pool=" + std::to_string(pool) +
                                   " top_k=" + std::to_string(top_k) +
                                   " q=" + std::to_string(q);
          for (const ScanControl& control : {ScanControl{}, live}) {
            auto got = SearchOnce(with.value(), query.data(), top_k, control);
            ASSERT_TRUE(got.ok()) << what;
            ExpectSameHits(got.value(), want, what);
          }
        }
      }
    }
  }
}

// A control that has run out by the time the re-rank polls it stops the
// request with exactly its status and no hits. The flat scan of one chunk
// never polls, so the re-rank's first check is the request's first check:
// the same control lets a searcher without the re-rank serve.
TEST(RerankServingTest, ExpiredOrCancelledControlStopsRerank) {
  Rng rng(53);
  const Partition p = MakePartition(400, 4, 64, 16, rng);
  SearcherOptions plain;
  SearcherOptions rerank;
  rerank.exact_rerank = true;
  rerank.rerank_pool = 130;
  auto without = ReplicaSearcher::Build(p.embedded, p.codebooks, p.codes,
                                        plain);
  auto with = ReplicaSearcher::Build(p.embedded, p.codebooks, p.codes, rerank);
  ASSERT_TRUE(without.ok() && with.ok());
  const Matrix query = Matrix::RandomGaussian(1, 16, rng);

  ScanControl expired;
  expired.deadline = Deadline::After(-1.0);
  expired.check_every_items = std::numeric_limits<size_t>::max();
  CancellationSource source;
  source.RequestCancellation();
  ScanControl cancelled;
  cancelled.cancel = source.token();
  cancelled.check_every_items = std::numeric_limits<size_t>::max();
  ScanControl both = expired;
  both.cancel = source.token();
  struct Case {
    const char* what;
    const ScanControl& control;
    StatusCode code;
  };
  const Case cases[] = {{"expired", expired, StatusCode::kDeadlineExceeded},
                        {"cancelled", cancelled, StatusCode::kCancelled},
                        {"both", both, StatusCode::kCancelled}};
  for (const Case& c : cases) {
    for (size_t top_k : {1, 10, 200}) {
      auto served = SearchOnce(without.value(), query.data(), top_k, c.control);
      ASSERT_TRUE(served.ok()) << c.what << ": " << served.status().ToString();
      EXPECT_EQ(served.value().size(), top_k);
      auto stopped = SearchOnce(with.value(), query.data(), top_k, c.control);
      ASSERT_FALSE(stopped.ok()) << c.what << " top_k=" << top_k;
      EXPECT_EQ(stopped.status().code(), c.code) << c.what;
    }
  }
}

// A deadline that expires while a three-piece re-rank runs: every request
// either serves the full reference answer or fails with kDeadlineExceeded,
// never a partly re-ranked list.
TEST(RerankServingTest, DeadlineDuringRerankServesAllOrNothing) {
  Rng rng(59);
  const Partition p = MakePartition(3000, 4, 64, 32, rng);
  SearcherOptions plain;
  SearcherOptions rerank;
  rerank.exact_rerank = true;
  rerank.rerank_pool = 130;
  auto without = ReplicaSearcher::Build(p.embedded, p.codebooks, p.codes,
                                        plain);
  auto with = ReplicaSearcher::Build(p.embedded, p.codebooks, p.codes, rerank);
  ASSERT_TRUE(without.ok() && with.ok());
  size_t served = 0, expired = 0;
  for (size_t q = 0; q < 300; ++q) {
    const Matrix query = Matrix::RandomGaussian(1, 32, rng);
    auto candidates = SearchOnce(without.value(), query.data(), 130,
                                 ScanControl{});
    ASSERT_TRUE(candidates.ok());
    const auto want = testing_ref::ReferenceRerank(
        query.data(), candidates.value(), p.codebooks, p.codes, 10);
    ScanControl control;
    control.check_every_items = std::numeric_limits<size_t>::max();
    control.deadline = Deadline::After(1e-6 * static_cast<double>(q % 60));
    auto got = SearchOnce(with.value(), query.data(), 10, control);
    if (got.ok()) {
      ++served;
      ExpectSameHits(got.value(), want, "q=" + std::to_string(q));
    } else {
      ++expired;
      EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
    }
  }
  EXPECT_EQ(served + expired, 300u);
}

}  // namespace
}  // namespace serving
}  // namespace lightlt
