// Property tests for the fast-scan kernels (DESIGN.md §12): the blocked
// layout round-trips, every SIMD kernel produces bit-identical u16 sums and
// survivor masks to the scalar reference across random shapes, odd tails
// and lanes on the pruning boundary, the quantized
// LUT honours its error bound, and the kernel-backed Search returns exactly
// the same top-k as the exact scalar scan — including the K > 256 fallback.
//
// This suite runs under ASan (tools/run_fault_injection.sh) and TSan
// (tools/run_tsan.sh) as well as the plain tier-1 build.

#include "src/index/kernels/scan_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/index/adc_index.h"
#include "src/index/ivf_index.h"
#include "src/obs/metrics.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"

namespace lightlt::index {
namespace {

namespace kn = ::lightlt::index::kernels;

TEST(ScanKernelsTest, PadCodewordsTiers) {
  EXPECT_EQ(kn::PadCodewords(2), 16u);
  EXPECT_EQ(kn::PadCodewords(16), 16u);
  EXPECT_EQ(kn::PadCodewords(17), 64u);
  EXPECT_EQ(kn::PadCodewords(64), 64u);
  EXPECT_EQ(kn::PadCodewords(65), 256u);
  EXPECT_EQ(kn::PadCodewords(256), 256u);
  EXPECT_EQ(kn::PadCodewords(257), 0u);
}

TEST(ScanKernelsTest, BlockedLayoutRoundTripsWithZeroTail) {
  Rng rng(11);
  for (const size_t n : {1u, 31u, 32u, 33u, 95u, 128u}) {
    for (const size_t m : {1u, 3u, 8u}) {
      std::vector<uint8_t> item_major(n * m);
      for (auto& c : item_major) {
        c = static_cast<uint8_t>(rng.NextIndex(200) + 1);  // nonzero
      }
      std::vector<uint8_t> blocked;
      kn::BuildBlockedCodes(item_major.data(), n, m, &blocked);
      ASSERT_EQ(blocked.size(), kn::NumBlocks(n) * m * kn::kBlockItems);
      for (size_t i = 0; i < n; ++i) {
        for (size_t cb = 0; cb < m; ++cb) {
          EXPECT_EQ(kn::BlockedCodeAt(blocked.data(), m, i, cb),
                    item_major[i * m + cb]);
        }
      }
      // Tail lanes are code 0, a valid index into any table.
      const size_t padded = kn::NumBlocks(n) * kn::kBlockItems;
      for (size_t i = n; i < padded; ++i) {
        for (size_t cb = 0; cb < m; ++cb) {
          EXPECT_EQ(kn::BlockedCodeAt(blocked.data(), m, i, cb), 0u);
        }
      }
    }
  }
}

TEST(ScanKernelsTest, KernelNamesResolveAndUnknownIsOff) {
  EXPECT_TRUE(kn::ScanKernelSupported("scalar"));
  for (const size_t kp : {16u, 64u, 256u}) {
    EXPECT_NE(kn::ScanKernelByName("scalar", kp).fn, nullptr);
  }
  EXPECT_EQ(kn::ScanKernelByName("not-a-kernel", 16).fn, nullptr);
  EXPECT_EQ(kn::SelectScanKernel(0).fn, nullptr);  // K > 256: no fast path
  for (const std::string& name : kn::AvailableScanKernels()) {
    EXPECT_TRUE(kn::ScanKernelSupported(name)) << name;
    EXPECT_NE(kn::ScanKernelByName(name, 16).fn, nullptr) << name;
  }
  // The startup selection names a kernel from the available set.
  const kn::ScanKernel picked = kn::SelectScanKernel(16);
  if (picked.fn != nullptr) {
    bool found = false;
    for (const std::string& name : kn::AvailableScanKernels()) {
      found = found || name == picked.name;
    }
    EXPECT_TRUE(found) << picked.name;
  }
}

// Every compiled-in kernel family must produce bit-identical u16 sums to
// the scalar reference — integer arithmetic has one answer — across random
// table contents, all padded widths, odd item tails, and m up to the u16
// overflow boundary.
TEST(ScanKernelsTest, SimdKernelsMatchScalarBitExactly) {
  Rng rng(12);
  const std::vector<std::string> families = kn::AvailableScanKernels();
  for (const size_t k : {5u, 16u, 40u, 64u, 100u, 256u}) {
    const size_t kp = kn::PadCodewords(k);
    ASSERT_NE(kp, 0u);
    for (const size_t n : {1u, 17u, 32u, 33u, 257u}) {
      for (const size_t m : {1u, 4u, 7u}) {
        std::vector<uint8_t> item_major(n * m);
        for (auto& c : item_major) {
          c = static_cast<uint8_t>(rng.NextIndex(k));
        }
        std::vector<uint8_t> blocked;
        kn::BuildBlockedCodes(item_major.data(), n, m, &blocked);
        std::vector<uint8_t> table(m * kp);
        for (auto& t : table) t = static_cast<uint8_t>(rng.NextIndex(256));

        const size_t lanes = kn::NumBlocks(n) * kn::kBlockItems;
        std::vector<uint16_t> want(lanes, 0xABCD);
        const kn::ScanKernel scalar = kn::ScanKernelByName("scalar", kp);
        ASSERT_NE(scalar.fn, nullptr);
        scalar.fn(blocked.data(), kn::NumBlocks(n), m, kp, table.data(),
                  want.data());

        // Cross-check the scalar kernel against a plain loop once.
        for (size_t i = 0; i < n; ++i) {
          uint32_t acc = 0;
          for (size_t cb = 0; cb < m; ++cb) {
            acc += table[cb * kp + item_major[i * m + cb]];
          }
          ASSERT_EQ(want[i], acc) << "scalar kernel i=" << i;
        }

        for (const std::string& name : families) {
          const kn::ScanKernel kernel = kn::ScanKernelByName(name, kp);
          if (kernel.fn == nullptr) continue;  // no impl at this width
          std::vector<uint16_t> got(lanes, 0x1234);
          kernel.fn(blocked.data(), kn::NumBlocks(n), m, kp, table.data(),
                    got.data());
          for (size_t i = 0; i < lanes; ++i) {
            ASSERT_EQ(got[i], want[i])
                << name << " k=" << k << " n=" << n << " m=" << m
                << " lane=" << i;
          }
        }
      }
    }
  }
}

// approx - bound for one item, one rounding per operation in ApproxScore's
// order. The volatile temporaries keep this file's compiler from fusing
// them; the kernels themselves build with -ffp-contract=off.
float PruneValue(uint16_t sum, float norm, float scale, float bias_sum,
                 float bound) {
  volatile float t = static_cast<float>(sum) * scale;
  t = t + bias_sum;
  t = 2.0f * t;
  t = norm - t;
  return t - bound;
}

bool MaskBit(const std::vector<uint32_t>& masks, size_t i) {
  return ((masks[i / kn::kBlockItems] >> (i % kn::kBlockItems)) & 1u) != 0;
}

// Every family's survivor masks equal the scalar prune's, bit for bit, on
// random sums and norms and on lanes planted exactly at the pruning
// boundary. The sums and norms live in exact-size heap buffers, so ASan's
// redzone right past the last item is the sentinel a tail over-read trips;
// a sentinel word past the masks catches an over-write.
TEST(ScanKernelsTest, SimdPruneMatchesScalarBitExactly) {
  Rng rng(17);
  const kn::PruneFn scalar = kn::ScanKernelByName("scalar", 16).prune;
  ASSERT_NE(scalar, nullptr);
  constexpr uint32_t kSentinel = 0xDEADBEEFu;
  const float inf = std::numeric_limits<float>::infinity();
  for (const size_t count : {1u, 17u, 31u, 32u, 33u, 1000u}) {
    const size_t m = 4;
    const float scale = 0.002f + 0.01f * rng.NextFloat();
    const float bias_sum = static_cast<float>(rng.NextGaussian());
    const float bound = scale * static_cast<float>(m) * 1.001f + 1e-6f;
    std::vector<uint16_t> sums(count);
    std::vector<float> norms(count);
    std::vector<float> values(count);
    for (size_t i = 0; i < count; ++i) {
      sums[i] = static_cast<uint16_t>(rng.NextIndex(m * 255 + 1));
      norms[i] = 8.0f + 2.0f * static_cast<float>(rng.NextGaussian());
    }
    // Every third lane copies lane 0, so its prune value is lane 0's bit
    // for bit: `edge` below is exactly where those lanes flip.
    for (size_t i = 3; i < count; i += 3) {
      sums[i] = sums[0];
      norms[i] = norms[0];
    }
    if (count > 1) norms[1] = std::numeric_limits<float>::quiet_NaN();
    for (size_t i = 0; i < count; ++i) {
      values[i] = PruneValue(sums[i], norms[i], scale, bias_sum, bound);
    }
    const float edge = values[0];
    std::vector<float> sorted;
    for (const float v : values) {
      if (!std::isnan(v)) sorted.push_back(v);
    }
    std::sort(sorted.begin(), sorted.end());
    const float median = sorted[sorted.size() / 2];

    for (const float worst : {edge, std::nextafter(edge, -inf),
                              std::nextafter(edge, inf), median, inf, -inf}) {
      const size_t words = kn::NumBlocks(count);
      std::vector<uint32_t> want(words + 1, kSentinel);
      scalar(sums.data(), norms.data(), count, scale, bias_sum, bound, worst,
             want.data());
      ASSERT_EQ(want[words], kSentinel) << "scalar wrote past its masks";
      for (size_t i = 0; i < count; ++i) {
        // The definition, NaN lanes included: kept unless value > worst.
        ASSERT_EQ(MaskBit(want, i), !(values[i] > worst))
            << "count=" << count << " i=" << i << " worst=" << worst;
      }
      if (count % kn::kBlockItems != 0) {
        EXPECT_EQ(want[words - 1] >> (count % kn::kBlockItems), 0u)
            << "bits past count must be clear";
      }
      for (const std::string& name : kn::AvailableScanKernels()) {
        const kn::PruneFn prune = kn::ScanKernelByName(name, 16).prune;
        ASSERT_NE(prune, nullptr) << name;
        std::vector<uint32_t> got(words + 1, kSentinel);
        prune(sums.data(), norms.data(), count, scale, bias_sum, bound, worst,
              got.data());
        for (size_t w = 0; w <= words; ++w) {
          ASSERT_EQ(got[w], want[w]) << name << " count=" << count
                                     << " word=" << w << " worst=" << worst;
        }
      }
    }
  }
}

TEST(ScanKernelsTest, QuantizedLutHonoursErrorBound) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t m = 1 + rng.NextIndex(8);
    const size_t k = 2 + rng.NextIndex(255);
    std::vector<float> lut(m * k);
    for (auto& v : lut) {
      v = static_cast<float>(rng.NextGaussian()) * 3.0f;
    }
    const kn::QuantizedLut q = kn::QuantizeLut(lut.data(), m, k);
    ASSERT_EQ(q.k_padded, kn::PadCodewords(k));
    ASSERT_GE(q.scale, 0.0f);

    // Random code vectors: the reconstructed dot must sit within half the
    // score bound of the float dot (score error is twice the dot error).
    for (int probe = 0; probe < 50; ++probe) {
      uint32_t sum = 0;
      float exact = 0.0f;
      for (size_t cb = 0; cb < m; ++cb) {
        const size_t code = rng.NextIndex(k);
        sum += q.table[cb * q.k_padded + code];
        exact += lut[cb * k + code];
      }
      const float recon = static_cast<float>(sum) * q.scale + q.bias_sum;
      EXPECT_LE(2.0f * std::abs(recon - exact), q.ScoreErrorBound() + 1e-5f);
    }
  }
  // A constant LUT quantizes to scale 0 and reconstructs exactly.
  std::vector<float> flat(3 * 4, 1.5f);
  const kn::QuantizedLut q = kn::QuantizeLut(flat.data(), 3, 4);
  EXPECT_EQ(q.scale, 0.0f);
  EXPECT_FLOAT_EQ(q.bias_sum, 4.5f);
}

// Reference top-k: exact scores sorted by (score, id) — what Search must
// return regardless of which kernel path it takes.
std::vector<SearchHit> ReferenceTopK(const AdcIndex& idx, const float* query,
                                     size_t top_k) {
  std::vector<float> scores;
  idx.ComputeScores(query, &scores);
  std::vector<uint32_t> ids(scores.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  std::sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    return scores[a] < scores[b] || (scores[a] == scores[b] && a < b);
  });
  const size_t keep = std::min(top_k, ids.size());
  std::vector<SearchHit> out(keep);
  for (size_t i = 0; i < keep; ++i) out[i] = {ids[i], scores[ids[i]]};
  return out;
}

TEST(ScanKernelsTest, FastScanSearchMatchesExactTopK) {
  Rng rng(14);
  for (const size_t k : {16u, 64u, 200u}) {
    const size_t n = 203, m = 4, d = 6;  // odd n: tail block in play
    std::vector<Matrix> codebooks;
    for (size_t cb = 0; cb < m; ++cb) {
      codebooks.push_back(Matrix::RandomGaussian(k, d, rng));
    }
    std::vector<std::vector<uint32_t>> codes(n, std::vector<uint32_t>(m));
    for (auto& item : codes) {
      for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(k));
    }
    auto built = AdcIndex::Build(codebooks, codes);
    ASSERT_TRUE(built.ok());
    const AdcIndex& idx = built.value();

    for (const size_t top_k : std::vector<size_t>{1, 10, n, n + 5}) {
      for (int t = 0; t < 3; ++t) {
        Matrix q = Matrix::RandomGaussian(1, d, rng);
        const auto want = ReferenceTopK(idx, q.data(), top_k);
        const auto got = idx.Search(q.data(), top_k);
        ASSERT_EQ(got.size(), want.size()) << "k=" << k;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].id) << "k=" << k << " i=" << i;
          EXPECT_EQ(got[i].distance, want[i].distance)
              << "k=" << k << " i=" << i;  // bit-identical, not NEAR
        }
      }
    }
  }
}

TEST(ScanKernelsTest, WideCodebookFallsBackToExactPath) {
  // K > 256 has no byte-code fast path: the kernel must report "off" and
  // Search must still return the exact, deterministically ordered top-k.
  Rng rng(15);
  const size_t n = 80, m = 2, k = 300, d = 4;
  std::vector<Matrix> codebooks;
  for (size_t cb = 0; cb < m; ++cb) {
    codebooks.push_back(Matrix::RandomGaussian(k, d, rng));
  }
  std::vector<std::vector<uint32_t>> codes(n, std::vector<uint32_t>(m));
  for (auto& item : codes) {
    for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(k));
  }
  auto built = AdcIndex::Build(codebooks, codes);
  ASSERT_TRUE(built.ok());
  EXPECT_STREQ(built.value().scan_kernel_name(), "off");

  Matrix q = Matrix::RandomGaussian(1, d, rng);
  const auto want = ReferenceTopK(built.value(), q.data(), 12);
  const auto got = built.value().Search(q.data(), 12);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].distance, want[i].distance);
  }
}

TEST(ScanKernelsTest, ControlAwareFastScanMatchesUncontrolled) {
  Rng rng(16);
  const size_t n = 150, m = 3, k = 16, d = 5;
  std::vector<Matrix> codebooks;
  for (size_t cb = 0; cb < m; ++cb) {
    codebooks.push_back(Matrix::RandomGaussian(k, d, rng));
  }
  std::vector<std::vector<uint32_t>> codes(n, std::vector<uint32_t>(m));
  for (auto& item : codes) {
    for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(k));
  }
  auto built = AdcIndex::Build(codebooks, codes);
  ASSERT_TRUE(built.ok());

  ScanControl control;
  control.check_every_items = 16;
  ScanStats stats;
  control.stats = &stats;
  Matrix q = Matrix::RandomGaussian(1, d, rng);
  auto controlled = built.value().Search(q.data(), 9, control);
  ASSERT_TRUE(controlled.ok());
  const auto plain = built.value().Search(q.data(), 9);
  ASSERT_EQ(controlled.value().size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(controlled.value()[i].id, plain[i].id);
    EXPECT_EQ(controlled.value()[i].distance, plain[i].distance);
  }
  // Chunk accounting stays item-granular even on the kernel path.
  EXPECT_EQ(stats.items, n);
  EXPECT_GE(stats.chunks, n / control.check_every_items);
}

}  // namespace
}  // namespace lightlt::index
