// AVX2 fast-scan accumulate and prune kernels. Compiled into every build via
// function target attributes (no global -mavx2), selected at runtime only
// when the CPU reports AVX2. On non-x86 targets this TU degrades to stubs.

#include "src/index/kernels/scan_isa.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

namespace lightlt::index::kernels::detail {
namespace {

// K <= 16: one in-lane byte shuffle looks up 32 codes per codebook. The
// 16-byte table row is broadcast to both 128-bit lanes; vpshufb then reads
// table[code & 15] per byte (codes are < 16, bit 7 clear).
__attribute__((target("avx2"))) void Accumulate16Avx2(
    const uint8_t* blocked, size_t num_blocks, size_t m, size_t k_padded,
    const uint8_t* table, uint16_t* sums) {
  for (size_t b = 0; b < num_blocks; ++b) {
    const uint8_t* block = blocked + b * m * kBlockItems;
    __m256i acc_lo = _mm256_setzero_si256();  // items 0..15 as u16
    __m256i acc_hi = _mm256_setzero_si256();  // items 16..31 as u16
    for (size_t cb = 0; cb < m; ++cb) {
      const __m256i tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(table + cb * k_padded)));
      const __m256i codes = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block + cb * kBlockItems));
      const __m256i vals = _mm256_shuffle_epi8(tbl, codes);
      acc_lo = _mm256_add_epi16(
          acc_lo, _mm256_cvtepu8_epi16(_mm256_castsi256_si128(vals)));
      acc_hi = _mm256_add_epi16(
          acc_hi, _mm256_cvtepu8_epi16(_mm256_extracti128_si256(vals, 1)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sums + b * kBlockItems),
                        acc_lo);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(sums + b * kBlockItems + 16), acc_hi);
  }
}

// K <= 64: the 64-byte table row is four 16-byte chunks; each chunk is
// shuffled by the low nibble (vpshufb ignores bits 4..6) and selected by
// comparing the high nibble against the chunk index — 4 shuffles + 3 blends
// score 32 items per codebook.
__attribute__((target("avx2"))) void Accumulate64Avx2(
    const uint8_t* blocked, size_t num_blocks, size_t m, size_t k_padded,
    const uint8_t* table, uint16_t* sums) {
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  for (size_t b = 0; b < num_blocks; ++b) {
    const uint8_t* block = blocked + b * m * kBlockItems;
    __m256i acc_lo = _mm256_setzero_si256();
    __m256i acc_hi = _mm256_setzero_si256();
    for (size_t cb = 0; cb < m; ++cb) {
      const uint8_t* row = table + cb * k_padded;
      const __m256i codes = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block + cb * kBlockItems));
      const __m256i chunk_sel = _mm256_and_si256(
          _mm256_srli_epi16(codes, 4), nibble);
      __m256i vals = _mm256_setzero_si256();
      for (int j = 0; j < 4; ++j) {
        const __m256i tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(row + 16 * j)));
        const __m256i match =
            _mm256_cmpeq_epi8(chunk_sel, _mm256_set1_epi8(static_cast<char>(j)));
        vals = _mm256_or_si256(
            vals, _mm256_and_si256(match, _mm256_shuffle_epi8(tbl, codes)));
      }
      acc_lo = _mm256_add_epi16(
          acc_lo, _mm256_cvtepu8_epi16(_mm256_castsi256_si128(vals)));
      acc_hi = _mm256_add_epi16(
          acc_hi, _mm256_cvtepu8_epi16(_mm256_extracti128_si256(vals, 1)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sums + b * kBlockItems),
                        acc_lo);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(sums + b * kBlockItems + 16), acc_hi);
  }
}

// Survivor bits of 8 items, in ApproxScore's operation order (no FMA
// contraction in src/index, so the roundings match the scalar test): u16
// sums widen to i32 and convert exactly to float. GT_OQ is false on NaN,
// so NaN lanes survive, as in the scalar test.
__attribute__((target("avx2"))) inline uint32_t Survivors8(
    __m128i sums, __m256 norms, __m256 scale, __m256 bias_sum, __m256 bound,
    __m256 worst) {
  const __m256 sum = _mm256_cvtepi32_ps(_mm256_cvtepu16_epi32(sums));
  const __m256 scaled = _mm256_add_ps(_mm256_mul_ps(sum, scale), bias_sum);
  const __m256 approx =
      _mm256_sub_ps(norms, _mm256_mul_ps(_mm256_set1_ps(2.0f), scaled));
  const __m256 pruned =
      _mm256_cmp_ps(_mm256_sub_ps(approx, bound), worst, _CMP_GT_OQ);
  return ~static_cast<uint32_t>(_mm256_movemask_ps(pruned)) & 0xffu;
}

// Survivor masks, one 32-item block per iteration. The last, partial block
// goes to the scalar test item by item, so no load reads past `count`.
__attribute__((target("avx2"))) void PruneAvx2(
    const uint16_t* sums, const float* norms, size_t count, float scale,
    float bias_sum, float bound, float worst, uint32_t* masks) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vbias = _mm256_set1_ps(bias_sum);
  const __m256 vbound = _mm256_set1_ps(bound);
  const __m256 vworst = _mm256_set1_ps(worst);
  const size_t full = count / kBlockItems;
  for (size_t w = 0; w < full; ++w) {
    uint32_t bits = 0;
    for (size_t g = 0; g < kBlockItems; g += 8) {
      const size_t i = w * kBlockItems + g;
      bits |= Survivors8(
                  _mm_loadu_si128(reinterpret_cast<const __m128i*>(sums + i)),
                  _mm256_loadu_ps(norms + i), vscale, vbias, vbound, vworst)
              << g;
    }
    masks[w] = bits;
  }
  if (count % kBlockItems != 0) {
    masks[full] = ScalarSurvivorBits(sums, norms, full * kBlockItems, count,
                                     scale, bias_sum, bound, worst);
  }
}

}  // namespace

bool Avx2Supported() { return __builtin_cpu_supports("avx2") != 0; }

PruneFn Avx2Prune() { return Avx2Supported() ? &PruneAvx2 : nullptr; }

AccumulateFn Avx2KernelFor(size_t k_padded) {
  if (!Avx2Supported()) return nullptr;
  if (k_padded == 16) return &Accumulate16Avx2;
  if (k_padded == 64) return &Accumulate64Avx2;
  // K in (64, 256] would need 16 shuffle+blend rounds per codebook on
  // AVX2 — past the break-even point; the scalar kernel serves it.
  return nullptr;
}

}  // namespace lightlt::index::kernels::detail

#else  // non-x86

namespace lightlt::index::kernels::detail {
bool Avx2Supported() { return false; }
AccumulateFn Avx2KernelFor(size_t) { return nullptr; }
PruneFn Avx2Prune() { return nullptr; }
}  // namespace lightlt::index::kernels::detail

#endif
