// AVX-512 fast-scan accumulate and prune kernels (BW + VL + VBMI). vpermb
// does a full 64-byte table lookup per instruction, so one shuffle covers
// K <= 64 and four cover K <= 256 — the paper's K = 256 stays on the SIMD
// path here. Runtime-dispatched; stubs on non-x86.

#include "src/index/kernels/scan_isa.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

// GCC's avx512 intrinsic headers self-initialize undefined vectors with the
// "__Y = __Y" idiom, which -Wmaybe-uninitialized flags from any inlined use
// site; the values are fully overwritten before use.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace lightlt::index::kernels {
namespace detail {
namespace {

#define LIGHTLT_AVX512_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512vbmi")))

// Widens the 32 looked-up bytes for one block to u16 and accumulates.
LIGHTLT_AVX512_TARGET inline __m512i WidenAdd(__m512i acc, __m512i vals) {
  return _mm512_add_epi16(
      acc, _mm512_cvtepu8_epi16(_mm512_castsi512_si256(vals)));
}

// K <= 64: one vpermb per codebook per 32-item block. For K <= 16 the
// 16-byte row is broadcast four times — indices < 16 only ever read the
// first copy, so the same routine serves both padded widths.
LIGHTLT_AVX512_TARGET void Accumulate64Avx512(
    const uint8_t* blocked, size_t num_blocks, size_t m, size_t k_padded,
    const uint8_t* table, uint16_t* sums) {
  for (size_t b = 0; b < num_blocks; ++b) {
    const uint8_t* block = blocked + b * m * kBlockItems;
    __m512i acc = _mm512_setzero_si512();  // 32 u16 lanes
    for (size_t cb = 0; cb < m; ++cb) {
      const uint8_t* row = table + cb * k_padded;
      const __m512i tbl =
          k_padded == 64
              ? _mm512_loadu_si512(row)
              : _mm512_broadcast_i32x4(
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(row)));
      const __m256i codes = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block + cb * kBlockItems));
      // vpermb reads index bits [5:0]; codes are < 64 so no masking needed.
      const __m512i vals =
          _mm512_permutexvar_epi8(_mm512_zextsi256_si512(codes), tbl);
      acc = WidenAdd(acc, vals);
    }
    _mm512_storeu_si512(sums + b * kBlockItems, acc);
  }
}

// K <= 256: the 256-byte row is four vpermb tables selected by the top two
// code bits (vpermb itself consumes the low six).
LIGHTLT_AVX512_TARGET void Accumulate256Avx512(
    const uint8_t* blocked, size_t num_blocks, size_t m, size_t k_padded,
    const uint8_t* table, uint16_t* sums) {
  for (size_t b = 0; b < num_blocks; ++b) {
    const uint8_t* block = blocked + b * m * kBlockItems;
    __m512i acc = _mm512_setzero_si512();
    for (size_t cb = 0; cb < m; ++cb) {
      const uint8_t* row = table + cb * k_padded;
      const __m256i codes = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block + cb * kBlockItems));
      const __m512i idx = _mm512_zextsi256_si512(codes);
      const __m256i chunk_sel = _mm256_and_si256(
          _mm256_srli_epi16(codes, 6), _mm256_set1_epi8(0x03));
      __m256i vals = _mm256_setzero_si256();
      for (int j = 0; j < 4; ++j) {
        const __m512i tbl = _mm512_loadu_si512(row + 64 * j);
        const __m256i looked = _mm512_castsi512_si256(
            _mm512_permutexvar_epi8(idx, tbl));
        const __m256i match = _mm256_cmpeq_epi8(
            chunk_sel, _mm256_set1_epi8(static_cast<char>(j)));
        vals = _mm256_or_si256(vals, _mm256_and_si256(match, looked));
      }
      acc = WidenAdd(acc, _mm512_zextsi256_si512(vals));
    }
    _mm512_storeu_si512(sums + b * kBlockItems, acc);
  }
}

// Survivor bits of 16 items, in ApproxScore's operation order (no FMA
// contraction in src/index, so the roundings match the scalar test). The
// compare is not-greater-than, unordered: exactly !(x > worst), NaN
// included, and only `live` lanes can be set.
LIGHTLT_AVX512_TARGET inline uint32_t Survivors16(
    __m256i sums, __m512 norms, __m512 scale, __m512 bias_sum, __m512 bound,
    __m512 worst, __mmask16 live) {
  const __m512 sum = _mm512_cvtepi32_ps(_mm512_cvtepu16_epi32(sums));
  const __m512 scaled = _mm512_add_ps(_mm512_mul_ps(sum, scale), bias_sum);
  const __m512 approx =
      _mm512_sub_ps(norms, _mm512_mul_ps(_mm512_set1_ps(2.0f), scaled));
  return _mm512_mask_cmp_ps_mask(live, _mm512_sub_ps(approx, bound), worst,
                                 _CMP_NGT_UQ);
}

// Survivor masks, one 32-item block per iteration with plain loads. The
// last, partial block loads under lane masks: masked-off lanes are never
// read, so the norms need no padding past `count`.
LIGHTLT_AVX512_TARGET void PruneAvx512(const uint16_t* sums,
                                       const float* norms, size_t count,
                                       float scale, float bias_sum,
                                       float bound, float worst,
                                       uint32_t* masks) {
  const __m512 vscale = _mm512_set1_ps(scale);
  const __m512 vbias = _mm512_set1_ps(bias_sum);
  const __m512 vbound = _mm512_set1_ps(bound);
  const __m512 vworst = _mm512_set1_ps(worst);
  const size_t full = count / kBlockItems;
  for (size_t w = 0; w < full; ++w) {
    const size_t i = w * kBlockItems;
    const __m512i block = _mm512_loadu_si512(sums + i);
    const uint32_t lo = Survivors16(
        _mm512_castsi512_si256(block), _mm512_loadu_ps(norms + i), vscale,
        vbias, vbound, vworst, 0xffff);
    const uint32_t hi = Survivors16(
        _mm512_extracti64x4_epi64(block, 1), _mm512_loadu_ps(norms + i + 16),
        vscale, vbias, vbound, vworst, 0xffff);
    masks[w] = lo | (hi << 16);
  }
  const size_t left = count - full * kBlockItems;
  if (left == 0) return;
  const size_t i = full * kBlockItems;
  const __mmask32 live = _cvtu32_mask32((1u << left) - 1);
  const __mmask16 live_lo = static_cast<__mmask16>(_cvtmask32_u32(live));
  const __m512i block = _mm512_maskz_loadu_epi16(live, sums + i);
  uint32_t bits = Survivors16(_mm512_castsi512_si256(block),
                              _mm512_maskz_loadu_ps(live_lo, norms + i),
                              vscale, vbias, vbound, vworst, live_lo);
  if (left > 16) {
    const __mmask16 live_hi =
        static_cast<__mmask16>(_cvtmask32_u32(live) >> 16);
    bits |= Survivors16(_mm512_extracti64x4_epi64(block, 1),
                        _mm512_maskz_loadu_ps(live_hi, norms + i + 16),
                        vscale, vbias, vbound, vworst, live_hi)
            << 16;
  }
  masks[full] = bits;
}

#undef LIGHTLT_AVX512_TARGET

}  // namespace

bool Avx512Supported() {
  return __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0 &&
         __builtin_cpu_supports("avx512vbmi") != 0;
}

PruneFn Avx512Prune() { return Avx512Supported() ? &PruneAvx512 : nullptr; }

AccumulateFn Avx512KernelFor(size_t k_padded) {
  if (!Avx512Supported()) return nullptr;
  if (k_padded == 16 || k_padded == 64) return &Accumulate64Avx512;
  if (k_padded == 256) return &Accumulate256Avx512;
  return nullptr;
}

}  // namespace detail
}  // namespace lightlt::index::kernels

#else  // non-x86

namespace lightlt::index::kernels::detail {
bool Avx512Supported() { return false; }
AccumulateFn Avx512KernelFor(size_t) { return nullptr; }
PruneFn Avx512Prune() { return nullptr; }
}  // namespace lightlt::index::kernels::detail

#endif
