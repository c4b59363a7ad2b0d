// AVX2 dense products, nearest centroids and reconstruction distances: the
// AVX-512 routines' structure at 8 lanes, with sign-bit lane masks
// (vmaskmov, blendv) instead of mask registers. Built without FMA.
// Runtime-dispatched; stubs on non-x86.

#include "src/tensor/dense_product_isa.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

#include <algorithm>
#include <limits>

namespace lightlt::detail {
namespace {

#define LIGHTLT_AVX2_TARGET __attribute__((target("avx2")))

constexpr size_t kLanes = 8;

// All-ones in lanes [0, count), zero above.
LIGHTLT_AVX2_TARGET inline __m256i FirstLanes(size_t count) {
  return _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(std::min(count, kLanes))),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// R rows x V vectors of C against rows of B (kAB, kAtB). A skipped term
// adds +0 (the product and-ed with a zero keep mask), and a sum that
// starts at +0 is never -0, so that add changes nothing.
template <size_t R, size_t V>
LIGHTLT_AVX2_TARGET inline void RowTile(const float* a, size_t a_rs,
                                        size_t a_cs, const float* b,
                                        size_t ldb, size_t k,
                                        const __m256i* cols, float* c,
                                        size_t ldc) {
  const __m256 zero = _mm256_setzero_ps();
  __m256 acc[R][V];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) acc[r][v] = zero;
  }
  for (size_t t = 0; t < k; ++t) {
    __m256 bv[V];
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      bv[v] = _mm256_maskload_ps(b + t * ldb + v * kLanes, cols[v]);
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * a_rs + t * a_cs]);
      const __m256 keep = _mm256_cmp_ps(av, zero, _CMP_NEQ_UQ);
#pragma GCC unroll 2
      for (size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_ps(
            acc[r][v], _mm256_and_ps(_mm256_mul_ps(av, bv[v]), keep));
      }
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      _mm256_maskstore_ps(c + r * ldc + v * kLanes, cols[v], acc[r][v]);
    }
  }
}

template <size_t V>
LIGHTLT_AVX2_TARGET void RowTileRows(size_t rows, const float* a, size_t a_rs,
                                     size_t a_cs, const float* b, size_t ldb,
                                     size_t k, const __m256i* cols, float* c,
                                     size_t ldc) {
  switch (rows) {
    case 4: return RowTile<4, V>(a, a_rs, a_cs, b, ldb, k, cols, c, ldc);
    case 3: return RowTile<3, V>(a, a_rs, a_cs, b, ldb, k, cols, c, ldc);
    case 2: return RowTile<2, V>(a, a_rs, a_cs, b, ldb, k, cols, c, ldc);
    default: return RowTile<1, V>(a, a_rs, a_cs, b, ldb, k, cols, c, ldc);
  }
}

// kAB (a_rs = k, a_cs = 1) and kAtB (a_rs = 1, a_cs = m): 4 rows x 16
// columns of C per tile.
LIGHTLT_AVX2_TARGET void RowProduct(const float* a, size_t a_rs, size_t a_cs,
                                    const float* b, size_t m, size_t n,
                                    size_t k, float* c) {
  for (size_t i = 0; i < m; i += 4) {
    const size_t rows = std::min<size_t>(4, m - i);
    for (size_t j = 0; j < n; j += 2 * kLanes) {
      const size_t width = std::min(2 * kLanes, n - j);
      const __m256i cols[2] = {
          FirstLanes(width), FirstLanes(width > kLanes ? width - kLanes : 0)};
      const float* a_tile = a + i * a_rs;
      float* c_tile = c + i * n + j;
      if (width > kLanes) {
        RowTileRows<2>(rows, a_tile, a_rs, a_cs, b + j, n, k, cols, c_tile, n);
      } else {
        RowTileRows<1>(rows, a_tile, a_rs, a_cs, b + j, n, k, cols, c_tile, n);
      }
    }
  }
}

// In-register transpose: on return r[c] lane l holds what r[l] lane c held.
LIGHTLT_AVX2_TARGET inline void Transpose8(__m256 (&r)[kLanes]) {
  __m256 t[kLanes];
#pragma GCC unroll 4
  for (size_t i = 0; i < kLanes; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
#pragma GCC unroll 2
  for (size_t i = 0; i < kLanes; i += 4) {
    r[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
    r[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
    r[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
    r[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
#pragma GCC unroll 4
  for (size_t i = 0; i < 4; ++i) {
    t[i] = _mm256_permute2f128_ps(r[i], r[i + 4], 0x20);
    t[i + 4] = _mm256_permute2f128_ps(r[i], r[i + 4], 0x31);
  }
#pragma GCC unroll 8
  for (size_t i = 0; i < kLanes; ++i) r[i] = t[i];
}

// R rows of C advanced by one transposed tile: bt[tt] lane jj =
// B[j + jj][t0 + tt]. Terms past the end of k add 0·0 = +0.
template <size_t R, bool kFull>
LIGHTLT_AVX2_TARGET inline void TileRows(const __m256 (&bt)[kLanes],
                                         const float* a, size_t lda,
                                         size_t terms, bool first,
                                         __m256i cols, float* c, size_t ldc) {
  __m256 acc[R];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
    acc[r] = first ? _mm256_setzero_ps() : _mm256_maskload_ps(c + r * ldc, cols);
  }
#pragma GCC unroll 8
  for (size_t tt = 0; tt < kLanes; ++tt) {
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const float av = kFull || tt < terms ? a[r * lda + tt] : 0.0f;
      acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(_mm256_set1_ps(av), bt[tt]));
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) _mm256_maskstore_ps(c + r * ldc, cols, acc[r]);
}

template <bool kFull>
LIGHTLT_AVX2_TARGET void TileAllRows(const __m256 (&bt)[kLanes],
                                     const float* a, size_t rows, size_t lda,
                                     size_t terms, bool first, __m256i cols,
                                     float* c, size_t ldc) {
  size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    TileRows<4, kFull>(bt, a + i * lda, lda, terms, first, cols, c + i * ldc,
                       ldc);
  }
  for (; i < rows; ++i) {
    TileRows<1, kFull>(bt, a + i * lda, lda, terms, first, cols, c + i * ldc,
                       ldc);
  }
}

// kABt: the AVX-512 tiling at 8x8 tiles.
LIGHTLT_AVX2_TARGET void TransposedProduct(const float* a, const float* b,
                                           size_t m, size_t n, size_t k,
                                           float* c) {
  constexpr size_t kRowBlock = 64;
  for (size_t i = 0; i < m; i += kRowBlock) {
    const size_t rows = std::min(kRowBlock, m - i);
    for (size_t t = 0; t < k; t += kLanes) {
      const size_t terms = std::min(kLanes, k - t);
      const __m256i term_mask = FirstLanes(terms);
      for (size_t j = 0; j < n; j += kLanes) {
        const size_t width = std::min(kLanes, n - j);
        const __m256i cols = FirstLanes(width);
        __m256 bt[kLanes];
#pragma GCC unroll 8
        for (size_t jj = 0; jj < kLanes; ++jj) {
          bt[jj] = jj < width
                       ? _mm256_maskload_ps(b + (j + jj) * k + t, term_mask)
                       : _mm256_setzero_ps();
        }
        Transpose8(bt);
        const float* a_tile = a + i * k + t;
        float* c_tile = c + i * n + j;
        if (terms == kLanes) {
          TileAllRows<true>(bt, a_tile, rows, k, terms, t == 0, cols, c_tile,
                            n);
        } else {
          TileAllRows<false>(bt, a_tile, rows, k, terms, t == 0, cols, c_tile,
                             n);
        }
      }
    }
  }
}

// Points per nearest-centroid tile, and most 8-centroid blocks per pass.
constexpr size_t kNearestRows = 4;
constexpr size_t kNearestBlocks = 2;

// The AVX-512 NearestTile at 8 lanes.
template <size_t V>
LIGHTLT_AVX2_TARGET inline void NearestTile(
    const float* twice, size_t d, const CentroidPanel& panel, size_t block,
    __m256 (&best)[kNearestRows], __m256i (&best_j)[kNearestRows]) {
  constexpr size_t R = kNearestRows;
  __m256 acc[R][V];
#pragma GCC unroll 2
  for (size_t v = 0; v < V; ++v) {
    const __m256 norm = _mm256_loadu_ps(&panel.norms[(block + v) * kLanes]);
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) acc[r][v] = norm;
  }
  const float* col = panel.values.data() + block * d * kLanes;
  for (size_t t = 0; t < d; ++t) {
    __m256 cv[V];
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      cv[v] = _mm256_loadu_ps(col + (v * d + t) * kLanes);
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const __m256 pv = _mm256_set1_ps(twice[r * d + t]);
#pragma GCC unroll 2
      for (size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm256_sub_ps(acc[r][v], _mm256_mul_ps(pv, cv[v]));
      }
    }
  }
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
#pragma GCC unroll 2
  for (size_t v = 0; v < V; ++v) {
    const __m256i ids = _mm256_add_epi32(
        lane_ids, _mm256_set1_epi32(static_cast<int>((block + v) * kLanes)));
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const __m256 better = _mm256_cmp_ps(acc[r][v], best[r], _CMP_LT_OQ);
      best[r] = _mm256_blendv_ps(best[r], acc[r][v], better);
      best_j[r] = _mm256_blendv_epi8(best_j[r], ids,
                                     _mm256_castps_si256(better));
    }
  }
}

// The AVX-512 ArgminLanes: smallest best across lanes, then the lowest
// index among the lanes that hold it.
LIGHTLT_AVX2_TARGET inline uint32_t ArgminLanes(__m256 best, __m256i best_j) {
  __m256 low = _mm256_min_ps(best, _mm256_permute2f128_ps(best, best, 1));
  low = _mm256_min_ps(low, _mm256_permute_ps(low, _MM_SHUFFLE(1, 0, 3, 2)));
  low = _mm256_min_ps(low, _mm256_permute_ps(low, _MM_SHUFFLE(2, 3, 0, 1)));
  const __m256i at = _mm256_castps_si256(_mm256_cmp_ps(best, low, _CMP_EQ_OQ));
  __m256i j = _mm256_blendv_epi8(_mm256_set1_epi32(-1), best_j, at);
  j = _mm256_min_epu32(j, _mm256_permute2x128_si256(j, j, 1));
  j = _mm256_min_epu32(j, _mm256_shuffle_epi32(j, _MM_SHUFFLE(1, 0, 3, 2)));
  j = _mm256_min_epu32(j, _mm256_shuffle_epi32(j, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm256_cvtsi256_si32(j));
}

LIGHTLT_AVX2_TARGET void NearestRows(const float* points, size_t n,
                                     const CentroidPanel& panel, size_t d,
                                     uint32_t* out) {
  constexpr size_t R = kNearestRows;
  std::vector<float> twice(R * d, 0.0f);
  for (size_t i = 0; i < n; i += R) {
    const size_t rows = std::min(R, n - i);
    // In the last tile, rows past n keep the previous tile's points; their
    // results are never stored.
    for (size_t r = 0; r < rows; ++r) {
      const float* p = points + (i + r) * d;
      for (size_t t = 0; t < d; ++t) twice[r * d + t] = 2.0f * p[t];
    }
    __m256 best[R];
    __m256i best_j[R];
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      best[r] = _mm256_set1_ps(std::numeric_limits<float>::max());
      best_j[r] = _mm256_setzero_si256();
    }
    for (size_t b = 0; b < panel.blocks; b += kNearestBlocks) {
      if (panel.blocks - b >= kNearestBlocks) {
        NearestTile<2>(twice.data(), d, panel, b, best, best_j);
      } else {
        NearestTile<1>(twice.data(), d, panel, b, best, best_j);
      }
    }
    for (size_t r = 0; r < rows; ++r) {
      out[i + r] = ArgminLanes(best[r], best_j[r]);
    }
  }
}

// The AVX-512 ReconstructionSlice at 8 lanes: 8 candidates, 8 coordinates.
template <bool kFull>
LIGHTLT_AVX2_TARGET inline void ReconstructionSlice(
    const float* query, const float* const* words, size_t count, size_t m,
    size_t t, size_t terms, __m256& acc) {
  const __m256i coords = FirstLanes(terms);
  const __m256 q = kFull ? _mm256_loadu_ps(query + t)
                         : _mm256_maskload_ps(query + t, coords);
  __m256 diff[kLanes];
#pragma GCC unroll 8
  for (size_t i = 0; i < kLanes; ++i) {
    __m256 r = _mm256_setzero_ps();
    if (i < count) {
      const float* const* w = words + i * m;
      for (size_t cb = 0; cb < m; ++cb) {
        r = _mm256_add_ps(r, kFull ? _mm256_loadu_ps(w[cb] + t)
                                   : _mm256_maskload_ps(w[cb] + t, coords));
      }
    }
    diff[i] = _mm256_sub_ps(q, r);
  }
  Transpose8(diff);
#pragma GCC unroll 8
  for (size_t tt = 0; tt < kLanes; ++tt) {
    if (kFull || tt < terms) {
      acc = _mm256_add_ps(acc, _mm256_mul_ps(diff[tt], diff[tt]));
    }
  }
}

// flatten: the slices and their transposes inline, so the difference rows
// stay in registers.
LIGHTLT_AVX2_TARGET __attribute__((flatten)) void ReconstructionGroups(
    const float* query, const float* const* words, size_t n, size_t m,
    size_t d, float* out) {
  for (size_t i = 0; i < n; i += kLanes) {
    const size_t count = std::min(kLanes, n - i);
    const float* const* group = words + i * m;
    __m256 acc = _mm256_setzero_ps();
    size_t t = 0;
    for (; t + kLanes <= d; t += kLanes) {
      ReconstructionSlice<true>(query, group, count, m, t, kLanes, acc);
    }
    if (t < d) {
      ReconstructionSlice<false>(query, group, count, m, t, d - t, acc);
    }
    _mm256_maskstore_ps(out + i, FirstLanes(count), acc);
  }
}

#undef LIGHTLT_AVX2_TARGET

}  // namespace

bool DenseAvx2Supported() { return __builtin_cpu_supports("avx2") != 0; }

void DenseProductAvx2(ProductLayout layout, const float* a, const float* b,
                      size_t m, size_t n, size_t k, float* c) {
  if (k == 0) {
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  switch (layout) {
    case ProductLayout::kAB:
      return RowProduct(a, k, 1, b, m, n, k, c);
    case ProductLayout::kAtB:
      return RowProduct(a, 1, m, b, m, n, k, c);
    case ProductLayout::kABt:
      return TransposedProduct(a, b, m, n, k, c);
  }
}

void NearestCentroidAvx2(const float* points, size_t n,
                         const float* centroids, const float* norms, size_t k,
                         size_t d, uint32_t* out) {
  NearestRows(points, n, PackCentroids(centroids, norms, k, d, kLanes), d,
              out);
}

void ReconstructionDistancesAvx2(const float* query, const float* const* words,
                                 size_t n, size_t m, size_t d, float* out) {
  ReconstructionGroups(query, words, n, m, d, out);
}

}  // namespace lightlt::detail

#else  // non-x86

namespace lightlt::detail {
bool DenseAvx2Supported() { return false; }
void DenseProductAvx2(ProductLayout, const float*, const float*, size_t,
                      size_t, size_t, float*) {}
void NearestCentroidAvx2(const float*, size_t, const float*, const float*,
                         size_t, size_t, uint32_t*) {}
void ReconstructionDistancesAvx2(const float*, const float* const*, size_t,
                                 size_t, size_t, float*) {}
}  // namespace lightlt::detail

#endif
