// AVX-512F dense products: one output column per lane, 16 per vector.
// kAB and kAtB broadcast A(i,t) against a row of B; kABt transposes 16x16
// tiles of B in registers, so no packed copy of B is ever stored. The
// nearest-centroid kernel puts one centroid per lane, the
// reconstruction-distance kernel one candidate per lane.
// Runtime-dispatched; stubs on non-x86.

#include "src/tensor/dense_product_isa.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

#include <algorithm>
#include <limits>

// GCC's avx512 intrinsic headers self-initialize undefined vectors with the
// "__Y = __Y" idiom, which -Wmaybe-uninitialized (or, where it inlines
// deeper, -Wuninitialized) flags from any inlined use site; the values are
// fully overwritten before use.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

namespace lightlt::detail {
namespace {

#define LIGHTLT_AVX512_TARGET __attribute__((target("avx512f")))

constexpr size_t kLanes = 16;

LIGHTLT_AVX512_TARGET inline __mmask16 FirstLanes(size_t count) {
  return count >= kLanes ? static_cast<__mmask16>(0xFFFF)
                         : static_cast<__mmask16>((1u << count) - 1);
}

// R rows x V vectors of C against rows of B (kAB, kAtB). A(r, t) is
// a[r * a_rs + t * a_cs]. The zero skip is a masked add: a skipped lane
// keeps its sum, exactly as the scalar `continue` does.
template <size_t R, size_t V>
LIGHTLT_AVX512_TARGET inline void RowTile(const float* a, size_t a_rs,
                                          size_t a_cs, const float* b,
                                          size_t ldb, size_t k,
                                          const __mmask16* cols, float* c,
                                          size_t ldc) {
  const __m512 zero = _mm512_setzero_ps();
  __m512 acc[R][V];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) acc[r][v] = zero;
  }
  for (size_t t = 0; t < k; ++t) {
    __m512 bv[V];
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      bv[v] = _mm512_maskz_loadu_ps(cols[v], b + t * ldb + v * kLanes);
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * a_rs + t * a_cs]);
      const __mmask16 keep = _mm512_cmp_ps_mask(av, zero, _CMP_NEQ_UQ);
#pragma GCC unroll 2
      for (size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm512_mask_add_ps(acc[r][v], keep, acc[r][v],
                                       _mm512_mul_ps(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (size_t v = 0; v < V; ++v) {
      _mm512_mask_storeu_ps(c + r * ldc + v * kLanes, cols[v], acc[r][v]);
    }
  }
}

template <size_t V>
LIGHTLT_AVX512_TARGET void RowTileRows(size_t rows, const float* a,
                                       size_t a_rs, size_t a_cs,
                                       const float* b, size_t ldb, size_t k,
                                       const __mmask16* cols, float* c,
                                       size_t ldc) {
  switch (rows) {
    case 4: return RowTile<4, V>(a, a_rs, a_cs, b, ldb, k, cols, c, ldc);
    case 3: return RowTile<3, V>(a, a_rs, a_cs, b, ldb, k, cols, c, ldc);
    case 2: return RowTile<2, V>(a, a_rs, a_cs, b, ldb, k, cols, c, ldc);
    default: return RowTile<1, V>(a, a_rs, a_cs, b, ldb, k, cols, c, ldc);
  }
}

// kAB (a_rs = k, a_cs = 1) and kAtB (a_rs = 1, a_cs = m): 4 rows x 32
// columns of C per tile, B rows contiguous.
LIGHTLT_AVX512_TARGET void RowProduct(const float* a, size_t a_rs,
                                      size_t a_cs, const float* b, size_t m,
                                      size_t n, size_t k, float* c) {
  for (size_t i = 0; i < m; i += 4) {
    const size_t rows = std::min<size_t>(4, m - i);
    for (size_t j = 0; j < n; j += 2 * kLanes) {
      const size_t width = std::min(2 * kLanes, n - j);
      const __mmask16 cols[2] = {FirstLanes(width),
                                 FirstLanes(width > kLanes ? width - kLanes
                                                           : 0)};
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
LIGHTLT_AVX512_TARGET inline void Transpose16(__m512 (&r)[kLanes]) {
  __m512 t[kLanes];
#pragma GCC unroll 8
  for (size_t i = 0; i < kLanes; i += 2) {
    t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
  }
#pragma GCC unroll 4
  for (size_t i = 0; i < kLanes; i += 4) {
    r[i] = _mm512_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
    r[i + 1] = _mm512_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
    r[i + 2] = _mm512_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
    r[i + 3] = _mm512_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
#pragma GCC unroll 4
  for (size_t i = 0; i < 4; ++i) {
    t[i] = _mm512_shuffle_f32x4(r[i], r[i + 4], 0x88);
    t[i + 4] = _mm512_shuffle_f32x4(r[i], r[i + 4], 0xdd);
    t[i + 8] = _mm512_shuffle_f32x4(r[i + 8], r[i + 12], 0x88);
    t[i + 12] = _mm512_shuffle_f32x4(r[i + 8], r[i + 12], 0xdd);
  }
#pragma GCC unroll 8
  for (size_t i = 0; i < 8; ++i) {
    r[i] = _mm512_shuffle_f32x4(t[i], t[i + 8], 0x88);
    r[i + 8] = _mm512_shuffle_f32x4(t[i], t[i + 8], 0xdd);
  }
}

// R rows of C (lanes = 16 columns j) advanced by one transposed tile:
// bt[tt] lane jj = B[j + jj][t0 + tt]. Terms past the end of k (a partial
// tile, kFull false) add 0·0 = +0, which leaves every sum unchanged.
template <size_t R, bool kFull>
LIGHTLT_AVX512_TARGET inline void TileRows(const __m512 (&bt)[kLanes],
                                           const float* a, size_t lda,
                                           size_t terms, bool first,
                                           __mmask16 cols, float* c,
                                           size_t ldc) {
  __m512 acc[R];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
    acc[r] = first ? _mm512_setzero_ps()
                   : _mm512_maskz_loadu_ps(cols, c + r * ldc);
  }
#pragma GCC unroll 16
  for (size_t tt = 0; tt < kLanes; ++tt) {
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const float av = kFull || tt < terms ? a[r * lda + tt] : 0.0f;
      acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(_mm512_set1_ps(av), bt[tt]));
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) _mm512_mask_storeu_ps(c + r * ldc, cols, acc[r]);
}

template <bool kFull>
LIGHTLT_AVX512_TARGET void TileAllRows(const __m512 (&bt)[kLanes],
                                       const float* a, size_t rows,
                                       size_t lda, size_t terms, bool first,
                                       __mmask16 cols, float* c, size_t ldc) {
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

// kABt: for each 16-term slice of k and each 16-row block of B, load and
// transpose the tile once, then advance every row of a row block of C. Row
// blocks of 64 keep their slice of C and A in L1 across the tiles, and
// consecutive tiles feed different outputs, so their add chains overlap.
LIGHTLT_AVX512_TARGET void TransposedProduct(const float* a, const float* b,
                                             size_t m, size_t n, size_t k,
                                             float* c) {
  constexpr size_t kRowBlock = 64;
  for (size_t i = 0; i < m; i += kRowBlock) {
    const size_t rows = std::min(kRowBlock, m - i);
    for (size_t t = 0; t < k; t += kLanes) {
      const size_t terms = std::min(kLanes, k - t);
      const __mmask16 term_mask = FirstLanes(terms);
      for (size_t j = 0; j < n; j += kLanes) {
        const size_t width = std::min(kLanes, n - j);
        const __mmask16 cols = FirstLanes(width);
        __m512 bt[kLanes];
#pragma GCC unroll 16
        for (size_t jj = 0; jj < kLanes; ++jj) {
          bt[jj] = jj < width
                       ? _mm512_maskz_loadu_ps(term_mask, b + (j + jj) * k + t)
                       : _mm512_setzero_ps();
        }
        Transpose16(bt);
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

// Points per nearest-centroid tile, and most 16-centroid blocks per pass.
constexpr size_t kNearestRows = 4;
constexpr size_t kNearestBlocks = 4;

// The kNearestRows doubled points in `twice` (row r at r * d) against V
// panel blocks from `block` on. Each lane runs the scalar chain
// s = norm; s -= (2p[t])·c[t], then a strict, NaN-false < against the row's
// running per-lane best; blocks are taken in index order, so every lane
// keeps the lowest index of its minimum.
template <size_t V>
LIGHTLT_AVX512_TARGET inline void NearestTile(
    const float* twice, size_t d, const CentroidPanel& panel, size_t block,
    __m512 (&best)[kNearestRows], __m512i (&best_j)[kNearestRows]) {
  constexpr size_t R = kNearestRows;
  __m512 acc[R][V];
#pragma GCC unroll 4
  for (size_t v = 0; v < V; ++v) {
    const __m512 norm = _mm512_loadu_ps(&panel.norms[(block + v) * kLanes]);
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) acc[r][v] = norm;
  }
  const float* col = panel.values.data() + block * d * kLanes;
  for (size_t t = 0; t < d; ++t) {
    __m512 cv[V];
#pragma GCC unroll 4
    for (size_t v = 0; v < V; ++v) {
      cv[v] = _mm512_loadu_ps(col + (v * d + t) * kLanes);
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const __m512 pv = _mm512_set1_ps(twice[r * d + t]);
#pragma GCC unroll 4
      for (size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm512_sub_ps(acc[r][v], _mm512_mul_ps(pv, cv[v]));
      }
    }
  }
  const __m512i lane_ids = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                             10, 11, 12, 13, 14, 15);
#pragma GCC unroll 4
  for (size_t v = 0; v < V; ++v) {
    const __m512i ids = _mm512_add_epi32(
        lane_ids, _mm512_set1_epi32(static_cast<int>((block + v) * kLanes)));
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const __mmask16 better =
          _mm512_cmp_ps_mask(acc[r][v], best[r], _CMP_LT_OQ);
      best[r] = _mm512_mask_mov_ps(best[r], better, acc[r][v]);
      best_j[r] = _mm512_mask_mov_epi32(best_j[r], better, ids);
    }
  }
}

// The lowest index among the lanes holding the smallest best. Lanes that
// never improved hold FLT_MAX and index 0, so a row with no score below
// FLT_MAX gets 0, as in the scalar loop.
LIGHTLT_AVX512_TARGET inline uint32_t ArgminLanes(__m512 best,
                                                  __m512i best_j) {
  const float low = _mm512_reduce_min_ps(best);
  const __mmask16 at =
      _mm512_cmp_ps_mask(best, _mm512_set1_ps(low), _CMP_EQ_OQ);
  return _mm512_mask_reduce_min_epu32(at, best_j);
}

LIGHTLT_AVX512_TARGET void NearestRows(const float* points, size_t n,
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
    __m512 best[R];
    __m512i best_j[R];
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      best[r] = _mm512_set1_ps(std::numeric_limits<float>::max());
      best_j[r] = _mm512_setzero_si512();
    }
    for (size_t b = 0; b < panel.blocks; b += kNearestBlocks) {
      switch (std::min(kNearestBlocks, panel.blocks - b)) {
        case 4: NearestTile<4>(twice.data(), d, panel, b, best, best_j); break;
        case 3: NearestTile<3>(twice.data(), d, panel, b, best, best_j); break;
        case 2: NearestTile<2>(twice.data(), d, panel, b, best, best_j); break;
        default: NearestTile<1>(twice.data(), d, panel, b, best, best_j);
      }
    }
    for (size_t r = 0; r < rows; ++r) {
      out[i + r] = ArgminLanes(best[r], best_j[r]);
    }
  }
}

// One 16-coordinate slice [t, t + terms) of up to 16 re-rank candidates,
// one per lane of `acc`. Each candidate's difference row q − r is built with
// whole-vector adds in codebook order (coordinates past d load as 0 and are
// never summed), the rows are transposed in registers, and each lane's sum
// advances by diff·diff in coordinate order: the scalar chain per lane.
// Lanes past `count` carry q − 0 and are never stored.
template <bool kFull>
LIGHTLT_AVX512_TARGET inline void ReconstructionSlice(
    const float* query, const float* const* words, size_t count, size_t m,
    size_t t, size_t terms, __m512& acc) {
  const __mmask16 coords = FirstLanes(terms);
  const __m512 q = _mm512_maskz_loadu_ps(coords, query + t);
  __m512 diff[kLanes];
#pragma GCC unroll 16
  for (size_t i = 0; i < kLanes; ++i) {
    __m512 r = _mm512_setzero_ps();
    if (i < count) {
      const float* const* w = words + i * m;
      for (size_t cb = 0; cb < m; ++cb) {
        r = _mm512_add_ps(r, _mm512_maskz_loadu_ps(coords, w[cb] + t));
      }
    }
    diff[i] = _mm512_sub_ps(q, r);
  }
  Transpose16(diff);
#pragma GCC unroll 16
  for (size_t tt = 0; tt < kLanes; ++tt) {
    if (kFull || tt < terms) {
      acc = _mm512_add_ps(acc, _mm512_mul_ps(diff[tt], diff[tt]));
    }
  }
}

// flatten: the slices and their transposes inline, so the difference rows
// stay in registers.
LIGHTLT_AVX512_TARGET __attribute__((flatten)) void ReconstructionGroups(
    const float* query, const float* const* words, size_t n, size_t m,
    size_t d, float* out) {
  for (size_t i = 0; i < n; i += kLanes) {
    const size_t count = std::min(kLanes, n - i);
    const float* const* group = words + i * m;
    __m512 acc = _mm512_setzero_ps();
    size_t t = 0;
    for (; t + kLanes <= d; t += kLanes) {
      ReconstructionSlice<true>(query, group, count, m, t, kLanes, acc);
    }
    if (t < d) {
      ReconstructionSlice<false>(query, group, count, m, t, d - t, acc);
    }
    _mm512_mask_storeu_ps(out + i, FirstLanes(count), acc);
  }
}

#undef LIGHTLT_AVX512_TARGET

}  // namespace

bool DenseAvx512Supported() { return __builtin_cpu_supports("avx512f") != 0; }

void DenseProductAvx512(ProductLayout layout, const float* a, const float* b,
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

void NearestCentroidAvx512(const float* points, size_t n,
                           const float* centroids, const float* norms,
                           size_t k, size_t d, uint32_t* out) {
  NearestRows(points, n, PackCentroids(centroids, norms, k, d, kLanes), d,
              out);
}

void ReconstructionDistancesAvx512(const float* query,
                                   const float* const* words, size_t n,
                                   size_t m, size_t d, float* out) {
  ReconstructionGroups(query, words, n, m, d, out);
}

}  // namespace lightlt::detail

#else  // non-x86

namespace lightlt::detail {
bool DenseAvx512Supported() { return false; }
void DenseProductAvx512(ProductLayout, const float*, const float*, size_t,
                        size_t, size_t, float*) {}
void NearestCentroidAvx512(const float*, size_t, const float*, const float*,
                           size_t, size_t, uint32_t*) {}
void ReconstructionDistancesAvx512(const float*, const float* const*, size_t,
                                   size_t, size_t, float*) {}
}  // namespace lightlt::detail

#endif
