#include "src/tensor/dense_product.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "src/tensor/dense_product_isa.h"

namespace lightlt {
namespace {

// The reference: the loops Matrix ran before the SIMD variants existed.
// MatMul and TransposedMatMul accumulate into a zeroed C term by term,
// MatMulTransposed keeps one running sum per output; per output both are
// the same k-order chain.
void DenseProductScalar(ProductLayout layout, const float* a, const float* b,
                        size_t m, size_t n, size_t k, float* c) {
  switch (layout) {
    case ProductLayout::kAB:
      std::fill(c, c + m * n, 0.0f);
      for (size_t i = 0; i < m; ++i) {
        const float* a_row = a + i * k;
        float* o_row = c + i * n;
        for (size_t t = 0; t < k; ++t) {
          const float av = a_row[t];
          if (av == 0.0f) continue;
          const float* b_row = b + t * n;
          for (size_t j = 0; j < n; ++j) o_row[j] += av * b_row[j];
        }
      }
      return;
    case ProductLayout::kAtB:
      std::fill(c, c + m * n, 0.0f);
      for (size_t t = 0; t < k; ++t) {
        const float* a_row = a + t * m;
        const float* b_row = b + t * n;
        for (size_t i = 0; i < m; ++i) {
          const float av = a_row[i];
          if (av == 0.0f) continue;
          float* o_row = c + i * n;
          for (size_t j = 0; j < n; ++j) o_row[j] += av * b_row[j];
        }
      }
      return;
    case ProductLayout::kABt:
      for (size_t i = 0; i < m; ++i) {
        const float* a_row = a + i * k;
        float* o_row = c + i * n;
        for (size_t j = 0; j < n; ++j) {
          const float* b_row = b + j * k;
          float acc = 0.0f;
          for (size_t t = 0; t < k; ++t) acc += a_row[t] * b_row[t];
          o_row[j] = acc;
        }
      }
      return;
  }
}

// The reference: the loop k-means assignment ran before the SIMD variants
// existed (2.0f * p[t] * c[t] parses as (2.0f * p[t]) * c[t]).
void NearestCentroidScalar(const float* points, size_t n,
                           const float* centroids, const float* norms,
                           size_t k, size_t d, uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const float* p = points + i * d;
    float best = std::numeric_limits<float>::max();
    uint32_t best_j = 0;
    for (size_t j = 0; j < k; ++j) {
      const float* c = centroids + j * d;
      float score = norms[j];
      for (size_t t = 0; t < d; ++t) score -= 2.0f * p[t] * c[t];
      if (score < best) {
        best = score;
        best_j = static_cast<uint32_t>(j);
      }
    }
    out[i] = best_j;
  }
}

// The reference: the loop the serving re-rank ran before the SIMD variants
// existed, with one reconstruction row per call in place of a zeroed 1 x d
// Matrix per candidate.
void ReconstructionDistancesScalar(const float* query,
                                   const float* const* words, size_t n,
                                   size_t m, size_t d, float* out) {
  std::vector<float> recon(d);
  for (size_t i = 0; i < n; ++i) {
    std::fill(recon.begin(), recon.end(), 0.0f);
    for (size_t cb = 0; cb < m; ++cb) {
      const float* word = words[i * m + cb];
      for (size_t j = 0; j < d; ++j) recon[j] += word[j];
    }
    float dist = 0.0f;
    for (size_t j = 0; j < d; ++j) {
      const float diff = query[j] - recon[j];
      dist += diff * diff;
    }
    out[i] = dist;
  }
}

bool ScalarSupported() { return true; }

struct Family {
  const char* name;
  bool (*supported)();
  DenseProductFn fn;
  NearestCentroidFn nearest;
  ReconstructionDistancesFn reconstruction;
};

// Preference order: widest vectors first, scalar last.
constexpr Family kFamilies[] = {
    {"avx512", &detail::DenseAvx512Supported, &detail::DenseProductAvx512,
     &detail::NearestCentroidAvx512, &detail::ReconstructionDistancesAvx512},
    {"avx2", &detail::DenseAvx2Supported, &detail::DenseProductAvx2,
     &detail::NearestCentroidAvx2, &detail::ReconstructionDistancesAvx2},
    {"scalar", &ScalarSupported, &DenseProductScalar, &NearestCentroidScalar,
     &ReconstructionDistancesScalar},
};

const Family& SelectedFamily() {
  static const Family& selected = []() -> const Family& {
    for (const Family& f : kFamilies) {
      if (f.supported()) return f;
    }
    return kFamilies[std::size(kFamilies) - 1];
  }();
  return selected;
}

}  // namespace

namespace detail {

CentroidPanel PackCentroids(const float* centroids, const float* norms,
                            size_t k, size_t d, size_t lanes) {
  CentroidPanel panel;
  panel.blocks = (k + lanes - 1) / lanes;
  panel.values.assign(panel.blocks * d * lanes, 0.0f);
  panel.norms.assign(panel.blocks * lanes,
                     std::numeric_limits<float>::quiet_NaN());
  for (size_t j = 0; j < k; ++j) {
    const size_t block = j / lanes;
    const size_t lane = j % lanes;
    for (size_t t = 0; t < d; ++t) {
      panel.values[(block * d + t) * lanes + lane] = centroids[j * d + t];
    }
    panel.norms[j] = norms[j];
  }
  return panel;
}

}  // namespace detail

std::vector<DenseKernel> AvailableDenseKernels() {
  std::vector<DenseKernel> out;
  for (const Family& f : kFamilies) {
    if (f.supported()) {
      out.push_back({f.name, f.fn, f.nearest, f.reconstruction});
    }
  }
  return out;
}

void DenseProduct(ProductLayout layout, const float* a, const float* b,
                  size_t m, size_t n, size_t k, float* c) {
  SelectedFamily().fn(layout, a, b, m, n, k, c);
}

void NearestCentroid(const float* points, size_t n, const float* centroids,
                     const float* norms, size_t k, size_t d, uint32_t* out) {
  SelectedFamily().nearest(points, n, centroids, norms, k, d, out);
}

void ReconstructionDistances(const float* query, const float* const* words,
                             size_t n, size_t m, size_t d, float* out) {
  SelectedFamily().reconstruction(query, words, n, m, d, out);
}

}  // namespace lightlt
