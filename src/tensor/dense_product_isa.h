// Internal seams between the dense-product dispatch (dense_product.cc) and
// the per-ISA translation units. Each compiles everywhere: on a foreign
// architecture its Supported() is false.

#ifndef LIGHTLT_TENSOR_DENSE_PRODUCT_ISA_H_
#define LIGHTLT_TENSOR_DENSE_PRODUCT_ISA_H_

#include <vector>

#include "src/tensor/dense_product.h"

namespace lightlt::detail {

bool DenseAvx512Supported();
void DenseProductAvx512(ProductLayout layout, const float* a, const float* b,
                        size_t m, size_t n, size_t k, float* c);
void NearestCentroidAvx512(const float* points, size_t n,
                           const float* centroids, const float* norms,
                           size_t k, size_t d, uint32_t* out);
void ReconstructionDistancesAvx512(const float* query,
                                   const float* const* words, size_t n,
                                   size_t m, size_t d, float* out);

bool DenseAvx2Supported();
void DenseProductAvx2(ProductLayout layout, const float* a, const float* b,
                      size_t m, size_t n, size_t k, float* c);
void NearestCentroidAvx2(const float* points, size_t n,
                         const float* centroids, const float* norms, size_t k,
                         size_t d, uint32_t* out);
void ReconstructionDistancesAvx2(const float* query, const float* const* words,
                                 size_t n, size_t m, size_t d, float* out);

/// The centroids of a nearest-centroid call as the SIMD variants read them:
/// `lanes` centroids per block, block b holding c[b*lanes + l][t] at
/// values[(b*d + t)*lanes + l]. Lanes past k carry zero coordinates and a
/// NaN norm, so their score is NaN and never wins the argmin.
struct CentroidPanel {
  std::vector<float> values;
  std::vector<float> norms;  ///< blocks * lanes
  size_t blocks = 0;
};
CentroidPanel PackCentroids(const float* centroids, const float* norms,
                            size_t k, size_t d, size_t lanes);

}  // namespace lightlt::detail

#endif  // LIGHTLT_TENSOR_DENSE_PRODUCT_ISA_H_
