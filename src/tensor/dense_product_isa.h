// Internal seams between the dense-product dispatch (dense_product.cc) and
// the per-ISA translation units. Each compiles everywhere: on a foreign
// architecture its Supported() is false.

#ifndef LIGHTLT_TENSOR_DENSE_PRODUCT_ISA_H_
#define LIGHTLT_TENSOR_DENSE_PRODUCT_ISA_H_

#include "src/tensor/dense_product.h"

namespace lightlt::detail {

bool DenseAvx512Supported();
void DenseProductAvx512(ProductLayout layout, const float* a, const float* b,
                        size_t m, size_t n, size_t k, float* c);

bool DenseAvx2Supported();
void DenseProductAvx2(ProductLayout layout, const float* a, const float* b,
                      size_t m, size_t n, size_t k, float* c);

}  // namespace lightlt::detail

#endif  // LIGHTLT_TENSOR_DENSE_PRODUCT_ISA_H_
