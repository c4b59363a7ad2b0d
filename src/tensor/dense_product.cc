#include "src/tensor/dense_product.h"

#include <algorithm>

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

bool ScalarSupported() { return true; }

struct Family {
  const char* name;
  bool (*supported)();
  DenseProductFn fn;
};

// Preference order: widest vectors first, scalar last.
constexpr Family kFamilies[] = {
    {"avx512", &detail::DenseAvx512Supported, &detail::DenseProductAvx512},
    {"avx2", &detail::DenseAvx2Supported, &detail::DenseProductAvx2},
    {"scalar", &ScalarSupported, &DenseProductScalar},
};

DenseProductFn SelectDenseProduct() {
  for (const Family& f : kFamilies) {
    if (f.supported()) return f.fn;
  }
  return &DenseProductScalar;
}

}  // namespace

std::vector<DenseKernel> AvailableDenseKernels() {
  std::vector<DenseKernel> out;
  for (const Family& f : kFamilies) {
    if (f.supported()) out.push_back({f.name, f.fn});
  }
  return out;
}

void DenseProduct(ProductLayout layout, const float* a, const float* b,
                  size_t m, size_t n, size_t k, float* c) {
  static const DenseProductFn selected = SelectDenseProduct();
  selected(layout, a, b, m, n, k, c);
}

}  // namespace lightlt
