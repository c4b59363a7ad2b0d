// The one dense float product kernel behind Matrix::MatMul,
// Matrix::TransposedMatMul and Matrix::MatMulTransposed, and through them
// training, embedding, DSQ encoding, the ADC lookup tables and IVF routing,
// plus the nearest-centroid kernel behind k-means assignment and the
// reconstruction-distance kernel behind the serving re-rank (DESIGN.md §17).
//
// Every output has one fixed arithmetic: c_ij starts at 0.0f and adds the
// rounded product A(i,t)·B(t,j) for t = 0, 1, ..., k-1 in that order, each
// add rounded on its own (no fused multiply-add). The SIMD variants compute
// many outputs at once, one output per vector lane, so each lane's sum is
// the same serial chain the scalar reference runs and every variant returns
// bit-identical results.

#ifndef LIGHTLT_TENSOR_DENSE_PRODUCT_H_
#define LIGHTLT_TENSOR_DENSE_PRODUCT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lightlt {

/// Operand layouts; C is always m x n row-major and is overwritten.
enum class ProductLayout {
  /// A is m x k, B is k x n (Matrix::MatMul). Terms with A(i,t) == 0.0f
  /// (either sign) are skipped.
  kAB,
  /// A is k x m, B is k x n: C = Aᵀ·B (Matrix::TransposedMatMul). Terms
  /// with A(t,i) == 0.0f are skipped.
  kAtB,
  /// A is m x k, B is n x k: C = A·Bᵀ (Matrix::MatMulTransposed), the
  /// row-against-row dot products. No term is skipped.
  kABt,
};

/// A skipped term differs from an added one only when the B entry is Inf or
/// NaN (0·Inf = NaN); the skip keeps backprop through ReLU zeros cheap.
using DenseProductFn = void (*)(ProductLayout layout, const float* a,
                                const float* b, size_t m, size_t n, size_t k,
                                float* c);

/// For each of the n rows p of `points` (n x d), the index of the nearest
/// of the k rows c of `centroids` (k x d) under one fixed arithmetic: the
/// score of centroid j starts at norms[j] (its squared norm) and runs
/// s -= (2.0f * p[t]) * c[t] for t = 0, 1, ..., d-1, every product and
/// subtraction rounded on its own; the argmin walks j in index order with a
/// strict < from FLT_MAX. So a NaN score never wins, ties go to the lowest
/// index, and a row with no score below FLT_MAX gets 0.
using NearestCentroidFn = void (*)(const float* points, size_t n,
                                   const float* centroids, const float* norms,
                                   size_t k, size_t d, uint32_t* out);

/// For each of the n candidates i, the squared distance ‖q − o_i‖² from
/// `query` (d floats) to the reconstruction o_i, the sum of its m codeword
/// rows words[i*m + cb] (d floats each), under one fixed arithmetic: per
/// coordinate r[t] starts at 0.0f and adds words[i*m + cb][t] for
/// cb = 0, 1, ..., m-1; then s starts at 0.0f and adds diff·diff with
/// diff = q[t] − r[t] for t = 0, 1, ..., d-1, every add, subtraction and
/// product rounded on its own. out[i] = s.
using ReconstructionDistancesFn = void (*)(const float* query,
                                           const float* const* words,
                                           size_t n, size_t m, size_t d,
                                           float* out);

struct DenseKernel {
  const char* name;
  DenseProductFn fn;
  NearestCentroidFn nearest;
  ReconstructionDistancesFn reconstruction;
};

/// The variants this CPU can run, widest vectors first; the last one is
/// always the scalar reference.
std::vector<DenseKernel> AvailableDenseKernels();

/// C = op(A)·op(B) on the widest available variant, chosen once per process.
void DenseProduct(ProductLayout layout, const float* a, const float* b,
                  size_t m, size_t n, size_t k, float* c);

/// Nearest centroid per point on the same variant DenseProduct uses.
void NearestCentroid(const float* points, size_t n, const float* centroids,
                     const float* norms, size_t k, size_t d, uint32_t* out);

/// Reconstruction distances on the same variant DenseProduct uses.
void ReconstructionDistances(const float* query, const float* const* words,
                             size_t n, size_t m, size_t d, float* out);

}  // namespace lightlt

#endif  // LIGHTLT_TENSOR_DENSE_PRODUCT_H_
