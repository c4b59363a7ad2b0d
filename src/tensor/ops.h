// Differentiable operation library for the autograd engine.
//
// All ops are free functions returning a new graph node. Shapes follow the
// conventions of the paper: batches are (n x d) row-major, codebooks are
// (K x d), class prototypes are (C x d).

#ifndef LIGHTLT_TENSOR_OPS_H_
#define LIGHTLT_TENSOR_OPS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/tensor/variable.h"

namespace lightlt::ops {

// ---- Elementwise arithmetic ------------------------------------------------

/// Elementwise a + b (same shape).
Var Add(const Var& a, const Var& b);
/// Elementwise a - b (same shape).
Var Sub(const Var& a, const Var& b);
/// Hadamard product a * b (same shape).
Var Mul(const Var& a, const Var& b);
/// x * s for a compile-time constant scalar s.
Var Scale(const Var& x, float s);
/// x + s elementwise.
Var AddScalar(const Var& x, float s);
/// -x.
Var Neg(const Var& x);
/// x^2 elementwise.
Var Square(const Var& x);
/// sqrt(x + eps) elementwise; eps keeps the derivative finite at 0.
Var SqrtElem(const Var& x, float eps = 1e-12f);
/// Elementwise product with a constant matrix (e.g. per-sample CE weights).
Var MulConstant(const Var& x, const Matrix& w);
/// e^x elementwise.
Var Exp(const Var& x);
/// log(x + eps) elementwise.
Var Log(const Var& x, float eps = 1e-12f);
/// log(1 + e^x), numerically stable (used by pairwise-logistic hash losses).
Var Softplus(const Var& x);
/// |x| elementwise (subgradient 0 at 0).
Var Abs(const Var& x);

// ---- Nonlinearities ---------------------------------------------------------

/// max(x, 0).
Var Relu(const Var& x);
/// One element of Relu: v > 0 ? v : +0, so NaN and -0 give +0. Branch-free:
/// hidden pre-activations are positive about half the time, and a branch on
/// their sign mispredicts on every other element.
inline float ReluValue(float v) {
  const uint32_t keep = 0u - static_cast<uint32_t>(v > 0.0f);
  return std::bit_cast<float>(std::bit_cast<uint32_t>(v) & keep);
}
/// tanh(x) (used by the hash baselines' binarization relaxations).
Var Tanh(const Var& x);
/// Row-wise softmax of (x / temperature) — paper Eqn. 5.
Var SoftmaxRows(const Var& x, float temperature = 1.0f);
/// Row-wise log-softmax (numerically stable).
Var LogSoftmaxRows(const Var& x);

// ---- Linear algebra ----------------------------------------------------------

/// a (m x k) * b (k x n).
Var MatMul(const Var& a, const Var& b);
/// a (m x k) * b^T where b is (n x k) -> (m x n).
Var MatMulTransposed(const Var& a, const Var& b);
/// x (n x d) + broadcast bias (1 x d) to each row.
Var AddRowBroadcast(const Var& x, const Var& bias);
/// x scaled by a learnable 1x1 scalar variable — the DSQ codebook gate g_k.
Var ScaleByScalarVar(const Var& x, const Var& s);

// ---- Reductions ---------------------------------------------------------------

/// Sum of all entries -> 1x1.
Var Sum(const Var& x);
/// Mean of all entries -> 1x1.
Var Mean(const Var& x);
/// Per-row L2 norm sqrt(sum_j x_ij^2 + eps) -> (n x 1).
Var RowL2Norm(const Var& x, float eps = 1e-12f);

// ---- Distance / similarity kernels --------------------------------------------

/// Negative squared Euclidean similarity between rows of x (n x d) and rows
/// of c (K x d): out_ij = -||x_i - c_j||^2. This is the codeword-selection
/// similarity s(., .) of paper Eqn. 3, fused for efficiency.
Var NegSquaredEuclidean(const Var& x, const Var& c);

/// Pairwise Euclidean distance matrix: out_ij = ||x_i - c_j|| (n x K).
Var PairwiseL2Distance(const Var& x, const Var& c, float eps = 1e-12f);

// ---- Indexing -------------------------------------------------------------------

/// out_i = x[indices[i]] row gather; backward scatter-adds.
Var GatherRows(const Var& x, const std::vector<size_t>& indices);
/// out_i = x(i, cols[i]) -> (n x 1); backward scatters into picked columns.
Var PickPerRow(const Var& x, const std::vector<size_t>& cols);

// ---- Gradient-flow control --------------------------------------------------------

/// Detaches x: same value, gradient does not flow back.
Var StopGradient(const Var& x);

/// Straight-Through Estimator (paper Eqn. 6): forward returns `hard`
/// (typically a one-hot row matrix), backward passes the incoming gradient
/// to `soft` unchanged, i.e. hard = soft + sg(hard - soft).
Var StraightThrough(const Var& soft, const Matrix& hard);

// ---- Helpers ------------------------------------------------------------------------

/// Builds an (n x K) one-hot matrix from per-row indices.
Matrix OneHot(const std::vector<size_t>& indices, size_t num_classes);

}  // namespace lightlt::ops

#endif  // LIGHTLT_TENSOR_OPS_H_
