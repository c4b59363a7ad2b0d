// Dense row-major float32 matrix: the numeric workhorse underneath the
// autograd engine, k-means, PCA, and the retrieval indexes.

#ifndef LIGHTLT_TENSOR_MATRIX_H_
#define LIGHTLT_TENSOR_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace lightlt {

/// A rows x cols dense matrix of float32, stored row-major. Vectors are
/// represented as 1 x n or n x 1 matrices; scalars as 1 x 1.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(size_t rows, size_t cols, std::vector<float> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    LIGHTLT_CHECK_EQ(data_.size(), rows_ * cols_);
  }

  /// 1x1 scalar matrix.
  static Matrix Scalar(float v) { return Matrix(1, 1, std::vector<float>{v}); }

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  /// I.i.d. N(0, stddev^2) entries.
  static Matrix RandomGaussian(size_t rows, size_t cols, Rng& rng,
                               float stddev = 1.0f);

  /// I.i.d. Uniform[lo, hi) entries.
  static Matrix RandomUniform(size_t rows, size_t cols, Rng& rng, float lo,
                              float hi);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(size_t r) { return data_.data() + r * cols_; }
  const float* row(size_t r) const { return data_.data() + r * cols_; }

  float& at(size_t r, size_t c) {
    LIGHTLT_CHECK_LT(r, rows_);
    LIGHTLT_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  float at(size_t r, size_t c) const {
    LIGHTLT_CHECK_LT(r, rows_);
    LIGHTLT_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  float& operator[](size_t i) { return data_[i]; }
  float operator[](size_t i) const { return data_[i]; }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  void Fill(float v);
  void Zero() { Fill(0.0f); }

  // ---- Elementwise in-place updates -------------------------------------
  void AddInPlace(const Matrix& other);
  void SubInPlace(const Matrix& other);
  void MulInPlace(const Matrix& other);
  void ScaleInPlace(float s);
  /// this += s * other (axpy).
  void AxpyInPlace(float s, const Matrix& other);

  // ---- Out-of-place arithmetic ------------------------------------------
  Matrix Add(const Matrix& other) const;
  Matrix Sub(const Matrix& other) const;
  Matrix Mul(const Matrix& other) const;  // Hadamard
  Matrix Scale(float s) const;

  /// Matrix product this (m x k) * other (k x n) -> (m x n). The three
  /// products run on DenseProduct (src/tensor/dense_product.h), which fixes
  /// each output's arithmetic: a k-order sum from 0.0f, no FMA.
  Matrix MatMul(const Matrix& other) const;
  /// Fused transposes, without materializing the transpose.
  Matrix TransposedMatMul(const Matrix& other) const;  // this^T * other
  Matrix MatMulTransposed(const Matrix& other) const;  // this * other^T

  Matrix Transpose() const;

  // ---- Reductions ---------------------------------------------------------
  float Sum() const;
  float Mean() const;
  float MaxAbs() const;
  /// Squared Frobenius norm.
  float SquaredNorm() const;
  /// Per-row sum of squares -> (rows x 1).
  Matrix RowSquaredNorms() const;
  /// Per-row sums -> (rows x 1).
  Matrix RowSums() const;
  /// Per-column sums -> (1 x cols).
  Matrix ColSums() const;
  /// Per-row argmax.
  std::vector<size_t> RowArgMax() const;

  // ---- Row/column access ---------------------------------------------------
  /// Copies row r as a 1 x cols matrix.
  Matrix RowCopy(size_t r) const;
  /// Gathers rows[i] into a new (indices.size() x cols) matrix.
  Matrix GatherRows(const std::vector<size_t>& indices) const;
  /// Returns a new matrix with `other` appended below (same cols).
  Matrix VStack(const Matrix& other) const;

  /// Pairwise squared Euclidean distances between rows of this (n x d) and
  /// rows of other (m x d) -> (n x m).
  Matrix SquaredEuclideanTo(const Matrix& other) const;
  /// The same into *out, reusing its storage when it is already n x m.
  void SquaredEuclideanTo(const Matrix& other, Matrix* out) const;

  /// Dense equality within tolerance, for tests.
  bool AllClose(const Matrix& other, float atol = 1e-5f) const;

  std::string DebugString(size_t max_rows = 6, size_t max_cols = 8) const;

  const std::vector<float>& storage() const { return data_; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

}  // namespace lightlt

#endif  // LIGHTLT_TENSOR_MATRIX_H_
