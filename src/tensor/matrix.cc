#include "src/tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/tensor/dense_product.h"

namespace lightlt {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.at(i, i) = 1.0f;
  return m;
}

Matrix Matrix::RandomGaussian(size_t rows, size_t cols, Rng& rng,
                              float stddev) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<float>(rng.NextGaussian()) * stddev;
  }
  return m;
}

Matrix Matrix::RandomUniform(size_t rows, size_t cols, Rng& rng, float lo,
                             float hi) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<float>(rng.NextUniform(lo, hi));
  }
  return m;
}

void Matrix::Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::AddInPlace(const Matrix& other) {
  LIGHTLT_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::SubInPlace(const Matrix& other) {
  LIGHTLT_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

void Matrix::MulInPlace(const Matrix& other) {
  LIGHTLT_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

void Matrix::ScaleInPlace(float s) {
  for (auto& v : data_) v *= s;
}

void Matrix::AxpyInPlace(float s, const Matrix& other) {
  LIGHTLT_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += s * other.data_[i];
}

Matrix Matrix::Add(const Matrix& other) const {
  Matrix out = *this;
  out.AddInPlace(other);
  return out;
}

Matrix Matrix::Sub(const Matrix& other) const {
  Matrix out = *this;
  out.SubInPlace(other);
  return out;
}

Matrix Matrix::Mul(const Matrix& other) const {
  Matrix out = *this;
  out.MulInPlace(other);
  return out;
}

Matrix Matrix::Scale(float s) const {
  Matrix out = *this;
  out.ScaleInPlace(s);
  return out;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  LIGHTLT_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  DenseProduct(ProductLayout::kAB, data(), other.data(), rows_, other.cols_,
               cols_, out.data());
  return out;
}

Matrix Matrix::TransposedMatMul(const Matrix& other) const {
  // (this^T * other): this is (k x m), other is (k x n) -> (m x n).
  LIGHTLT_CHECK_EQ(rows_, other.rows_);
  Matrix out(cols_, other.cols_);
  DenseProduct(ProductLayout::kAtB, data(), other.data(), cols_, other.cols_,
               rows_, out.data());
  return out;
}

Matrix Matrix::MatMulTransposed(const Matrix& other) const {
  // (this * other^T): this is (m x k), other is (n x k) -> (m x n).
  LIGHTLT_CHECK_EQ(cols_, other.cols_);
  Matrix out(rows_, other.rows_);
  DenseProduct(ProductLayout::kABt, data(), other.data(), rows_, other.rows_,
               cols_, out.data());
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out.at(j, i) = at(i, j);
  }
  return out;
}

float Matrix::Sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Matrix::Mean() const {
  LIGHTLT_CHECK(!data_.empty());
  return Sum() / static_cast<float>(data_.size());
}

float Matrix::MaxAbs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

float Matrix::SquaredNorm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(acc);
}

Matrix Matrix::RowSquaredNorms() const {
  Matrix out(rows_, 1);
  for (size_t i = 0; i < rows_; ++i) {
    const float* r = row(i);
    double acc = 0.0;
    for (size_t j = 0; j < cols_; ++j) acc += static_cast<double>(r[j]) * r[j];
    out[i] = static_cast<float>(acc);
  }
  return out;
}

Matrix Matrix::RowSums() const {
  Matrix out(rows_, 1);
  for (size_t i = 0; i < rows_; ++i) {
    const float* r = row(i);
    double acc = 0.0;
    for (size_t j = 0; j < cols_; ++j) acc += r[j];
    out[i] = static_cast<float>(acc);
  }
  return out;
}

Matrix Matrix::ColSums() const {
  Matrix out(1, cols_);
  for (size_t i = 0; i < rows_; ++i) {
    const float* r = row(i);
    for (size_t j = 0; j < cols_; ++j) out[j] += r[j];
  }
  return out;
}

std::vector<size_t> Matrix::RowArgMax() const {
  std::vector<size_t> out(rows_, 0);
  for (size_t i = 0; i < rows_; ++i) {
    const float* r = row(i);
    size_t best = 0;
    for (size_t j = 1; j < cols_; ++j) {
      if (r[j] > r[best]) best = j;
    }
    out[i] = best;
  }
  return out;
}

Matrix Matrix::RowCopy(size_t r) const {
  LIGHTLT_CHECK_LT(r, rows_);
  Matrix out(1, cols_);
  std::copy(row(r), row(r) + cols_, out.data());
  return out;
}

Matrix Matrix::GatherRows(const std::vector<size_t>& indices) const {
  Matrix out(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    LIGHTLT_CHECK_LT(indices[i], rows_);
    std::copy(row(indices[i]), row(indices[i]) + cols_, out.row(i));
  }
  return out;
}

Matrix Matrix::VStack(const Matrix& other) const {
  if (empty()) return other;
  LIGHTLT_CHECK_EQ(cols_, other.cols_);
  Matrix out(rows_ + other.rows_, cols_);
  std::copy(data_.begin(), data_.end(), out.data());
  std::copy(other.data_.begin(), other.data_.end(),
            out.data() + data_.size());
  return out;
}

Matrix Matrix::SquaredEuclideanTo(const Matrix& other) const {
  Matrix out;
  SquaredEuclideanTo(other, &out);
  return out;
}

void Matrix::SquaredEuclideanTo(const Matrix& other, Matrix* out) const {
  LIGHTLT_CHECK_EQ(cols_, other.cols_);
  if (out->rows() != rows_ || out->cols() != other.rows_) {
    *out = Matrix(rows_, other.rows_);
  }
  // ||a - b||^2 = ||a||^2 + ||b||^2 - 2 <a, b>
  DenseProduct(ProductLayout::kABt, data(), other.data(), rows_, other.rows_,
               cols_, out->data());
  const Matrix a2 = RowSquaredNorms();
  const Matrix b2 = other.RowSquaredNorms();
  for (size_t i = 0; i < rows_; ++i) {
    float* r = out->row(i);
    for (size_t j = 0; j < other.rows(); ++j) {
      r[j] = std::max(0.0f, a2[i] + b2[j] - 2.0f * r[j]);
    }
  }
}

bool Matrix::AllClose(const Matrix& other, float atol) const {
  if (!SameShape(other)) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > atol) return false;
  }
  return true;
}

std::string Matrix::DebugString(size_t max_rows, size_t max_cols) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "Matrix(%zu x %zu)\n", rows_, cols_);
  std::string out = buf;
  for (size_t i = 0; i < std::min(rows_, max_rows); ++i) {
    out += "  [";
    for (size_t j = 0; j < std::min(cols_, max_cols); ++j) {
      std::snprintf(buf, sizeof(buf), "%s%.4f", j ? ", " : "", at(i, j));
      out += buf;
    }
    if (cols_ > max_cols) out += ", ...";
    out += "]\n";
  }
  if (rows_ > max_rows) out += "  ...\n";
  return out;
}

}  // namespace lightlt
