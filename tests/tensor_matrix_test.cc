// Unit tests for the Matrix numeric core.

#include "src/tensor/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/tensor/dense_product.h"
#include "src/util/rng.h"

namespace lightlt {
namespace {

TEST(MatrixTest, ConstructionAndShape) {
  Matrix m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_FLOAT_EQ(m[i], 1.5f);
}

TEST(MatrixTest, ScalarFactory) {
  Matrix s = Matrix::Scalar(2.5f);
  EXPECT_EQ(s.rows(), 1u);
  EXPECT_EQ(s.cols(), 1u);
  EXPECT_FLOAT_EQ(s[0], 2.5f);
}

TEST(MatrixTest, IdentityFactory) {
  Matrix eye = Matrix::Identity(3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(eye.at(i, j), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(MatrixTest, MatMulMatchesHandComputed) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = a.MatMul(b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatrixTest, FusedTransposedProductsMatchExplicitTranspose) {
  Rng rng(7);
  Matrix a = Matrix::RandomGaussian(5, 4, rng);
  Matrix b = Matrix::RandomGaussian(5, 3, rng);
  Matrix c = Matrix::RandomGaussian(6, 4, rng);

  EXPECT_TRUE(a.TransposedMatMul(b).AllClose(a.Transpose().MatMul(b), 1e-4f));
  EXPECT_TRUE(a.MatMulTransposed(c).AllClose(a.MatMul(c.Transpose()), 1e-4f));
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {4, 5, 6});
  EXPECT_TRUE(a.Add(b).AllClose(Matrix(1, 3, {5, 7, 9})));
  EXPECT_TRUE(b.Sub(a).AllClose(Matrix(1, 3, {3, 3, 3})));
  EXPECT_TRUE(a.Mul(b).AllClose(Matrix(1, 3, {4, 10, 18})));
  EXPECT_TRUE(a.Scale(2.0f).AllClose(Matrix(1, 3, {2, 4, 6})));
}

TEST(MatrixTest, AxpyInPlace) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {10, 20, 30});
  a.AxpyInPlace(0.5f, b);
  EXPECT_TRUE(a.AllClose(Matrix(1, 3, {6, 12, 18})));
}

TEST(MatrixTest, Reductions) {
  Matrix m(2, 2, {1, -2, 3, -4});
  EXPECT_FLOAT_EQ(m.Sum(), -2.0f);
  EXPECT_FLOAT_EQ(m.Mean(), -0.5f);
  EXPECT_FLOAT_EQ(m.MaxAbs(), 4.0f);
  EXPECT_FLOAT_EQ(m.SquaredNorm(), 30.0f);
}

TEST(MatrixTest, RowAndColReductions) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix rs = m.RowSums();
  EXPECT_FLOAT_EQ(rs[0], 6.0f);
  EXPECT_FLOAT_EQ(rs[1], 15.0f);
  Matrix cs = m.ColSums();
  EXPECT_FLOAT_EQ(cs[0], 5.0f);
  EXPECT_FLOAT_EQ(cs[1], 7.0f);
  EXPECT_FLOAT_EQ(cs[2], 9.0f);
  Matrix rn = m.RowSquaredNorms();
  EXPECT_FLOAT_EQ(rn[0], 14.0f);
  EXPECT_FLOAT_EQ(rn[1], 77.0f);
}

TEST(MatrixTest, RowArgMax) {
  Matrix m(2, 3, {0.1f, 0.9f, 0.3f, 5.0f, -1.0f, 2.0f});
  auto am = m.RowArgMax();
  EXPECT_EQ(am[0], 1u);
  EXPECT_EQ(am[1], 0u);
}

TEST(MatrixTest, GatherRows) {
  Matrix m(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix g = m.GatherRows({2, 0, 2});
  ASSERT_EQ(g.rows(), 3u);
  EXPECT_FLOAT_EQ(g.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(g.at(2, 1), 6.0f);
}

TEST(MatrixTest, VStack) {
  Matrix a(1, 2, {1, 2});
  Matrix b(2, 2, {3, 4, 5, 6});
  Matrix s = a.VStack(b);
  ASSERT_EQ(s.rows(), 3u);
  EXPECT_FLOAT_EQ(s.at(2, 1), 6.0f);
  // Stacking onto an empty matrix returns the other operand.
  Matrix empty;
  EXPECT_TRUE(empty.VStack(b).AllClose(b));
}

TEST(MatrixTest, SquaredEuclideanMatchesNaive) {
  Rng rng(11);
  Matrix x = Matrix::RandomGaussian(4, 6, rng);
  Matrix c = Matrix::RandomGaussian(5, 6, rng);
  Matrix d2 = x.SquaredEuclideanTo(c);
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < c.rows(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < x.cols(); ++k) {
        const double diff = x.at(i, k) - c.at(j, k);
        acc += diff * diff;
      }
      EXPECT_NEAR(d2.at(i, j), acc, 1e-3);
    }
  }
}

// The three product loops Matrix ran before DenseProduct, kept verbatim as
// the reference every kernel variant must match bit for bit.
void ReferenceMatMul(const float* a, const float* b, size_t m, size_t n,
                     size_t k, float* out) {
  std::fill(out, out + m * n, 0.0f);
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* o_row = out + i * n;
    for (size_t t = 0; t < k; ++t) {
      const float av = a_row[t];
      if (av == 0.0f) continue;
      const float* b_row = b + t * n;
      for (size_t j = 0; j < n; ++j) o_row[j] += av * b_row[j];
    }
  }
}

void ReferenceTransposedMatMul(const float* a, const float* b, size_t m,
                               size_t n, size_t k, float* out) {
  std::fill(out, out + m * n, 0.0f);
  for (size_t t = 0; t < k; ++t) {
    const float* a_row = a + t * m;
    const float* b_row = b + t * n;
    for (size_t i = 0; i < m; ++i) {
      const float av = a_row[i];
      if (av == 0.0f) continue;
      float* o_row = out + i * n;
      for (size_t j = 0; j < n; ++j) o_row[j] += av * b_row[j];
    }
  }
}

void ReferenceMatMulTransposed(const float* a, const float* b, size_t m,
                               size_t n, size_t k, float* out) {
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* o_row = out + i * n;
    for (size_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (size_t t = 0; t < k; ++t) acc += a_row[t] * b_row[t];
      o_row[j] = acc;
    }
  }
}

// Gaussian entries with zeros (a tenth, as after a ReLU), -0, NaN, ±Inf and
// denormals planted at random positions.
std::vector<float> PlantedOperand(size_t size, Rng& rng) {
  // The NaN this CPU's arithmetic produces (Inf - Inf): with every NaN
  // sharing its bits, memcmp does not depend on which NaN operand an add
  // happens to propagate.
  volatile float inf = std::numeric_limits<float>::infinity();
  const float nan = inf - inf;
  const float specials[] = {nan,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -3e-39f,
                            1e-40f};
  std::vector<float> out(size);  // exact size: ASan sees any over-read
  for (float& v : out) {
    const size_t draw = rng.NextIndex(1000);
    if (draw < 100) {
      v = 0.0f;
    } else if (draw < 107) {
      v = specials[draw - 100];
    } else {
      v = static_cast<float>(rng.NextGaussian());
    }
  }
  return out;
}

TEST(MatrixTest, DenseProductsMatchScalarReference) {
  const std::vector<DenseKernel> kernels = AvailableDenseKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.back().name, "scalar");
  Rng rng(21);
  for (size_t m : {1, 3, 17, 4096}) {
    for (size_t n : {1, 15, 16, 17, 64, 128, 130}) {
      for (size_t k : {1, 64, 129}) {
        // One A and one B serve all three layouts: each holds m*k and n*k
        // entries, read as m x k / k x m and k x n / n x k.
        const std::vector<float> a = PlantedOperand(m * k, rng);
        const std::vector<float> b = PlantedOperand(n * k, rng);
        const struct {
          ProductLayout layout;
          void (*reference)(const float*, const float*, size_t, size_t,
                            size_t, float*);
        } cases[] = {{ProductLayout::kAB, &ReferenceMatMul},
                     {ProductLayout::kAtB, &ReferenceTransposedMatMul},
                     {ProductLayout::kABt, &ReferenceMatMulTransposed}};
        for (const auto& c : cases) {
          std::vector<float> want(m * n);
          c.reference(a.data(), b.data(), m, n, k, want.data());
          for (const DenseKernel& kernel : kernels) {
            std::vector<float> got(m * n, 1.0f);
            kernel.fn(c.layout, a.data(), b.data(), m, n, k, got.data());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  want.size() * sizeof(float)),
                      0)
                << kernel.name << " layout " << static_cast<int>(c.layout)
                << " m=" << m << " n=" << n << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(MatrixTest, TransposeRoundTrip) {
  Rng rng(3);
  Matrix m = Matrix::RandomGaussian(3, 7, rng);
  EXPECT_TRUE(m.Transpose().Transpose().AllClose(m));
}

TEST(MatrixTest, RandomGaussianMoments) {
  Rng rng(42);
  Matrix m = Matrix::RandomGaussian(200, 200, rng, 2.0f);
  EXPECT_NEAR(m.Mean(), 0.0f, 0.05f);
  const float var = m.SquaredNorm() / static_cast<float>(m.size());
  EXPECT_NEAR(var, 4.0f, 0.2f);
}

}  // namespace
}  // namespace lightlt
