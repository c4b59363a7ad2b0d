// Gradient-correctness tests for the autograd op library: every
// differentiable op is verified against central finite differences.

#include "src/tensor/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/tensor/grad_check.h"
#include "src/util/rng.h"

namespace lightlt {
namespace {

using ops::Add;
using ops::AddRowBroadcast;
using ops::GatherRows;
using ops::LogSoftmaxRows;
using ops::MatMul;
using ops::MatMulTransposed;
using ops::Mean;
using ops::Mul;
using ops::MulConstant;
using ops::Neg;
using ops::NegSquaredEuclidean;
using ops::OneHot;
using ops::PairwiseL2Distance;
using ops::PickPerRow;
using ops::Relu;
using ops::RowL2Norm;
using ops::Scale;
using ops::ScaleByScalarVar;
using ops::SoftmaxRows;
using ops::SqrtElem;
using ops::Square;
using ops::StopGradient;
using ops::StraightThrough;
using ops::Sub;
using ops::Sum;
using ops::Tanh;

Var RandomParam(size_t rows, size_t cols, Rng& rng, float stddev = 1.0f) {
  return MakeParam(Matrix::RandomGaussian(rows, cols, rng, stddev));
}

// NaN, both zeros, both infinities, denormals of both signs, FLT_MAX and
// ordinary values.
std::vector<float> ReluSpecials() {
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  return {std::numeric_limits<float>::quiet_NaN(),
          -std::numeric_limits<float>::quiet_NaN(),
          0.0f, -0.0f, inf, -inf, tiny, -tiny, 1e-40f, -3e-39f,
          std::numeric_limits<float>::max(), -std::numeric_limits<float>::max(),
          1.5f, -2.25f, 0.5f, -0.75f};
}

TEST(OpsForwardTest, ReluMatchesBranchingLoopOnSpecials) {
  // v > 0 ? v : +0, so NaN and -0 give +0.
  const std::vector<float> in = ReluSpecials();
  Var y = Relu(MakeParam(Matrix(1, in.size(), in)));
  std::vector<float> want = in;
  for (float& v : want) v = v > 0.0f ? v : 0.0f;
  ASSERT_EQ(y->value().size(), want.size());
  EXPECT_EQ(
      std::memcmp(y->value().data(), want.data(), want.size() * sizeof(float)),
      0);
}

TEST(OpsForwardTest, AddSubMulValues) {
  Var a = MakeConstant(Matrix(1, 3, {1, 2, 3}));
  Var b = MakeConstant(Matrix(1, 3, {4, 5, 6}));
  EXPECT_TRUE(Add(a, b)->value().AllClose(Matrix(1, 3, {5, 7, 9})));
  EXPECT_TRUE(Sub(a, b)->value().AllClose(Matrix(1, 3, {-3, -3, -3})));
  EXPECT_TRUE(Mul(a, b)->value().AllClose(Matrix(1, 3, {4, 10, 18})));
}

TEST(OpsForwardTest, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Var x = MakeConstant(Matrix::RandomGaussian(4, 7, rng, 3.0f));
  Var y = SoftmaxRows(x, 0.5f);
  for (size_t i = 0; i < 4; ++i) {
    float total = 0.0f;
    for (size_t j = 0; j < 7; ++j) total += y->value().at(i, j);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(OpsForwardTest, TemperatureSharpensSoftmax) {
  Var x = MakeConstant(Matrix(1, 3, {1.0f, 2.0f, 3.0f}));
  const float hot = SoftmaxRows(x, 10.0f)->value().at(0, 2);
  const float cold = SoftmaxRows(x, 0.1f)->value().at(0, 2);
  EXPECT_LT(hot, cold);
  EXPECT_GT(cold, 0.99f);  // near-argmax at low temperature
}

TEST(OpsForwardTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(6);
  Var x = MakeConstant(Matrix::RandomGaussian(3, 5, rng, 2.0f));
  Var ls = LogSoftmaxRows(x);
  Var s = SoftmaxRows(x, 1.0f);
  for (size_t i = 0; i < ls->value().size(); ++i) {
    EXPECT_NEAR(ls->value()[i], std::log(s->value()[i]), 1e-5f);
  }
}

TEST(OpsForwardTest, NegSquaredEuclideanMatchesNaive) {
  Rng rng(8);
  Var x = MakeConstant(Matrix::RandomGaussian(3, 4, rng));
  Var c = MakeConstant(Matrix::RandomGaussian(5, 4, rng));
  Var s = NegSquaredEuclidean(x, c);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < 4; ++k) {
        const double diff = x->value().at(i, k) - c->value().at(j, k);
        acc += diff * diff;
      }
      EXPECT_NEAR(s->value().at(i, j), -acc, 1e-4);
    }
  }
}

TEST(OpsForwardTest, StraightThroughForwardIsHard) {
  Var soft = MakeParam(Matrix(2, 3, {0.2f, 0.5f, 0.3f, 0.6f, 0.3f, 0.1f}));
  Matrix hard = OneHot({1, 0}, 3);
  Var ste = StraightThrough(soft, hard);
  EXPECT_TRUE(ste->value().AllClose(hard));
}

TEST(OpsForwardTest, StraightThroughBackwardFlowsToSoft) {
  Var soft = MakeParam(Matrix(1, 3, {0.2f, 0.5f, 0.3f}));
  Var ste = StraightThrough(soft, OneHot({1}, 3));
  Var loss = Sum(ste);
  Backward(loss);
  // d(sum)/d(soft) should be all-ones: the STE passes gradient unchanged.
  ASSERT_FALSE(soft->grad().empty());
  EXPECT_TRUE(soft->grad().AllClose(Matrix(1, 3, 1.0f)));
}

TEST(OpsForwardTest, StopGradientBlocksFlow) {
  Var x = MakeParam(Matrix(1, 2, {1.0f, 2.0f}));
  Var loss = Sum(StopGradient(x));
  Backward(loss);
  EXPECT_TRUE(x->grad().empty());
}

TEST(OpsForwardTest, OneHotShape) {
  Matrix oh = OneHot({2, 0, 1}, 4);
  EXPECT_EQ(oh.rows(), 3u);
  EXPECT_EQ(oh.cols(), 4u);
  EXPECT_FLOAT_EQ(oh.at(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(oh.at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(oh.Sum(), 3.0f);
}

// ---- Gradient checks -------------------------------------------------------

TEST(OpsGradTest, AddSubMul) {
  Rng rng(21);
  Var a = RandomParam(3, 4, rng);
  Var b = RandomParam(3, 4, rng);
  auto result = CheckGradients(
      {a, b}, [&] { return Sum(Mul(Add(a, b), Sub(a, b))); });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, ScaleNegSquare) {
  Rng rng(22);
  Var a = RandomParam(2, 3, rng);
  auto result = CheckGradients(
      {a}, [&] { return Sum(Square(Neg(Scale(a, 0.7f)))); });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, SqrtElem) {
  Rng rng(23);
  Var a = MakeParam(Matrix::RandomUniform(2, 3, rng, 0.5f, 2.0f));
  auto result =
      CheckGradients({a}, [&] { return Sum(SqrtElem(a, 1e-9f)); });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, MulConstant) {
  Rng rng(24);
  Var a = RandomParam(3, 2, rng);
  Matrix w = Matrix::RandomGaussian(3, 2, rng);
  auto result = CheckGradients({a}, [&] { return Sum(MulConstant(a, w)); });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, ReluAwayFromKink) {
  Rng rng(25);
  // Keep magnitudes away from zero so finite differences don't straddle the
  // kink.
  Matrix init = Matrix::RandomGaussian(3, 3, rng);
  for (size_t i = 0; i < init.size(); ++i) {
    if (std::fabs(init[i]) < 0.1f) init[i] = 0.3f;
  }
  Var a = MakeParam(init);
  auto result = CheckGradients({a}, [&] { return Sum(Square(Relu(a))); });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, ReluBackwardMatchesBranchingLoopOnSpecials) {
  // The gradient is zeroed (+0) where the input is <= 0 (either zero
  // included) and kept elsewhere: a NaN input keeps its gradient.
  const std::vector<float> in = ReluSpecials();
  std::vector<float> upstream = ReluSpecials();
  std::reverse(upstream.begin(), upstream.end());
  Var x = MakeParam(Matrix(1, in.size(), in));
  Backward(Sum(MulConstant(Relu(x), Matrix(1, upstream.size(), upstream))));
  std::vector<float> want(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    want[i] = 1.0f * upstream[i];  // Sum's ones times the constant
    if (in[i] <= 0.0f) want[i] = 0.0f;
  }
  ASSERT_EQ(x->grad().size(), want.size());
  EXPECT_EQ(
      std::memcmp(x->grad().data(), want.data(), want.size() * sizeof(float)),
      0);
}

TEST(OpsGradTest, TanhChain) {
  Rng rng(26);
  Var a = RandomParam(2, 4, rng, 0.5f);
  auto result = CheckGradients({a}, [&] { return Sum(Square(Tanh(a))); });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, MatMulBothSides) {
  Rng rng(27);
  Var a = RandomParam(3, 4, rng);
  Var b = RandomParam(4, 2, rng);
  auto result = CheckGradients({a, b}, [&] { return Sum(MatMul(a, b)); });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, MatMulTransposed) {
  Rng rng(28);
  Var a = RandomParam(3, 4, rng);
  Var b = RandomParam(5, 4, rng);
  auto result = CheckGradients(
      {a, b}, [&] { return Sum(Square(MatMulTransposed(a, b))); });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, AddRowBroadcast) {
  Rng rng(29);
  Var x = RandomParam(4, 3, rng);
  Var b = RandomParam(1, 3, rng);
  auto result = CheckGradients(
      {x, b}, [&] { return Sum(Square(AddRowBroadcast(x, b))); });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, ScaleByScalarVar) {
  Rng rng(30);
  Var x = RandomParam(3, 3, rng);
  Var s = MakeParam(Matrix::Scalar(0.8f));
  auto result = CheckGradients(
      {x, s}, [&] { return Sum(Square(ScaleByScalarVar(x, s))); });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, SoftmaxWithTemperature) {
  Rng rng(31);
  Var x = RandomParam(3, 5, rng);
  Matrix w = Matrix::RandomGaussian(3, 5, rng);
  auto result = CheckGradients({x}, [&] {
    return Sum(MulConstant(SoftmaxRows(x, 0.7f), w));
  });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, LogSoftmax) {
  Rng rng(32);
  Var x = RandomParam(3, 4, rng);
  auto result = CheckGradients(
      {x}, [&] { return Sum(PickPerRow(LogSoftmaxRows(x), {1, 0, 3})); });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, MeanAndSum) {
  Rng rng(33);
  Var x = RandomParam(4, 4, rng);
  auto result =
      CheckGradients({x}, [&] { return Add(Mean(Square(x)), Sum(x)); });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, RowL2Norm) {
  Rng rng(34);
  Var x = RandomParam(3, 5, rng);
  auto result = CheckGradients({x}, [&] { return Sum(RowL2Norm(x)); });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, NegSquaredEuclideanBothInputs) {
  Rng rng(35);
  Var x = RandomParam(4, 3, rng);
  Var c = RandomParam(5, 3, rng);
  Matrix w = Matrix::RandomGaussian(4, 5, rng);
  auto result = CheckGradients({x, c}, [&] {
    return Sum(MulConstant(NegSquaredEuclidean(x, c), w));
  });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, PairwiseL2Distance) {
  Rng rng(36);
  Var x = RandomParam(3, 4, rng);
  Var c = RandomParam(4, 4, rng);
  auto result = CheckGradients(
      {x, c}, [&] { return Sum(PairwiseL2Distance(x, c)); }, 1e-3f, 3e-2f);
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, GatherRows) {
  Rng rng(37);
  Var x = RandomParam(5, 3, rng);
  auto result = CheckGradients({x}, [&] {
    return Sum(Square(GatherRows(x, {0, 2, 2, 4})));
  });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, PickPerRow) {
  Rng rng(38);
  Var x = RandomParam(4, 6, rng);
  auto result = CheckGradients(
      {x}, [&] { return Sum(Square(PickPerRow(x, {5, 0, 3, 2}))); });
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, StraightThroughCompositeGraph) {
  // The full DSQ selection pattern: softmax -> STE -> decode.
  Rng rng(39);
  Var e = RandomParam(3, 4, rng);
  Var c = RandomParam(6, 4, rng);
  auto build = [&] {
    Var sims = NegSquaredEuclidean(e, c);
    Var soft = SoftmaxRows(sims, 1.0f);
    // Use the soft relaxation (fully differentiable) with the same graph
    // structure training uses; the STE path is validated separately above.
    Var decoded = MatMul(soft, c);
    return Sum(Square(decoded));
  };
  auto result = CheckGradients({e, c}, build, 1e-3f, 4e-2f);
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(OpsGradTest, SharedParameterAccumulatesBothPaths) {
  // f(a) = sum(a*a) via two graph paths referencing the same node.
  Var a = MakeParam(Matrix(1, 2, {3.0f, -2.0f}));
  Var loss = Sum(Mul(a, a));
  Backward(loss);
  // d/da (a^2) = 2a.
  EXPECT_TRUE(a->grad().AllClose(Matrix(1, 2, {6.0f, -4.0f})));
}

TEST(OpsGradTest, BackwardTwiceAccumulates) {
  Var a = MakeParam(Matrix(1, 1, {2.0f}));
  Var loss1 = Sum(Scale(a, 3.0f));
  Backward(loss1);
  EXPECT_FLOAT_EQ(a->grad()[0], 3.0f);
  Var loss2 = Sum(Scale(a, 3.0f));
  Backward(loss2);
  EXPECT_FLOAT_EQ(a->grad()[0], 6.0f);
  a->ZeroGrad();
  EXPECT_FLOAT_EQ(a->grad()[0], 0.0f);
}

TEST(OpsGradTest, DiamondGraph) {
  // y = (a + a) * a -> dy/da = 4a... check numerically.
  Rng rng(40);
  Var a = RandomParam(2, 2, rng);
  auto result =
      CheckGradients({a}, [&] { return Sum(Mul(Add(a, a), a)); });
  EXPECT_TRUE(result.passed) << result.detail;
}

}  // namespace
}  // namespace lightlt
