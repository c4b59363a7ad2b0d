// Tests for the Double Skip Quantization module (paper §III-C).

#include "src/core/dsq.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/tensor/grad_check.h"
#include "src/util/rng.h"

namespace lightlt::core {
namespace {

DsqConfig SmallConfig() {
  DsqConfig cfg;
  cfg.dim = 8;
  cfg.num_codebooks = 3;
  cfg.num_codewords = 16;
  cfg.temperature = 1.0f;
  return cfg;
}

TEST(DsqConfigTest, Validation) {
  DsqConfig cfg = SmallConfig();
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.num_codewords = 1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = SmallConfig();
  cfg.temperature = 0.0f;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = SmallConfig();
  cfg.num_codebooks = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = SmallConfig();
  cfg.dim = 0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(DsqModuleTest, ForwardShapesAndCodeRanges) {
  Rng rng(1);
  DsqConfig cfg = SmallConfig();
  DsqModule dsq(cfg, rng);
  Var input = MakeConstant(Matrix::RandomGaussian(10, cfg.dim, rng));

  auto out = dsq.Forward(input);
  EXPECT_EQ(out.reconstruction->value().rows(), 10u);
  EXPECT_EQ(out.reconstruction->value().cols(), cfg.dim);
  ASSERT_EQ(out.codes.size(), 10u);
  for (const auto& item : out.codes) {
    ASSERT_EQ(item.size(), cfg.num_codebooks);
    for (uint32_t code : item) EXPECT_LT(code, cfg.num_codewords);
  }
  EXPECT_EQ(out.assignment_entropy.size(), cfg.num_codebooks);
}

TEST(DsqModuleTest, ForwardAndEncodeAgree) {
  // The training-graph hard codes must match the inference Encode() path.
  Rng rng(2);
  DsqConfig cfg = SmallConfig();
  DsqModule dsq(cfg, rng);
  Matrix x = Matrix::RandomGaussian(12, cfg.dim, rng);

  auto out = dsq.Forward(MakeConstant(x));
  std::vector<std::vector<uint32_t>> encoded;
  dsq.Encode(x, &encoded);
  EXPECT_EQ(out.codes, encoded);
}

TEST(DsqModuleTest, ForwardValueEqualsDecode) {
  // With STE, the forward reconstruction equals Decode(hard codes).
  Rng rng(3);
  DsqConfig cfg = SmallConfig();
  DsqModule dsq(cfg, rng);
  Matrix x = Matrix::RandomGaussian(6, cfg.dim, rng);

  auto out = dsq.Forward(MakeConstant(x));
  const Matrix decoded = dsq.Decode(out.codes);
  EXPECT_TRUE(out.reconstruction->value().AllClose(decoded, 1e-4f));
}

TEST(DsqModuleTest, ParameterCountMatchesArchitecture) {
  Rng rng(4);
  DsqConfig cfg = SmallConfig();
  DsqModule dsq(cfg, rng);
  // M main codebooks + (M-1) gates + FFN (2 linear layers: W1,b1,W2,b2).
  EXPECT_EQ(dsq.Parameters().size(), cfg.num_codebooks +
                                         (cfg.num_codebooks - 1) + 4);

  cfg.codebook_skip = false;
  DsqModule plain(cfg, rng);
  EXPECT_EQ(plain.Parameters().size(), cfg.num_codebooks);
}

TEST(DsqModuleTest, EffectiveCodebooksWithoutSkipAreMainCodebooks) {
  Rng rng(5);
  DsqConfig cfg = SmallConfig();
  cfg.codebook_skip = false;
  DsqModule dsq(cfg, rng);
  const auto effective = dsq.EffectiveCodebooks();
  ASSERT_EQ(effective.size(), cfg.num_codebooks);
  for (size_t m = 0; m < cfg.num_codebooks; ++m) {
    EXPECT_TRUE(effective[m].AllClose(dsq.main_codebooks()[m]->value()));
  }
}

TEST(DsqModuleTest, CodebookSkipChangesLaterCodebooks) {
  Rng rng(6);
  DsqConfig cfg = SmallConfig();
  DsqModule dsq(cfg, rng);
  const auto effective = dsq.EffectiveCodebooks();
  // C_1 == P_1 always; later stages blend the FFN-transformed predecessor.
  EXPECT_TRUE(effective[0].AllClose(dsq.main_codebooks()[0]->value()));
  EXPECT_FALSE(effective[1].AllClose(dsq.main_codebooks()[1]->value(), 1e-6f));
}

TEST(DsqModuleTest, ResidualSkipReducesReconstructionError) {
  // Multi-stage residual quantization must reconstruct better than a single
  // codebook on the same data.
  Rng rng(7);
  DsqConfig one = SmallConfig();
  one.num_codebooks = 1;
  DsqConfig four = SmallConfig();
  four.num_codebooks = 4;

  Rng data_rng(100);
  Matrix x = Matrix::RandomGaussian(64, one.dim, data_rng);

  Rng rng1(7), rng4(7);
  DsqModule dsq1(one, rng1);
  DsqModule dsq4(four, rng4);
  // Untrained but k-means-free: residual stages still soak up energy since
  // stage k quantizes what stage k-1 missed.
  EXPECT_LT(dsq4.ReconstructionError(x), dsq1.ReconstructionError(x));
}

TEST(DsqModuleTest, GradientsReachAllMainCodebooks) {
  Rng rng(8);
  DsqConfig cfg = SmallConfig();
  cfg.straight_through = true;
  DsqModule dsq(cfg, rng);
  Var input = MakeConstant(Matrix::RandomGaussian(5, cfg.dim, rng));

  auto out = dsq.Forward(input);
  Backward(ops::Sum(ops::Square(out.reconstruction)));
  for (const auto& p : dsq.main_codebooks()) {
    ASSERT_FALSE(p->grad().empty());
    EXPECT_GT(p->grad().MaxAbs(), 0.0f)
        << "codebook received no gradient through the STE";
  }
}

TEST(DsqModuleTest, SoftRelaxationGradientCheck) {
  // With straight_through disabled the whole module is smooth; verify the
  // end-to-end DSQ gradient numerically. Tolerant thresholds: the argmax
  // switch is only piecewise smooth.
  Rng rng(9);
  DsqConfig cfg;
  cfg.dim = 4;
  cfg.num_codebooks = 2;
  cfg.num_codewords = 4;
  cfg.straight_through = false;
  cfg.temperature = 2.0f;  // keep softmax smooth
  DsqModule dsq(cfg, rng);
  Var input = MakeConstant(Matrix::RandomGaussian(3, cfg.dim, rng, 0.5f));

  auto params = dsq.Parameters();
  auto result = CheckGradients(
      params,
      [&] { return ops::Sum(ops::Square(dsq.Forward(input).reconstruction)); },
      1e-3f, 5e-2f);
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(DsqModuleTest, EncodeDeterministic) {
  Rng rng(10);
  DsqConfig cfg = SmallConfig();
  DsqModule dsq(cfg, rng);
  Matrix x = Matrix::RandomGaussian(20, cfg.dim, rng);
  std::vector<std::vector<uint32_t>> a, b;
  dsq.Encode(x, &a);
  dsq.Encode(x, &b);
  EXPECT_EQ(a, b);
}

// The one-pass encode Encode ran before it worked in row chunks: every
// stage's distances over all rows at once, then the residual update.
std::vector<std::vector<uint32_t>> UnchunkedEncode(const DsqModule& dsq,
                                                   const Matrix& input) {
  const DsqConfig& cfg = dsq.config();
  const std::vector<Matrix> codebooks = dsq.EffectiveCodebooks();
  std::vector<std::vector<uint32_t>> codes(
      input.rows(), std::vector<uint32_t>(cfg.num_codebooks));
  Matrix residual = input;
  for (size_t m = 0; m < cfg.num_codebooks; ++m) {
    const Matrix d2 = residual.SquaredEuclideanTo(codebooks[m]);
    for (size_t i = 0; i < input.rows(); ++i) {
      const float* row = d2.row(i);
      size_t best = 0;
      for (size_t j = 1; j < cfg.num_codewords; ++j) {
        if (row[j] < row[best]) best = j;
      }
      codes[i][m] = static_cast<uint32_t>(best);
    }
    if (cfg.residual_skip && m + 1 < cfg.num_codebooks) {
      for (size_t i = 0; i < input.rows(); ++i) {
        const float* word = codebooks[m].row(codes[i][m]);
        float* r = residual.row(i);
        for (size_t j = 0; j < cfg.dim; ++j) r[j] -= word[j];
      }
    }
  }
  return codes;
}

TEST(DsqModuleTest, ChunkedEncodeMatchesUnchunked) {
  Rng rng(12);
  DsqConfig cfg = SmallConfig();
  DsqModule dsq(cfg, rng);
  constexpr size_t kChunk = DsqModule::kEncodeChunkRows;
  for (const size_t n : {size_t{1}, kChunk - 1, kChunk, kChunk + 1,
                         3 * kChunk + 5}) {
    const Matrix x = Matrix::RandomGaussian(n, cfg.dim, rng);
    std::vector<std::vector<uint32_t>> codes;
    dsq.Encode(x, &codes);
    EXPECT_EQ(codes, UnchunkedEncode(dsq, x)) << "n=" << n;
  }
}

TEST(DsqModuleTest, GumbelNoiseSamplesDifferentCodes) {
  Rng rng(14);
  DsqConfig cfg = SmallConfig();
  cfg.gumbel_noise = true;
  cfg.temperature = 2.0f;
  DsqModule dsq(cfg, rng);
  Matrix x = Matrix::RandomGaussian(30, cfg.dim, rng);
  const auto a = dsq.Forward(MakeConstant(x)).codes;
  const auto b = dsq.Forward(MakeConstant(x)).codes;
  // Sampling: consecutive forward passes select different codes somewhere.
  EXPECT_NE(a, b);
  // Inference stays deterministic.
  std::vector<std::vector<uint32_t>> e1, e2;
  dsq.Encode(x, &e1);
  dsq.Encode(x, &e2);
  EXPECT_EQ(e1, e2);
}

TEST(DsqModuleTest, GumbelNoiseKeepsGradientsFinite) {
  Rng rng(15);
  DsqConfig cfg = SmallConfig();
  cfg.gumbel_noise = true;
  DsqModule dsq(cfg, rng);
  Var input = MakeConstant(Matrix::RandomGaussian(8, cfg.dim, rng));
  auto out = dsq.Forward(input);
  Backward(ops::Sum(ops::Square(out.reconstruction)));
  for (const auto& p : dsq.main_codebooks()) {
    ASSERT_FALSE(p->grad().empty());
    for (size_t i = 0; i < p->grad().size(); ++i) {
      EXPECT_TRUE(std::isfinite(p->grad()[i]));
    }
  }
}

TEST(DsqModuleTest, TailTemperatureEntropyDiagnostics) {
  Rng rng(11);
  DsqConfig hot = SmallConfig();
  hot.temperature = 10.0f;
  DsqConfig cold = SmallConfig();
  cold.temperature = 0.05f;
  Rng r1(12), r2(12);
  DsqModule dsq_hot(hot, r1);
  DsqModule dsq_cold(cold, r2);
  Matrix x = Matrix::RandomGaussian(30, hot.dim, rng);
  const auto e_hot = dsq_hot.Forward(MakeConstant(x)).assignment_entropy;
  const auto e_cold = dsq_cold.Forward(MakeConstant(x)).assignment_entropy;
  // Higher temperature -> softer assignments -> higher entropy.
  EXPECT_GT(e_hot[0], e_cold[0]);
}

}  // namespace
}  // namespace lightlt::core
