// Tests for the assembled LightLtModel: shapes, parameter bookkeeping,
// determinism, and the shared-backbone / distinct-head seeding contract.

#include "src/core/lightlt_model.h"

#include <gtest/gtest.h>

#include <cstring>

namespace lightlt::core {
namespace {

ModelConfig Config() {
  ModelConfig cfg;
  cfg.input_dim = 10;
  cfg.hidden_dims = {20, 14};
  cfg.embed_dim = 8;
  cfg.num_classes = 4;
  cfg.dsq.num_codebooks = 3;
  cfg.dsq.num_codewords = 8;
  return cfg;
}

TEST(LightLtModelTest, ForwardShapes) {
  LightLtModel model(Config(), 1);
  Rng rng(2);
  Matrix batch = Matrix::RandomGaussian(6, 10, rng);
  auto out = model.Forward(batch);
  EXPECT_EQ(out.embedding->value().rows(), 6u);
  EXPECT_EQ(out.embedding->value().cols(), 8u);
  EXPECT_EQ(out.quantized->value().rows(), 6u);
  EXPECT_EQ(out.quantized->value().cols(), 8u);
  EXPECT_EQ(out.logits->value().rows(), 6u);
  EXPECT_EQ(out.logits->value().cols(), 4u);
  ASSERT_EQ(out.codes.size(), 6u);
  EXPECT_EQ(out.codes[0].size(), 3u);
}

TEST(LightLtModelTest, ParameterInventory) {
  LightLtModel model(Config(), 1);
  // Backbone: 3 layers x 2; DSQ: 3 codebooks + 2 gates + 4 FFN params;
  // classifier: 2; prototypes: 1.
  EXPECT_EQ(model.Parameters().size(), 6u + 9u + 2u + 1u);
  EXPECT_EQ(model.DsqParameters().size(), 9u);
  EXPECT_GT(model.NumParameters(), 0u);
}

TEST(LightLtModelTest, DsqParametersAreSubsetOfParameters) {
  LightLtModel model(Config(), 1);
  const auto all = model.Parameters();
  for (const auto& p : model.DsqParameters()) {
    bool found = false;
    for (const auto& q : all) {
      if (q.get() == p.get()) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(LightLtModelTest, SameSeedSameModel) {
  LightLtModel a(Config(), 42);
  LightLtModel b(Config(), 42);
  const auto pa = a.Parameters(), pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i]->value().AllClose(pb[i]->value(), 0.0f));
  }
}

TEST(LightLtModelTest, HeadSeedVariesHeadOnly) {
  LightLtModel a(Config(), 42, /*head_seed=*/7);
  LightLtModel b(Config(), 42, /*head_seed=*/8);
  // Backbone (first parameter) identical, DSQ codebooks differ.
  EXPECT_TRUE(
      a.Parameters()[0]->value().AllClose(b.Parameters()[0]->value(), 0.0f));
  EXPECT_FALSE(a.dsq().main_codebooks()[0]->value().AllClose(
      b.dsq().main_codebooks()[0]->value(), 1e-5f));
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(LightLtModelTest, EmbedIsDeterministicAndMatchesForward) {
  // Embed runs the backbone without the tape; it must produce the taped
  // Forward's embedding bit for bit, ReLU zeros and all.
  LightLtModel model(Config(), 3);
  Rng rng(4);
  Matrix x = Matrix::RandomGaussian(5, 10, rng);
  const Matrix e1 = model.Embed(x);
  const Matrix e2 = model.Embed(x);
  EXPECT_TRUE(BitEqual(e1, e2));
  auto out = model.Forward(x);
  EXPECT_TRUE(BitEqual(out.embedding->value(), e1));
}

TEST(LightLtModelTest, EncodeDatabaseMatchesManualPipeline) {
  LightLtModel model(Config(), 3);
  Rng rng(5);
  Matrix x = Matrix::RandomGaussian(7, 10, rng);
  std::vector<std::vector<uint32_t>> via_model, manual;
  model.EncodeDatabase(x, &via_model);
  model.dsq().Encode(model.Embed(x), &manual);
  EXPECT_EQ(via_model, manual);
}

TEST(LightLtModelTest, CopyParametersTransfersState) {
  LightLtModel a(Config(), 10);
  LightLtModel b(Config(), 11);
  b.CopyParametersFrom(a);
  const auto pa = a.Parameters(), pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pb[i]->value().AllClose(pa[i]->value(), 0.0f));
  }
  // Behavioural equality: same codes for the same inputs.
  Rng rng(6);
  Matrix x = Matrix::RandomGaussian(4, 10, rng);
  std::vector<std::vector<uint32_t>> ca, cb;
  a.EncodeDatabase(x, &ca);
  b.EncodeDatabase(x, &cb);
  EXPECT_EQ(ca, cb);
}

}  // namespace
}  // namespace lightlt::core
