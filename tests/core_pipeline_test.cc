// End-to-end pipeline tests: embedding chunking, index construction, MAP
// evaluation and head/tail breakdown.

#include "src/core/pipeline.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/core/trainer.h"

namespace lightlt::core {
namespace {

data::RetrievalBenchmark SmallBenchmark() {
  data::SyntheticConfig cfg;
  cfg.num_classes = 6;
  cfg.feature_dim = 16;
  cfg.train_spec.num_classes = 6;
  cfg.train_spec.head_size = 40;
  cfg.train_spec.imbalance_factor = 8.0;
  cfg.queries_per_class = 5;
  cfg.database_per_class = 15;
  cfg.class_separation = 3.0f;
  cfg.nuisance_scale = 0.3f;
  cfg.seed = 888;
  return data::GenerateSynthetic(cfg);
}

ModelConfig SmallModel() {
  ModelConfig cfg;
  cfg.input_dim = 16;
  cfg.hidden_dims = {24};
  cfg.embed_dim = 12;
  cfg.num_classes = 6;
  cfg.dsq.num_codebooks = 2;
  cfg.dsq.num_codewords = 8;
  return cfg;
}

TEST(PipelineTest, EmbedInChunksMatchesSinglePass) {
  LightLtModel model(SmallModel(), 5);
  Rng rng(6);
  Matrix x = Matrix::RandomGaussian(33, 16, rng);
  const Matrix whole = model.Embed(x);
  const Matrix chunked = EmbedInChunks(model, x, /*chunk=*/7);
  ThreadPool pool(3);
  const Matrix pooled = EmbedInChunks(model, x, /*chunk=*/7, &pool);
  // Every row's arithmetic is independent of the chunk it lands in.
  ASSERT_TRUE(whole.SameShape(chunked));
  ASSERT_TRUE(whole.SameShape(pooled));
  EXPECT_EQ(std::memcmp(whole.data(), chunked.data(),
                        whole.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(whole.data(), pooled.data(),
                        whole.size() * sizeof(float)),
            0);
}

TEST(PipelineTest, BuildAdcIndexCoversDatabase) {
  const auto bench = SmallBenchmark();
  LightLtModel model(SmallModel(), 5);
  auto idx = BuildAdcIndex(model, bench.database.features);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value().num_items(), bench.database.size());
  EXPECT_EQ(idx.value().num_codebooks(), 2u);
  EXPECT_EQ(idx.value().dim(), 12u);
}

TEST(PipelineTest, IndexReconstructionMatchesDsqDecode) {
  const auto bench = SmallBenchmark();
  LightLtModel model(SmallModel(), 5);
  auto idx = BuildAdcIndex(model, bench.database.features);
  ASSERT_TRUE(idx.ok());

  const Matrix embedded = EmbedInChunks(model, bench.database.features);
  std::vector<std::vector<uint32_t>> codes;
  model.dsq().Encode(embedded, &codes);
  const Matrix decoded = model.dsq().Decode(codes);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(idx.value().Reconstruct(i).AllClose(decoded.RowCopy(i), 1e-4f));
  }
}

TEST(PipelineTest, EvaluateReportsHeadAndTail) {
  const auto bench = SmallBenchmark();
  LightLtModel model(SmallModel(), 5);
  TrainOptions opts;
  opts.epochs = 8;
  opts.learning_rate = 3e-3f;
  ASSERT_TRUE(TrainLightLt(&model, bench.train, opts).ok());

  auto report = EvaluateModel(model, bench, &GlobalThreadPool());
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().map, 0.0);
  EXPECT_GT(report.value().head_map, 0.0);
  EXPECT_GT(report.value().tail_map, 0.0);
  EXPECT_GT(report.value().index_bytes, 0u);
  EXPECT_GT(report.value().raw_bytes, report.value().index_bytes);
  // Overall MAP lies between the head and tail MAPs.
  const double lo =
      std::min(report.value().head_map, report.value().tail_map);
  const double hi =
      std::max(report.value().head_map, report.value().tail_map);
  EXPECT_GE(report.value().map, lo - 1e-9);
  EXPECT_LE(report.value().map, hi + 1e-9);
}

TEST(PipelineTest, LongTailTrainingHelpsTail) {
  // Class-weighted CE (gamma > 0) should yield better tail MAP than plain
  // CE on the same data/model/seed.
  const auto bench = SmallBenchmark();
  auto run = [&](float gamma) {
    LightLtModel model(SmallModel(), 5);
    TrainOptions opts;
    opts.epochs = 12;
    opts.learning_rate = 3e-3f;
    opts.loss.gamma = gamma;
    EXPECT_TRUE(TrainLightLt(&model, bench.train, opts).ok());
    auto report = EvaluateModel(model, bench);
    EXPECT_TRUE(report.ok());
    return report.value();
  };
  const auto plain = run(0.0f);
  const auto weighted = run(0.9f);
  // Not universally guaranteed on tiny data, but holds for this seed; the
  // weighted run must not collapse and should not lose much on head.
  EXPECT_GT(weighted.tail_map, plain.tail_map * 0.8);
  EXPECT_GT(weighted.map, 0.2);  // well above the 1/6 random floor
}

}  // namespace
}  // namespace lightlt::core
