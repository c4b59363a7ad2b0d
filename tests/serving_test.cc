// Tests for the RetrievalService facade.

#include "src/serving/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/core/pipeline.h"
#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "tests/reference_rerank.h"

namespace lightlt::serving {
namespace {

struct ServiceFixture {
  data::RetrievalBenchmark bench;
  std::shared_ptr<core::LightLtModel> model;
};

ServiceFixture MakeFixture() {
  data::SyntheticConfig cfg;
  cfg.num_classes = 5;
  cfg.feature_dim = 16;
  cfg.train_spec.num_classes = 5;
  cfg.train_spec.head_size = 40;
  cfg.train_spec.imbalance_factor = 8.0;
  cfg.queries_per_class = 4;
  cfg.database_per_class = 30;
  cfg.class_separation = 3.0f;
  cfg.nuisance_scale = 0.3f;
  cfg.seed = 444;

  ServiceFixture f;
  f.bench = data::GenerateSynthetic(cfg);

  core::ModelConfig mc;
  mc.input_dim = 16;
  mc.hidden_dims = {24};
  mc.embed_dim = 12;
  mc.num_classes = 5;
  mc.dsq.num_codebooks = 2;
  mc.dsq.num_codewords = 16;
  f.model = std::make_shared<core::LightLtModel>(mc, 3);

  core::TrainOptions opts;
  opts.epochs = 8;
  opts.learning_rate = 3e-3f;
  auto stats = core::TrainLightLt(f.model.get(), f.bench.train, opts);
  EXPECT_TRUE(stats.ok());
  return f;
}

TEST(RetrievalServiceTest, BuildRejectsBadInputs) {
  auto f = MakeFixture();
  EXPECT_FALSE(RetrievalService::Build(nullptr, f.bench.database.features)
                   .ok());
  Matrix empty;
  EXPECT_FALSE(RetrievalService::Build(f.model, empty).ok());
  Matrix wrong_dim(10, 7);
  EXPECT_FALSE(RetrievalService::Build(f.model, wrong_dim).ok());
}

TEST(RetrievalServiceTest, QueryReturnsRelevantItems) {
  auto f = MakeFixture();
  auto service = RetrievalService::Build(f.model, f.bench.database.features);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  size_t relevant_at_5 = 0;
  for (size_t q = 0; q < f.bench.query.size(); ++q) {
    auto hits = service.value().Query(f.bench.query.features.RowCopy(q), 5);
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits.value().size(), 5u);
    for (const auto& hit : hits.value()) {
      if (f.bench.database.labels[hit.id] == f.bench.query.labels[q]) {
        ++relevant_at_5;
        break;
      }
    }
  }
  // Most queries should find at least one same-class item in the top 5.
  EXPECT_GT(relevant_at_5, f.bench.query.size() / 2);
}

TEST(RetrievalServiceTest, QueryRejectsWrongShape) {
  auto f = MakeFixture();
  auto service = RetrievalService::Build(f.model, f.bench.database.features);
  ASSERT_TRUE(service.ok());
  Matrix bad(2, 16);
  EXPECT_FALSE(service.value().Query(bad, 3).ok());
  Matrix bad_dim(1, 9);
  EXPECT_FALSE(service.value().Query(bad_dim, 3).ok());
}

TEST(RetrievalServiceTest, BatchMatchesSingleQueries) {
  auto f = MakeFixture();
  auto service = RetrievalService::Build(f.model, f.bench.database.features);
  ASSERT_TRUE(service.ok());

  auto batch = service.value().QueryBatch(f.bench.query.features, 3,
                                          &GlobalThreadPool());
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), f.bench.query.size());
  for (size_t q = 0; q < 5; ++q) {
    auto single =
        service.value().Query(f.bench.query.features.RowCopy(q), 3);
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(batch.value()[q].ok());
    ASSERT_EQ(batch.value()[q].value().size(), single.value().size());
    for (size_t i = 0; i < single.value().size(); ++i) {
      EXPECT_EQ(batch.value()[q].value()[i].id, single.value()[i].id);
    }
  }
}

// For every query, the service built with `opts` (exact re-rank on) serves
// the reference re-rank (tests/reference_rerank.h) of the pool that the same
// service without the re-rank serves: ids and distance bits.
void ExpectServesReferenceRerank(const ServiceFixture& f,
                                 const ServiceOptions& opts, size_t top_k) {
  ServiceOptions plain = opts;
  plain.exact_rerank = false;
  plain.rerank_pool = 0;
  auto with = RetrievalService::Build(f.model, f.bench.database.features, opts);
  auto without =
      RetrievalService::Build(f.model, f.bench.database.features, plain);
  ASSERT_TRUE(with.ok() && without.ok());
  const Matrix embedded =
      core::EmbedInChunks(*f.model, f.bench.database.features);
  std::vector<std::vector<uint32_t>> codes;
  f.model->dsq().Encode(embedded, &codes);
  const std::vector<Matrix> codebooks = f.model->Codebooks();
  const size_t pool = std::max(top_k, opts.rerank_pool);
  for (size_t q = 0; q < f.bench.query.size(); ++q) {
    const Matrix features = f.bench.query.features.RowCopy(q);
    auto candidates = without.value().Query(features, pool);
    ASSERT_TRUE(candidates.ok());
    std::vector<index::SearchHit> hits;
    for (const ServedHit& hit : candidates.value()) {
      hits.push_back({hit.id, hit.distance});
    }
    const Matrix query = f.model->Embed(features);
    const auto want =
        testing_ref::ReferenceRerank(query.data(), hits, codebooks, codes,
                                     top_k);
    auto got = with.value().Query(features, top_k);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value().size(), want.size()) << "q=" << q;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.value()[i].id, want[i].id) << "q=" << q << " i=" << i;
      EXPECT_EQ(std::memcmp(&got.value()[i].distance, &want[i].distance,
                            sizeof(float)),
                0)
          << "q=" << q << " i=" << i;
    }
  }
}

TEST(RetrievalServiceTest, ExactRerankKeepsResultSetConsistent) {
  auto f = MakeFixture();
  ServiceOptions opts;
  opts.exact_rerank = true;
  opts.rerank_pool = 20;
  auto service =
      RetrievalService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(service.ok());
  auto hits = service.value().Query(f.bench.query.features.RowCopy(0), 5);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits.value().size(), 5u);
  // Distances ascending after re-rank.
  for (size_t i = 1; i < hits.value().size(); ++i) {
    EXPECT_LE(hits.value()[i - 1].distance, hits.value()[i].distance);
  }
  // And they are the reference re-rank's, flat and with IVF.
  ExpectServesReferenceRerank(f, opts, 5);
  ServiceOptions ivf = opts;
  ivf.use_ivf = true;
  ivf.ivf.num_cells = 10;
  ivf.ivf.nprobe = 4;
  ExpectServesReferenceRerank(f, ivf, 5);
}

TEST(RetrievalServiceTest, IvfModeServesAndSaysHowMuchItScans) {
  auto f = MakeFixture();
  ServiceOptions opts;
  opts.use_ivf = true;
  opts.ivf.num_cells = 10;
  opts.ivf.nprobe = 4;
  auto service =
      RetrievalService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto hits = service.value().Query(f.bench.query.features.RowCopy(0), 5);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().size(), 5u);
  EXPECT_GT(service.value().IndexMemoryBytes(), 0u);
}

TEST(RetrievalServiceTest, BuildRejectsNonFiniteDatabase) {
  auto f = MakeFixture();
  Matrix bad = f.bench.database.features;
  bad.data()[7] = std::numeric_limits<float>::quiet_NaN();
  auto service = RetrievalService::Build(f.model, bad);
  EXPECT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
}

TEST(RetrievalServiceTest, QueryRejectsNonFiniteFeatures) {
  auto f = MakeFixture();
  auto service = RetrievalService::Build(f.model, f.bench.database.features);
  ASSERT_TRUE(service.ok());

  Matrix nan_query = f.bench.query.features.RowCopy(0);
  nan_query.data()[3] = std::numeric_limits<float>::quiet_NaN();
  auto hits = service.value().Query(nan_query, 3);
  EXPECT_FALSE(hits.ok());
  EXPECT_EQ(hits.status().code(), StatusCode::kInvalidArgument);

  // A poisoned row fails only itself; its siblings are served normally.
  Matrix inf_batch = f.bench.query.features;
  inf_batch.data()[11] = std::numeric_limits<float>::infinity();
  auto batch = service.value().QueryBatch(inf_batch, 3);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), f.bench.query.size());
  EXPECT_FALSE(batch.value()[0].ok());
  EXPECT_EQ(batch.value()[0].status().code(), StatusCode::kInvalidArgument);
  for (size_t q = 1; q < batch.value().size(); ++q) {
    EXPECT_TRUE(batch.value()[q].ok());
  }
}

TEST(RetrievalServiceTest, EdgeCaseTopKAndEmptyBatch) {
  auto f = MakeFixture();
  auto service = RetrievalService::Build(f.model, f.bench.database.features);
  ASSERT_TRUE(service.ok());
  const Matrix query = f.bench.query.features.RowCopy(0);

  // top_k = 0 is a valid (if useless) request: empty result, no error.
  auto none = service.value().Query(query, 0);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());

  // top_k beyond the database returns everything, once.
  const size_t n = service.value().num_items();
  auto all = service.value().Query(query, n + 100);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), n);

  // A zero-row batch is answered with a zero-length result list.
  Matrix empty_batch(0, 16);
  auto batch = service.value().QueryBatch(empty_batch, 3);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch.value().empty());
}

TEST(RetrievalServiceTest, RerankPoolSmallerThanTopKStillFillsTopK) {
  auto f = MakeFixture();
  ServiceOptions opts;
  opts.exact_rerank = true;
  opts.rerank_pool = 2;  // smaller than top_k below
  auto service =
      RetrievalService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(service.ok());
  auto hits = service.value().Query(f.bench.query.features.RowCopy(0), 6);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().size(), 6u);
  // The pool grows to top_k and is re-ranked whole.
  ExpectServesReferenceRerank(f, opts, 6);
}

TEST(RetrievalServiceTest, IvfShortfallDegradesToFlatScan) {
  auto f = MakeFixture();
  ServiceOptions opts;
  opts.use_ivf = true;
  opts.ivf.num_cells = 10;
  opts.ivf.nprobe = 2;  // probes a strict subset of the database
  auto service =
      RetrievalService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ(service.value().Stats().flat_fallbacks, 0u);

  // Asking for every item exceeds what 2 of 10 cells can supply, so the
  // query must be served by the flat fallback — full result set, counter up.
  const size_t n = service.value().num_items();
  auto hits = service.value().Query(f.bench.query.features.RowCopy(0), n);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().size(), n);
  EXPECT_EQ(service.value().Stats().flat_fallbacks, 1u);

  // A small top_k satisfied by the probed cells stays on the fast path.
  auto fast = service.value().Query(f.bench.query.features.RowCopy(1), 3);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(service.value().Stats().flat_fallbacks, 1u);
}

TEST(RetrievalServiceTest, DriftSelfMonitoringFreezesAfterWarmup) {
  auto f = MakeFixture();
  ServiceOptions opts;
  opts.drift.enabled = true;
  opts.drift.warmup_queries = 5;
  opts.drift.check_every = 2;
  // Windows this small produce meaningless PSI; the guard must hold sweeps
  // back until enough post-freeze traffic accumulates, so steady traffic
  // cannot false-fire right after warmup.
  opts.drift.watch.min_window_count = 50;
  auto service =
      RetrievalService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_NE(service.value().Drift(), nullptr);

  // The baseline stays open through the warmup window...
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.value()
                    .Query(f.bench.query.features.RowCopy(i % 4), 3)
                    .ok());
    EXPECT_FALSE(service.value().DriftBaselineFrozen());
  }
  // ...and freezes on the query that completes it.
  ASSERT_TRUE(service.value().Query(f.bench.query.features.RowCopy(0), 3).ok());
  EXPECT_TRUE(service.value().DriftBaselineFrozen());

  // Steady traffic past warmup runs periodic sweeps without false alarms.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(service.value()
                    .Query(f.bench.query.features.RowCopy(i % 4), 3)
                    .ok());
  }
  EXPECT_FALSE(service.value().Drift()->Drifted("adc_scan_chunk_seconds"));
  EXPECT_EQ(service.value().Drift()->fire_count(), 0u);
}

TEST(RetrievalServiceTest, DriftDisabledByDefault) {
  auto f = MakeFixture();
  auto service = RetrievalService::Build(f.model, f.bench.database.features);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service.value().Drift(), nullptr);
  EXPECT_FALSE(service.value().DriftBaselineFrozen());
}

}  // namespace
}  // namespace lightlt::serving
