// Tests for the IVF-ADC accelerated index.

#include "src/index/ivf_index.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "src/baselines/shallow_quant.h"
#include "src/clustering/kmeans.h"
#include "src/index/adc_index.h"
#include "src/serving/shard.h"
#include "src/util/rng.h"

namespace lightlt::index {
namespace {

struct Fixture {
  Matrix embeddings;
  std::vector<Matrix> codebooks;
  std::vector<std::vector<uint32_t>> codes;
};

Fixture MakeFixture(size_t n, size_t m, size_t k, size_t d, uint64_t seed) {
  Fixture f;
  Rng rng(seed);
  f.embeddings = Matrix::RandomGaussian(n, d, rng);
  for (size_t cb = 0; cb < m; ++cb) {
    f.codebooks.push_back(Matrix::RandomGaussian(k, d, rng));
  }
  f.codes.assign(n, std::vector<uint32_t>(m));
  for (auto& item : f.codes) {
    for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(k));
  }
  return f;
}

TEST(IvfOptionsTest, Validation) {
  IvfOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.num_cells = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = IvfOptions{};
  opts.nprobe = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = IvfOptions{};
  opts.nprobe = opts.num_cells + 1;
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(IvfAdcIndexTest, BuildPartitionsAllItems) {
  auto f = MakeFixture(300, 4, 16, 8, 1);
  IvfOptions opts;
  opts.num_cells = 16;
  opts.nprobe = 4;
  auto idx = IvfAdcIndex::Build(f.embeddings, f.codebooks, f.codes, opts);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  EXPECT_EQ(idx.value().num_items(), 300u);
  EXPECT_LE(idx.value().num_cells(), 16u);
}

TEST(IvfAdcIndexTest, FullProbeMatchesExhaustiveAdc) {
  // With nprobe == num_cells, IVF must return exactly the AdcIndex result.
  auto f = MakeFixture(200, 3, 8, 6, 2);
  IvfOptions opts;
  opts.num_cells = 10;
  opts.nprobe = 10;
  auto ivf = IvfAdcIndex::Build(f.embeddings, f.codebooks, f.codes, opts);
  ASSERT_TRUE(ivf.ok());
  auto adc = AdcIndex::Build(f.codebooks, f.codes);
  ASSERT_TRUE(adc.ok());

  Rng rng(3);
  Matrix q = Matrix::RandomGaussian(1, 6, rng);
  const auto ivf_hits = ivf.value().Search(q.data(), 20);
  const auto adc_hits = adc.value().Search(q.data(), 20);
  ASSERT_EQ(ivf_hits.size(), adc_hits.size());
  for (size_t i = 0; i < ivf_hits.size(); ++i) {
    EXPECT_EQ(ivf_hits[i].id, adc_hits[i].id) << "i=" << i;
    // The same codes scored by the same routine: bit-identical.
    EXPECT_EQ(ivf_hits[i].distance, adc_hits[i].distance) << "i=" << i;
  }
}

TEST(IvfAdcIndexTest, PartialProbeRecallIsHigh) {
  // Clustered data quantized for real (RQ over the embeddings): probing a
  // few cells should recover most of the true top-10.
  Rng rng(4);
  const size_t n = 600, d = 8;
  Matrix emb(n, d);
  std::vector<size_t> labels(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t cluster = i % 12;
    labels[i] = cluster;
    for (size_t j = 0; j < d; ++j) {
      emb.at(i, j) = static_cast<float>(cluster) * 2.0f +
                     0.3f * static_cast<float>(rng.NextGaussian());
    }
  }
  // Codes correlated with the embeddings, as in real use.
  data::Dataset train;
  train.features = emb;
  train.labels = labels;
  train.num_classes = 12;
  baselines::RqQuantizer rq(3, 16);
  ASSERT_TRUE(rq.Fit(train).ok());
  std::vector<std::vector<uint32_t>> codes;
  rq.EncodeItems(emb, &codes);
  const std::vector<Matrix>& codebooks = rq.codebooks();

  IvfOptions opts;
  opts.num_cells = 24;
  opts.nprobe = 24;
  auto full = IvfAdcIndex::Build(emb, codebooks, codes, opts);
  ASSERT_TRUE(full.ok());
  opts.nprobe = 6;
  auto probed = IvfAdcIndex::Build(emb, codebooks, codes, opts);
  ASSERT_TRUE(probed.ok());

  size_t overlap = 0, total = 0;
  for (int t = 0; t < 10; ++t) {
    Matrix q = emb.RowCopy(static_cast<size_t>(rng.NextIndex(n)));
    const auto truth = full.value().Search(q.data(), 10);
    const auto fast = probed.value().Search(q.data(), 10);
    std::set<uint32_t> truth_ids;
    for (const auto& h : truth) truth_ids.insert(h.id);
    for (const auto& h : fast) overlap += truth_ids.count(h.id);
    total += truth.size();
  }
  EXPECT_GT(static_cast<double>(overlap) / static_cast<double>(total), 0.6);
}

TEST(IvfAdcIndexTest, ScanFractionScalesWithNprobe) {
  auto f = MakeFixture(100, 2, 8, 6, 6);
  IvfOptions opts;
  opts.num_cells = 20;
  opts.nprobe = 5;
  auto idx = IvfAdcIndex::Build(f.embeddings, f.codebooks, f.codes, opts);
  ASSERT_TRUE(idx.ok());
  EXPECT_LT(idx.value().ExpectedScanFraction(),
            idx.value().ExpectedScanFraction(10));
}

TEST(IvfAdcIndexTest, RejectsMalformedInput) {
  auto f = MakeFixture(50, 2, 8, 6, 7);
  IvfOptions opts;
  // Mismatched counts.
  Matrix short_emb = Matrix(10, 6);
  EXPECT_FALSE(
      IvfAdcIndex::Build(short_emb, f.codebooks, f.codes, opts).ok());
  // Code out of range.
  auto bad = f.codes;
  bad[0][0] = 99;
  EXPECT_FALSE(IvfAdcIndex::Build(f.embeddings, f.codebooks, bad, opts).ok());
  // No codebooks.
  EXPECT_FALSE(IvfAdcIndex::Build(f.embeddings, {}, f.codes, opts).ok());
}

TEST(IvfAdcIndexTest, MemoryAccountedAndPositive) {
  const size_t n = 120, m = 2, k = 8, d = 6;
  auto f = MakeFixture(n, m, k, d, 8);
  IvfOptions opts;
  opts.num_cells = 8;
  opts.nprobe = 2;
  auto idx = IvfAdcIndex::Build(f.embeddings, f.codebooks, f.codes, opts);
  ASSERT_TRUE(idx.ok());
  // The cells the coarse quantizer forms (same options and seed as Build).
  clustering::KMeansOptions km;
  km.num_clusters = opts.num_cells;
  km.max_iterations = opts.kmeans_iterations;
  km.seed = opts.seed;
  const auto coarse = clustering::KMeans(f.embeddings, km);
  const size_t cells = coarse.centroids.rows();
  std::vector<size_t> cell_items(cells, 0);
  for (const uint32_t cell : coarse.assignments) ++cell_items[cell];
  size_t blocks = 0;
  for (const size_t items : cell_items) blocks += kernels::NumBlocks(items);
  // Codebooks + codes with each cell padded to whole blocks + 4n norms,
  // plus 4n ids, the cell table and the centroids with their norms.
  const size_t want = 4 * k * m * d + blocks * m * kernels::kBlockItems +
                      4 * n + 4 * n + cells * sizeof(SlotRange) +
                      4 * cells * d + 4 * cells;
  EXPECT_EQ(idx.value().MemoryBytes(), want);

  // A searcher with IVF holds that one index and nothing else; without
  // IVF, exactly the flat index.
  serving::SearcherOptions so;
  so.use_ivf = true;
  so.ivf = opts;
  auto searcher =
      serving::ReplicaSearcher::Build(f.embeddings, f.codebooks, f.codes, so);
  ASSERT_TRUE(searcher.ok());
  EXPECT_EQ(searcher.value().MemoryBytes(), want);
  so.use_ivf = false;
  auto flat =
      serving::ReplicaSearcher::Build(f.embeddings, f.codebooks, f.codes, so);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat.value().MemoryBytes(),
            4 * k * m * d + kernels::NumBlocks(n) * m * kernels::kBlockItems +
                4 * n);
}

TEST(IvfAdcIndexTest, TiedDistancesBreakByAscendingId) {
  // Duplicated code groups with full probe: the merged result must order
  // ties by ascending database id even though items arrive cell by cell
  // in centroid order, not id order.
  auto f = MakeFixture(120, 3, 8, 6, 21);
  for (size_t i = 0; i < 120; ++i) f.codes[i] = f.codes[i / 6 * 6];
  IvfOptions opts;
  opts.num_cells = 8;
  opts.nprobe = 8;
  auto ivf = IvfAdcIndex::Build(f.embeddings, f.codebooks, f.codes, opts);
  ASSERT_TRUE(ivf.ok());

  Rng rng(22);
  Matrix q = Matrix::RandomGaussian(1, 6, rng);
  const auto hits = ivf.value().Search(q.data(), 15);  // cuts a tie group
  ASSERT_EQ(hits.size(), 15u);
  for (size_t i = 1; i < hits.size(); ++i) {
    ASSERT_TRUE(hits[i - 1].distance < hits[i].distance ||
                (hits[i - 1].distance == hits[i].distance &&
                 hits[i - 1].id < hits[i].id))
        << "i=" << i;
  }
  // Against exhaustive ADC ground truth with the same tie rule the ids
  // must agree exactly, not merely the distances.
  auto adc = AdcIndex::Build(f.codebooks, f.codes);
  ASSERT_TRUE(adc.ok());
  const auto want = adc.value().Search(q.data(), 15);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].id, want[i].id) << "i=" << i;
  }
}

TEST(IvfAdcIndexTest, ProbeHistogramsRecordPartialScansOnEarlyReturn) {
  // A scan cut short by cancellation must still land in the probe-breadth
  // histograms with whatever it actually scanned — otherwise the probed
  // cells / scanned-fraction distributions are biased toward fast queries.
  auto f = MakeFixture(200, 2, 8, 6, 23);
  IvfOptions opts;
  opts.num_cells = 8;
  opts.nprobe = 4;
  auto ivf = IvfAdcIndex::Build(f.embeddings, f.codebooks, f.codes, opts);
  ASSERT_TRUE(ivf.ok());
  obs::MetricsRegistry registry;
  ivf.value().Instrument(&registry, "ivf_");

  CancellationSource cancel;
  cancel.RequestCancellation();  // fails the check after the first cell
  ScanControl control;
  control.cancel = cancel.token();
  Rng rng(24);
  Matrix q = Matrix::RandomGaussian(1, 6, rng);
  auto result = ivf.value().Search(q.data(), 5, control, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  const auto cells = registry.GetHistogram("ivf_probed_cells")->Snapshot();
  ASSERT_EQ(cells.count, 1u);
  // Exactly one cell completed before the between-cell check fired.
  EXPECT_LE(cells.sum, 1.0 + 1e-9);
  const auto frac =
      registry.GetHistogram("ivf_scanned_fraction")->Snapshot();
  ASSERT_EQ(frac.count, 1u);
  EXPECT_LT(frac.Mean(), 1.0);

  // A completed search records the full probe breadth alongside.
  ASSERT_TRUE(ivf.value().Search(q.data(), 5, ScanControl{}, 0).ok());
  const auto after = registry.GetHistogram("ivf_probed_cells")->Snapshot();
  EXPECT_EQ(after.count, 2u);
  EXPECT_NEAR(after.sum, 1.0 + static_cast<double>(opts.nprobe), 1e-9);
}

TEST(IvfAdcIndexTest, SaveLoadRoundTripPreservesSearch) {
  auto f = MakeFixture(150, 3, 8, 6, 9);
  IvfOptions opts;
  opts.num_cells = 8;
  opts.nprobe = 3;
  auto built = IvfAdcIndex::Build(f.embeddings, f.codebooks, f.codes, opts);
  ASSERT_TRUE(built.ok());

  const std::string path =
      std::string(::testing::TempDir()) + "/ivf_roundtrip.bin";
  ASSERT_TRUE(built.value().Save(path).ok());
  auto loaded = IvfAdcIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_items(), built.value().num_items());
  EXPECT_EQ(loaded.value().num_cells(), built.value().num_cells());

  Rng rng(10);
  for (int t = 0; t < 5; ++t) {
    Matrix q = Matrix::RandomGaussian(1, 6, rng);
    const auto before = built.value().Search(q.data(), 15);
    const auto after = loaded.value().Search(q.data(), 15);
    ASSERT_EQ(before.size(), after.size());
    for (size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i].id, after[i].id);
      EXPECT_EQ(before[i].distance, after[i].distance);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lightlt::index
