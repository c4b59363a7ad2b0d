#include "src/core/pipeline.h"

#include <algorithm>
#include <numeric>

#include "src/util/check.h"

namespace lightlt::core {

Matrix EmbedInChunks(const LightLtModel& model, const Matrix& x,
                     size_t chunk, ThreadPool* pool) {
  LIGHTLT_CHECK_GT(chunk, 0u);
  LIGHTLT_CHECK_EQ(x.cols(), model.config().input_dim);
  Matrix out(x.rows(), model.config().embed_dim);
  // Forward passes only read the shared parameters, and each range reads
  // and writes disjoint row spans, so chunks embed concurrently without
  // locks, straight from `x` into `out`.
  ParallelForRanges(
      pool, x.rows(),
      [&](size_t start, size_t end) {
        std::vector<float> scratch;
        model.EmbedRows(x.row(start), end - start, out.row(start), &scratch);
      },
      /*min_chunk=*/chunk);
  return out;
}

Result<index::AdcIndex> BuildAdcIndex(const LightLtModel& model,
                                      const Matrix& db_features) {
  const Matrix embedded = EmbedInChunks(model, db_features);
  std::vector<std::vector<uint32_t>> codes;
  model.dsq().Encode(embedded, &codes);
  return index::AdcIndex::Build(model.Codebooks(), codes);
}

Result<RetrievalReport> EvaluateModel(const LightLtModel& model,
                                      const data::RetrievalBenchmark& bench,
                                      ThreadPool* pool) {
  auto built = BuildAdcIndex(model, bench.database.features);
  if (!built.ok()) return built.status();
  const index::AdcIndex& idx = built.value();

  const Matrix query_embeds =
      EmbedInChunks(model, bench.query.features, /*chunk=*/4096, pool);

  eval::RankingFn ranker = [&](size_t q) {
    return idx.RankAll(query_embeds.row(q));
  };

  RetrievalReport report;
  report.map = eval::MeanAveragePrecision(ranker, bench.query.labels,
                                          bench.database.labels, pool);

  // Head/tail split by training-set class size, rank-based so both halves
  // are non-empty even when many tail classes share the minimum count.
  const auto counts = bench.train.ClassCounts();
  std::vector<size_t> order(counts.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return counts[a] > counts[b] || (counts[a] == counts[b] && a < b);
  });
  std::vector<bool> head(counts.size()), tail(counts.size());
  for (size_t r = 0; r < order.size(); ++r) {
    const bool is_head = r < order.size() / 2;
    head[order[r]] = is_head;
    tail[order[r]] = !is_head;
  }
  report.head_map = eval::MeanAveragePrecisionForClasses(
      ranker, bench.query.labels, bench.database.labels, head, pool);
  report.tail_map = eval::MeanAveragePrecisionForClasses(
      ranker, bench.query.labels, bench.database.labels, tail, pool);

  report.index_bytes = idx.MemoryBytes();
  report.raw_bytes = bench.database.features.size() * sizeof(float);
  return report;
}

}  // namespace lightlt::core
