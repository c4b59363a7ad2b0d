// End-to-end retrieval pipeline: model -> ADC index -> MAP.
//
// This is the evaluation path every benchmark harness and example uses:
// encode the database with hard DSQ codes (Fig. 3), keep queries continuous,
// search with asymmetric distances (Eqn. 24), score with MAP (§V-A3).

#ifndef LIGHTLT_CORE_PIPELINE_H_
#define LIGHTLT_CORE_PIPELINE_H_

#include "src/core/lightlt_model.h"
#include "src/data/dataset.h"
#include "src/eval/metrics.h"
#include "src/index/adc_index.h"
#include "src/util/status.h"
#include "src/util/threadpool.h"

namespace lightlt::core {

/// Embeds `x` through the backbone in fixed-size chunks (bounds the hidden
/// activation buffers for large databases). Chunks are embedded in parallel on
/// `pool` when provided; chunk boundaries are independent of the thread
/// count, so the result is identical for any pool size.
Matrix EmbedInChunks(const LightLtModel& model, const Matrix& x,
                     size_t chunk = 4096, ThreadPool* pool = nullptr);

/// Encodes `db_features` and assembles the searchable ADC index.
Result<index::AdcIndex> BuildAdcIndex(const LightLtModel& model,
                                      const Matrix& db_features);

/// Retrieval quality + footprint of one trained model on one benchmark.
struct RetrievalReport {
  double map = 0.0;
  double head_map = 0.0;  ///< MAP over queries from the largest half of classes
  double tail_map = 0.0;  ///< MAP over queries from the smallest half
  size_t index_bytes = 0;
  size_t raw_bytes = 0;   ///< uncompressed float database footprint
};

/// Full evaluation of `model` on `bench` (query set vs database).
Result<RetrievalReport> EvaluateModel(const LightLtModel& model,
                                      const data::RetrievalBenchmark& bench,
                                      ThreadPool* pool = nullptr);

}  // namespace lightlt::core

#endif  // LIGHTLT_CORE_PIPELINE_H_
