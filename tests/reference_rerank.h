// The serving re-rank as ReplicaSearcher::Search ran it before the
// ReconstructionDistances kernel (DESIGN.md §17), kept verbatim as the
// reference the kernel variants and the served hits must match bit for bit:
// a zeroed 1 x d reconstruction, the codeword rows added in codebook order,
// one serial sum of squared differences, then a full sort by (distance, id).
// Files that include it build without FMA contraction (tests/CMakeLists.txt).

#ifndef LIGHTLT_TESTS_REFERENCE_RERANK_H_
#define LIGHTLT_TESTS_REFERENCE_RERANK_H_

#include <algorithm>
#include <vector>

#include "src/index/adc_index.h"
#include "src/tensor/matrix.h"

namespace lightlt::testing_ref {

/// ‖query − o‖² for the reconstruction o = Σ_cb words[cb] (m rows of d).
inline float ReferenceRerankDistance(const float* query,
                                     const float* const* words, size_t m,
                                     size_t d) {
  Matrix recon(1, d);
  for (size_t cb = 0; cb < m; ++cb) {
    const float* word = words[cb];
    for (size_t j = 0; j < d; ++j) recon[j] += word[j];
  }
  float dist = 0.0f;
  for (size_t j = 0; j < d; ++j) {
    const float diff = query[j] - recon[j];
    dist += diff * diff;
  }
  return dist;
}

/// Re-ranks `pool` (stored ids; codes[id] are the item's codes) by exact
/// distance to the reconstructions and keeps the first top_k.
inline std::vector<index::SearchHit> ReferenceRerank(
    const float* query, std::vector<index::SearchHit> pool,
    const std::vector<Matrix>& codebooks,
    const std::vector<std::vector<uint32_t>>& codes, size_t top_k) {
  const size_t m = codebooks.size();
  const size_t d = codebooks[0].cols();
  std::vector<const float*> words(m);
  for (index::SearchHit& hit : pool) {
    for (size_t cb = 0; cb < m; ++cb) {
      words[cb] = codebooks[cb].row(codes[hit.id][cb]);
    }
    hit.distance = ReferenceRerankDistance(query, words.data(), m, d);
  }
  std::sort(pool.begin(), pool.end(),
            [](const index::SearchHit& a, const index::SearchHit& b) {
              return a.distance < b.distance ||
                     (a.distance == b.distance && a.id < b.id);
            });
  if (pool.size() > top_k) pool.resize(top_k);
  return pool;
}

}  // namespace lightlt::testing_ref

#endif  // LIGHTLT_TESTS_REFERENCE_RERANK_H_
