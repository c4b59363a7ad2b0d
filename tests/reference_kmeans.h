// The serial k-means the SIMD nearest-centroid kernel must reproduce bit for
// bit: the assignment loop and Lloyd iterations as they ran before the
// kernel existed, kept verbatim. Test files that include this build with
// -ffp-contract=off (tests/CMakeLists.txt), as src/ does.

#ifndef LIGHTLT_TESTS_REFERENCE_KMEANS_H_
#define LIGHTLT_TESTS_REFERENCE_KMEANS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/clustering/kmeans.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"

namespace lightlt::testing_ref {

/// One serial chain per (point, centroid): ||c||^2, then -= 2·p[t]·c[t];
/// strict < from FLT_MAX in index order.
inline void ReferenceNearest(const float* points, size_t n,
                             const float* centroids, const float* norms,
                             size_t k, size_t d, uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const float* p = points + i * d;
    float best = std::numeric_limits<float>::max();
    uint32_t best_j = 0;
    for (size_t j = 0; j < k; ++j) {
      const float* c = centroids + j * d;
      float score = norms[j];
      for (size_t t = 0; t < d; ++t) score -= 2.0f * p[t] * c[t];
      if (score < best) {
        best = score;
        best_j = static_cast<uint32_t>(j);
      }
    }
    out[i] = best_j;
  }
}

inline std::vector<uint32_t> ReferenceAssign(const Matrix& points,
                                             const Matrix& centroids) {
  std::vector<uint32_t> out(points.rows(), 0);
  const Matrix c_norms = centroids.RowSquaredNorms();
  ReferenceNearest(points.data(), points.rows(), centroids.data(),
                   c_norms.data(), centroids.rows(), points.cols(),
                   out.data());
  return out;
}

/// clustering::KMeans on ReferenceAssign, serial.
inline clustering::KMeansResult ReferenceKMeans(
    const Matrix& points, const clustering::KMeansOptions& options) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  const size_t k = std::min(options.num_clusters, n);

  Rng rng(options.seed);
  clustering::KMeansResult result;
  // k-means++ seeding.
  Matrix seeded(k, d);
  const size_t first = static_cast<size_t>(rng.NextIndex(n));
  std::copy(points.row(first), points.row(first) + d, seeded.row(0));
  std::vector<double> dist2(n, std::numeric_limits<double>::max());
  for (size_t c = 1; c < k; ++c) {
    const float* last = seeded.row(c - 1);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const float* p = points.row(i);
      double acc = 0.0;
      for (size_t j = 0; j < d; ++j) {
        const double diff = p[j] - last[j];
        acc += diff * diff;
      }
      dist2[i] = std::min(dist2[i], acc);
      total += dist2[i];
    }
    double target = rng.NextDouble() * total;
    size_t chosen = n - 1;
    for (size_t i = 0; i < n; ++i) {
      target -= dist2[i];
      if (target <= 0.0) {
        chosen = i;
        break;
      }
    }
    std::copy(points.row(chosen), points.row(chosen) + d, seeded.row(c));
  }
  result.centroids = seeded;

  double prev_inertia = std::numeric_limits<double>::max();
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.assignments = ReferenceAssign(points, result.centroids);
    Matrix sums(k, d);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t a = result.assignments[i];
      float* srow = sums.row(a);
      const float* p = points.row(i);
      for (size_t j = 0; j < d; ++j) srow[j] += p[j];
      ++counts[a];
    }
    double inertia = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const float* p = points.row(i);
      const float* c = result.centroids.row(result.assignments[i]);
      for (size_t j = 0; j < d; ++j) {
        const double diff = p[j] - c[j];
        inertia += diff * diff;
      }
    }
    result.inertia = inertia;
    result.iterations_run = iter + 1;
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        size_t worst = 0;
        double worst_dist = -1.0;
        for (size_t i = 0; i < n; ++i) {
          const float* p = points.row(i);
          const float* cc = result.centroids.row(result.assignments[i]);
          double acc = 0.0;
          for (size_t j = 0; j < d; ++j) {
            const double diff = p[j] - cc[j];
            acc += diff * diff;
          }
          if (acc > worst_dist) {
            worst_dist = acc;
            worst = i;
          }
        }
        std::copy(points.row(worst), points.row(worst) + d,
                  result.centroids.row(c));
      } else {
        const float inv = 1.0f / static_cast<float>(counts[c]);
        float* crow = result.centroids.row(c);
        const float* srow = sums.row(c);
        for (size_t j = 0; j < d; ++j) crow[j] = srow[j] * inv;
      }
    }
    if (prev_inertia < std::numeric_limits<double>::max()) {
      const double rel =
          (prev_inertia - inertia) / std::max(prev_inertia, 1e-12);
      if (rel >= 0.0 && rel < options.convergence_tol) break;
    }
    prev_inertia = inertia;
  }
  result.assignments = ReferenceAssign(points, result.centroids);
  return result;
}

}  // namespace lightlt::testing_ref

#endif  // LIGHTLT_TESTS_REFERENCE_KMEANS_H_
