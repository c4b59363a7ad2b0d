// Tests for the linear-algebra kernels, k-means and PCA.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/clustering/kmeans.h"
#include "src/clustering/linalg.h"
#include "src/clustering/pca.h"
#include "src/tensor/dense_product.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"
#include "tests/reference_kmeans.h"

namespace lightlt {
namespace {

TEST(LinalgTest, SymmetricEigenReconstructsMatrix) {
  Rng rng(1);
  Matrix g = Matrix::RandomGaussian(6, 6, rng);
  Matrix a = g.TransposedMatMul(g);  // SPD

  std::vector<float> evals;
  Matrix evecs;
  ASSERT_TRUE(linalg::SymmetricEigen(a, &evals, &evecs).ok());

  // A == V diag(L) V^T.
  Matrix vl = evecs;
  for (size_t c = 0; c < 6; ++c) {
    for (size_t r = 0; r < 6; ++r) vl.at(r, c) *= evals[c];
  }
  EXPECT_TRUE(vl.MatMulTransposed(evecs).AllClose(a, 1e-3f));
  // Sorted descending.
  for (size_t i = 1; i < evals.size(); ++i) {
    EXPECT_GE(evals[i - 1], evals[i]);
  }
}

TEST(LinalgTest, SymmetricEigenRejectsNonSquare) {
  Matrix a(2, 3);
  std::vector<float> evals;
  Matrix evecs;
  EXPECT_FALSE(linalg::SymmetricEigen(a, &evals, &evecs).ok());
}

TEST(LinalgTest, EigenvectorsAreOrthonormal) {
  Rng rng(2);
  Matrix g = Matrix::RandomGaussian(5, 5, rng);
  Matrix a = g.TransposedMatMul(g);
  std::vector<float> evals;
  Matrix v;
  ASSERT_TRUE(linalg::SymmetricEigen(a, &evals, &v).ok());
  EXPECT_TRUE(v.TransposedMatMul(v).AllClose(Matrix::Identity(5), 1e-3f));
}

TEST(LinalgTest, ThinSvdReconstructs) {
  Rng rng(3);
  Matrix a = Matrix::RandomGaussian(8, 4, rng);
  Matrix u, v;
  std::vector<float> s;
  ASSERT_TRUE(linalg::ThinSvd(a, &u, &s, &v).ok());
  // A == U diag(S) V^T.
  Matrix us = u;
  for (size_t c = 0; c < 4; ++c) {
    for (size_t r = 0; r < 8; ++r) us.at(r, c) *= s[c];
  }
  EXPECT_TRUE(us.MatMulTransposed(v).AllClose(a, 1e-3f));
}

TEST(LinalgTest, SolveSpdMatchesDirectSolution) {
  Rng rng(4);
  Matrix g = Matrix::RandomGaussian(5, 5, rng);
  Matrix a = g.TransposedMatMul(g);
  for (size_t i = 0; i < 5; ++i) a.at(i, i) += 1.0f;  // well-conditioned
  Matrix x_true = Matrix::RandomGaussian(5, 2, rng);
  Matrix b = a.MatMul(x_true);
  Matrix x;
  ASSERT_TRUE(linalg::SolveSpd(a, b, &x).ok());
  EXPECT_TRUE(x.AllClose(x_true, 1e-2f));
}

TEST(LinalgTest, SolveSpdRejectsIndefinite) {
  Matrix a(2, 2, {1.0f, 0.0f, 0.0f, -1.0f});
  Matrix b(2, 1, {1.0f, 1.0f});
  Matrix x;
  EXPECT_FALSE(linalg::SolveSpd(a, b, &x).ok());
}

TEST(LinalgTest, ProcrustesRecoversRotation) {
  Rng rng(5);
  // Build a random rotation via SVD of a Gaussian matrix.
  Matrix g = Matrix::RandomGaussian(4, 4, rng);
  Matrix u, v;
  std::vector<float> s;
  ASSERT_TRUE(linalg::ThinSvd(g, &u, &s, &v).ok());
  Matrix r_true = u.MatMulTransposed(v);

  Matrix a = Matrix::RandomGaussian(32, 4, rng);
  Matrix b = a.MatMul(r_true);
  Matrix r;
  ASSERT_TRUE(linalg::ProcrustesRotation(a, b, &r).ok());
  EXPECT_TRUE(r.AllClose(r_true, 1e-2f));
}

TEST(LinalgTest, CenterColumnsZerosTheMean) {
  Rng rng(6);
  Matrix x = Matrix::RandomGaussian(50, 4, rng);
  for (size_t i = 0; i < x.rows(); ++i) x.at(i, 2) += 5.0f;
  Matrix mean = linalg::CenterColumns(x);
  EXPECT_NEAR(mean[2], 5.0f, 0.5f);
  Matrix col_sums = x.ColSums();
  for (size_t j = 0; j < 4; ++j) EXPECT_NEAR(col_sums[j], 0.0f, 1e-3f);
}

TEST(KMeansTest, RecoversWellSeparatedClusters) {
  Rng rng(7);
  // Three tight clusters far apart.
  Matrix points(90, 2);
  const float centers[3][2] = {{0, 0}, {20, 0}, {0, 20}};
  for (size_t i = 0; i < 90; ++i) {
    const size_t c = i / 30;
    points.at(i, 0) =
        centers[c][0] + static_cast<float>(rng.NextGaussian()) * 0.5f;
    points.at(i, 1) =
        centers[c][1] + static_cast<float>(rng.NextGaussian()) * 0.5f;
  }
  clustering::KMeansOptions opts;
  opts.num_clusters = 3;
  opts.seed = 11;
  const auto result = clustering::KMeans(points, opts);
  // All points in one true cluster share the same assignment.
  for (size_t c = 0; c < 3; ++c) {
    const uint32_t expected = result.assignments[c * 30];
    for (size_t i = 0; i < 30; ++i) {
      EXPECT_EQ(result.assignments[c * 30 + i], expected);
    }
  }
  EXPECT_LT(result.inertia, 90.0 * 1.0);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  Rng rng(8);
  Matrix points = Matrix::RandomGaussian(300, 8, rng);
  double prev = 1e30;
  for (size_t k : {2u, 8u, 32u}) {
    clustering::KMeansOptions opts;
    opts.num_clusters = k;
    opts.seed = 3;
    const auto result = clustering::KMeans(points, opts);
    EXPECT_LT(result.inertia, prev);
    prev = result.inertia;
  }
}

TEST(KMeansTest, HandlesFewerPointsThanClusters) {
  Rng rng(9);
  Matrix points = Matrix::RandomGaussian(5, 3, rng);
  clustering::KMeansOptions opts;
  opts.num_clusters = 16;
  const auto result = clustering::KMeans(points, opts);
  EXPECT_LE(result.centroids.rows(), 5u);
  EXPECT_EQ(result.assignments.size(), 5u);
}

TEST(KMeansTest, AssignToNearestIsExact) {
  Rng rng(10);
  Matrix points = Matrix::RandomGaussian(40, 6, rng);
  Matrix centroids = Matrix::RandomGaussian(7, 6, rng);
  const auto assigned = clustering::AssignToNearest(points, centroids);
  const Matrix d2 = points.SquaredEuclideanTo(centroids);
  for (size_t i = 0; i < points.rows(); ++i) {
    float best = d2.at(i, assigned[i]);
    for (size_t j = 0; j < 7; ++j) {
      EXPECT_GE(d2.at(i, j) + 1e-4f, best);
    }
  }
}

// Gaussian entries with zeros (a twentieth), -0 and denormals, plus a few
// NaN and ±Inf entries planted at random positions. Exact size, so ASan
// sees any over-read.
std::vector<float> PlantedEntries(size_t size, Rng& rng) {
  const float specials[] = {-0.0f, std::numeric_limits<float>::denorm_min(),
                            -3e-39f, 1e-40f};
  std::vector<float> out(size);
  for (float& v : out) {
    const size_t draw = rng.NextIndex(1000);
    if (draw < 50) {
      v = 0.0f;
    } else if (draw < 54) {
      v = specials[draw - 50];
    } else {
      v = static_cast<float>(rng.NextGaussian());
    }
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float wild[] = {std::numeric_limits<float>::quiet_NaN(), inf, -inf};
  for (const float w : wild) out[rng.NextIndex(size)] = w;
  return out;
}

// Every nearest-centroid variant this host dispatches returns the
// assignments of the serial loop, on ragged k and d, planted specials and
// exact score ties.
TEST(KMeansTest, NearestCentroidVariantsMatchScalarReference) {
  const std::vector<DenseKernel> kernels = AvailableDenseKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.back().name, "scalar");
  const float kMax = std::numeric_limits<float>::max();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  Rng rng(31);
  for (size_t k : {1, 15, 16, 17, 32, 64, 256}) {
    for (size_t d : {1, 63, 64, 65}) {
      for (size_t n : {1, 7, 64}) {
        std::vector<float> points = PlantedEntries(n * d, rng);
        std::vector<float> centroids = PlantedEntries(k * d, rng);
        // A duplicated centroid scores the same bits as its original, in
        // another lane and, past 16, another block; the lower index wins.
        if (k > 2) {
          std::copy(centroids.begin(), centroids.begin() + d,
                    centroids.end() - d);
          std::copy(centroids.begin() + d, centroids.begin() + 2 * d,
                    centroids.begin() + (k / 2) * d);
        }
        // An all-zero point scores each finite centroid at its norm.
        if (n > 2) std::fill(points.begin() + d, points.begin() + 2 * d, 0.0f);
        const Matrix c(k, d, centroids);
        const Matrix c_norms = c.RowSquaredNorms();
        std::vector<float> norms(c_norms.data(), c_norms.data() + k);
        // Norm ties (including -0 against +0), a NaN, an Inf and FLT_MAX.
        if (k > 5) {
          norms[2] = -0.0f;
          norms[3] = 0.0f;
          norms[4] = kNaN;
          norms[5] = norms[k - 2];
          norms[k - 3] = kInf;
          norms[k / 3] = kMax;
        }
        struct Case {
          const char* what;
          std::vector<float> norms;
        };
        const Case cases[] = {
            {"planted", norms},
            {"all NaN", std::vector<float>(k, kNaN)},
            {"all FLT_MAX", std::vector<float>(k, kMax)},
        };
        for (const Case& cs : cases) {
          std::vector<uint32_t> want(n);
          testing_ref::ReferenceNearest(points.data(), n, centroids.data(),
                                        cs.norms.data(), k, d, want.data());
          for (const DenseKernel& kernel : kernels) {
            std::vector<uint32_t> got(n, 0xDEADBEEF);
            kernel.nearest(points.data(), n, centroids.data(),
                           cs.norms.data(), k, d, got.data());
            EXPECT_EQ(got, want) << kernel.name << " " << cs.what
                                 << " k=" << k << " d=" << d << " n=" << n;
          }
        }
      }
    }
  }
}

// Scores that tie exactly when every product and subtraction rounds on its
// own, but not under a fused multiply-subtract. With q = 2·p[0] and a'
// the float after a, q·a and q·a' round to the same n, so a centroid at a
// and one at a', both of norm n, score exactly 0 (all other coordinates of
// p are 0): the lower index wins. Fused, they score the exact residues
// n - q·a > n - q·a', and the higher index would win.
TEST(KMeansTest, NearestCentroidTiesSurviveOnlyUnfusedRounding) {
  const std::vector<DenseKernel> kernels = AvailableDenseKernels();
  Rng rng(33);
  for (size_t k : {2, 16, 17, 32, 256}) {
    for (size_t d : {1, 64, 65}) {
      float q = 0.0f, a = 0.0f, a_next = 0.0f, n = 0.0f;
      do {
        q = 2.0f * (0.5f + 0.5f * static_cast<float>(rng.NextDouble()));
        a = 0.5f + 0.5f * static_cast<float>(rng.NextDouble());
        a_next = std::nextafter(a, 2.0f);
        n = q * a;
      } while (q * a_next != n ||
               !(std::fma(-q, a_next, n) < std::fma(-q, a, n)));
      Matrix centroids = Matrix::RandomGaussian(k, d, rng);
      std::vector<float> norms(k, 1e30f);
      const size_t lo = (k - 1) / 2, hi = k - 1;
      for (size_t t = 0; t < d; ++t) {
        centroids.at(lo, t) = centroids.at(hi, t) = 1.0f;
      }
      centroids.at(lo, 0) = a;
      centroids.at(hi, 0) = a_next;
      norms[lo] = norms[hi] = n;
      std::vector<float> point(d, 0.0f);
      point[0] = q / 2.0f;
      for (const DenseKernel& kernel : kernels) {
        uint32_t got = 0xDEADBEEF;
        kernel.nearest(point.data(), 1, centroids.data(), norms.data(), k, d,
                       &got);
        EXPECT_EQ(got, lo) << kernel.name << " k=" << k << " d=" << d;
      }
    }
  }
}

// KMeans on the dispatched kernel, serial and pooled, equals the serial
// reference bit for bit: centroids, assignments, inertia and iterations.
TEST(KMeansTest, MatchesSerialReferenceBitForBit) {
  Rng rng(32);
  // Ten distinct rows repeated six times: seeding runs out of distinct
  // points, so duplicated centroids leave clusters empty and the re-seed
  // path runs.
  const Matrix distinct = Matrix::RandomGaussian(10, 5, rng);
  Matrix repeated(60, 5);
  for (size_t i = 0; i < 60; ++i) {
    std::copy(distinct.row(i % 10), distinct.row(i % 10) + 5,
              repeated.row(i));
  }
  struct Case {
    Matrix points;
    size_t clusters;
    int iterations;
  };
  const Case cases[] = {
      {Matrix::RandomGaussian(3000, 64, rng), 32, 20},
      {Matrix::RandomGaussian(401, 17, rng), 15, 25},
      {Matrix::RandomGaussian(300, 65, rng), 256, 5},
      {repeated, 40, 6},
  };
  ThreadPool pool(3);
  for (const Case& cs : cases) {
    clustering::KMeansOptions opts;
    opts.num_clusters = cs.clusters;
    opts.max_iterations = cs.iterations;
    opts.seed = 77;
    const auto want = testing_ref::ReferenceKMeans(cs.points, opts);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      opts.pool = p;
      const auto got = clustering::KMeans(cs.points, opts);
      SCOPED_TRACE(::testing::Message() << "n=" << cs.points.rows()
                                        << " k=" << cs.clusters
                                        << " pooled=" << (p != nullptr));
      ASSERT_EQ(got.centroids.rows(), want.centroids.rows());
      EXPECT_EQ(std::memcmp(got.centroids.data(), want.centroids.data(),
                            want.centroids.size() * sizeof(float)),
                0);
      EXPECT_EQ(got.assignments, want.assignments);
      EXPECT_EQ(std::memcmp(&got.inertia, &want.inertia, sizeof(double)), 0)
          << got.inertia << " vs " << want.inertia;
      EXPECT_EQ(got.iterations_run, want.iterations_run);
    }
  }
}

TEST(PcaTest, RecoversDominantDirection) {
  Rng rng(11);
  // Data stretched along (1, 1)/sqrt(2).
  Matrix x(200, 2);
  for (size_t i = 0; i < 200; ++i) {
    const float t = static_cast<float>(rng.NextGaussian()) * 5.0f;
    const float noise = static_cast<float>(rng.NextGaussian()) * 0.2f;
    x.at(i, 0) = t + noise;
    x.at(i, 1) = t - noise;
  }
  auto pca = clustering::Pca::Fit(x, 1);
  ASSERT_TRUE(pca.ok());
  const Matrix& comp = pca.value().components();
  const float ratio = comp.at(0, 0) / comp.at(1, 0);
  EXPECT_NEAR(std::fabs(ratio), 1.0f, 0.05f);
  EXPECT_GT(pca.value().explained_variance()[0], 20.0f);
}

TEST(PcaTest, WhitenedProjectionHasUnitVariance) {
  Rng rng(12);
  Matrix x = Matrix::RandomGaussian(500, 6, rng);
  for (size_t i = 0; i < x.rows(); ++i) x.at(i, 0) *= 10.0f;
  auto pca = clustering::Pca::Fit(x, 3, /*whiten=*/true);
  ASSERT_TRUE(pca.ok());
  Matrix projected = pca.value().Transform(x);
  for (size_t c = 0; c < 3; ++c) {
    double var = 0.0;
    for (size_t i = 0; i < projected.rows(); ++i) {
      var += static_cast<double>(projected.at(i, c)) * projected.at(i, c);
    }
    var /= static_cast<double>(projected.rows());
    EXPECT_NEAR(var, 1.0, 0.2);
  }
}

TEST(PcaTest, RejectsBadArguments) {
  Rng rng(13);
  Matrix x = Matrix::RandomGaussian(10, 4, rng);
  EXPECT_FALSE(clustering::Pca::Fit(x, 0).ok());
  EXPECT_FALSE(clustering::Pca::Fit(x, 5).ok());
  Matrix tiny = Matrix::RandomGaussian(1, 4, rng);
  EXPECT_FALSE(clustering::Pca::Fit(tiny, 2).ok());
}

}  // namespace
}  // namespace lightlt
