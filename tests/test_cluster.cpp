// Tests for the clustering substrate behind SPLL (tests/baselines): batch
// k-means / k-means++ and the diagonal GMM. The sequential k-means steps of
// Algorithms 3-4 are tested in test_coord_steps.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/rng.hpp"
#include "baselines/gmm.hpp"
#include "baselines/kmeans.hpp"

namespace {

using edgedrift::cluster::DiagonalGmm;
using edgedrift::cluster::KMeansResult;
using edgedrift::linalg::Matrix;
using edgedrift::util::Rng;

// Three well-separated blobs in 2-D.
Matrix three_blobs(Rng& rng, std::size_t per_blob = 50) {
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  Matrix x(3 * per_blob, 2);
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      x(b * per_blob + i, 0) = rng.gaussian(centers[b][0], 0.4);
      x(b * per_blob + i, 1) = rng.gaussian(centers[b][1], 0.4);
    }
  }
  return x;
}

TEST(KMeans, RecoversWellSeparatedBlobs) {
  Rng rng(1);
  const Matrix x = three_blobs(rng);
  const KMeansResult result = edgedrift::cluster::kmeans(x, 3, rng);

  EXPECT_TRUE(result.converged);
  // Every blob's 50 points must share one cluster id.
  for (std::size_t b = 0; b < 3; ++b) {
    const int first = result.assignments[b * 50];
    for (std::size_t i = 1; i < 50; ++i) {
      EXPECT_EQ(result.assignments[b * 50 + i], first);
    }
  }
  // And the three blobs use three distinct ids.
  std::set<int> ids(result.assignments.begin(), result.assignments.end());
  EXPECT_EQ(ids.size(), 3u);
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  Rng rng(2);
  const Matrix x = three_blobs(rng);
  const double inertia1 = edgedrift::cluster::kmeans(x, 1, rng).inertia;
  const double inertia3 = edgedrift::cluster::kmeans(x, 3, rng).inertia;
  EXPECT_LT(inertia3, inertia1 * 0.1);
}

TEST(KMeans, CountsSumToSampleCount) {
  Rng rng(3);
  const Matrix x = three_blobs(rng, 33);
  const KMeansResult result = edgedrift::cluster::kmeans(x, 3, rng);
  std::size_t total = 0;
  for (const auto c : result.counts) total += c;
  EXPECT_EQ(total, x.rows());
}

TEST(KMeans, PlusPlusSeedsAreDataPoints) {
  Rng rng(4);
  const Matrix x = three_blobs(rng, 20);
  const Matrix seeds = edgedrift::cluster::kmeans_plus_plus_seed(x, 3, rng);
  for (std::size_t s = 0; s < seeds.rows(); ++s) {
    bool found = false;
    for (std::size_t r = 0; r < x.rows() && !found; ++r) {
      found = edgedrift::linalg::squared_l2_distance(seeds.row(s),
                                                     x.row(r)) == 0.0;
    }
    EXPECT_TRUE(found) << "seed " << s << " is not a data point";
  }
}

TEST(KMeans, PlusPlusSpreadsSeedsAcrossBlobs) {
  Rng rng(5);
  const Matrix x = three_blobs(rng);
  // With well-separated blobs, k-means++ should almost always pick seeds
  // from three different blobs; verify across repeats.
  int good = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix seeds = edgedrift::cluster::kmeans_plus_plus_seed(x, 3, rng);
    std::set<int> blobs;
    for (std::size_t s = 0; s < 3; ++s) {
      const double x0 = seeds(s, 0);
      const double x1 = seeds(s, 1);
      if (x0 > 5.0) {
        blobs.insert(1);
      } else if (x1 > 5.0) {
        blobs.insert(2);
      } else {
        blobs.insert(0);
      }
    }
    if (blobs.size() == 3) ++good;
  }
  EXPECT_GE(good, 18);
}

TEST(KMeans, SingleClusterCentroidIsMean) {
  Rng rng(6);
  Matrix x(40, 3);
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.uniform(0.0, 1.0);
  }
  const KMeansResult result = edgedrift::cluster::kmeans(x, 1, rng);
  for (std::size_t j = 0; j < 3; ++j) {
    double mean = 0.0;
    for (std::size_t i = 0; i < 40; ++i) mean += x(i, j);
    mean /= 40.0;
    EXPECT_NEAR(result.centroids(0, j), mean, 1e-9);
  }
}

TEST(KMeans, AssignToNearestAgainstKnownCentroids) {
  Matrix centroids{{0.0, 0.0}, {10.0, 10.0}};
  Matrix x{{1.0, 1.0}, {9.0, 9.5}, {-1.0, 0.5}};
  const auto assign = edgedrift::cluster::assign_to_nearest(x, centroids);
  EXPECT_EQ(assign[0], 0);
  EXPECT_EQ(assign[1], 1);
  EXPECT_EQ(assign[2], 0);
}

TEST(Gmm, FromClustersMatchesClusterStatistics) {
  Rng rng(9);
  const Matrix x = three_blobs(rng, 60);
  const auto km = edgedrift::cluster::kmeans(x, 3, rng);
  const DiagonalGmm gmm =
      DiagonalGmm::from_clusters(x, km.assignments, 3);

  EXPECT_EQ(gmm.components(), 3u);
  // Weights sum to one.
  double weight_sum = 0.0;
  for (std::size_t c = 0; c < 3; ++c) weight_sum += gmm.weight(c);
  EXPECT_NEAR(weight_sum, 1.0, 1e-12);
  // Means agree with the k-means centroids.
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(gmm.mean(c)[0], km.centroids(c, 0), 1e-9);
    EXPECT_NEAR(gmm.mean(c)[1], km.centroids(c, 1), 1e-9);
  }
}

TEST(Gmm, MahalanobisSmallInsideClusterLargeOutside) {
  Rng rng(10);
  const Matrix x = three_blobs(rng, 60);
  const auto km = edgedrift::cluster::kmeans(x, 3, rng);
  const DiagonalGmm gmm = DiagonalGmm::from_clusters(x, km.assignments, 3);

  // A point at a blob center: tiny distance.
  EXPECT_LT(gmm.min_mahalanobis_sq(std::vector<double>{0.0, 0.0}), 2.0);
  // A point far from every blob: huge distance.
  EXPECT_GT(gmm.min_mahalanobis_sq(std::vector<double>{30.0, 30.0}), 100.0);
}

TEST(Gmm, LogDensityHigherOnData) {
  Rng rng(11);
  const Matrix x = three_blobs(rng, 60);
  const auto km = edgedrift::cluster::kmeans(x, 3, rng);
  const DiagonalGmm gmm = DiagonalGmm::from_clusters(x, km.assignments, 3);
  const double on = gmm.log_density(std::vector<double>{0.0, 0.0});
  const double off = gmm.log_density(std::vector<double>{25.0, 25.0});
  EXPECT_GT(on, off + 50.0);
}

TEST(Gmm, EmImprovesOverInitOnOverlappingData) {
  Rng rng(12);
  // Two overlapping blobs with different spreads.
  Matrix x(200, 2);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.gaussian(0.0, 0.5);
    x(i, 1) = rng.gaussian(0.0, 0.5);
    x(100 + i, 0) = rng.gaussian(3.0, 1.5);
    x(100 + i, 1) = rng.gaussian(3.0, 1.5);
  }
  const DiagonalGmm gmm = DiagonalGmm::fit_em(x, 2, rng);
  EXPECT_EQ(gmm.components(), 2u);
  // Mean log density on the training data should be reasonable (finite,
  // better than a single wide Gaussian fit far away).
  const double mld = gmm.mean_log_density(x);
  EXPECT_TRUE(std::isfinite(mld));
  EXPECT_GT(mld, -6.0);
}

TEST(Gmm, MeanLogDensityDropsUnderShift) {
  Rng rng(13);
  const Matrix x = three_blobs(rng, 60);
  const auto km = edgedrift::cluster::kmeans(x, 3, rng);
  const DiagonalGmm gmm = DiagonalGmm::from_clusters(x, km.assignments, 3);

  Matrix shifted = x;
  for (std::size_t i = 0; i < shifted.rows(); ++i) {
    shifted(i, 0) += 5.0;
  }
  EXPECT_LT(gmm.mean_log_density(shifted), gmm.mean_log_density(x) - 10.0);
}

}  // namespace
