// Diagonal-covariance Gaussian mixture model.
//
// SPLL (Kuncheva, 2013) models the k-means clusters of a reference window as
// a Gaussian mixture and scores test batches by semi-parametric
// log-likelihood. We provide both a one-shot "from clusters" construction
// (what SPLL uses) and a full EM fit (used by tests and the data generators'
// verification suite).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::util {
class Rng;
}

namespace edgedrift::cluster {

/// Mixture of diagonal Gaussians.
class DiagonalGmm {
 public:
  DiagonalGmm() = default;

  /// Builds component parameters directly from a hard clustering:
  /// per-cluster mean, pooled diagonal variance (shared across components,
  /// as SPLL assumes), and weights proportional to cluster sizes.
  /// `min_variance` floors each variance so log-densities stay finite.
  static DiagonalGmm from_clusters(const linalg::Matrix& x,
                                   std::span<const int> assignments,
                                   std::size_t k,
                                   double min_variance = 1e-6);

  /// Full EM fit with k components, k-means initialization.
  static DiagonalGmm fit_em(const linalg::Matrix& x, std::size_t k,
                            util::Rng& rng, std::size_t max_iterations = 50,
                            double min_variance = 1e-6);

  std::size_t components() const { return means_.rows(); }
  std::size_t dim() const { return means_.cols(); }

  /// log p(x) under the mixture (log-sum-exp over components).
  double log_density(std::span<const double> x) const;

  /// Squared Mahalanobis distance to the *nearest* component — the
  /// semi-parametric statistic SPLL accumulates per sample.
  double min_mahalanobis_sq(std::span<const double> x) const;

  /// Mean log-density over the rows of X.
  double mean_log_density(const linalg::Matrix& x) const;

  std::span<const double> mean(std::size_t c) const { return means_.row(c); }
  double weight(std::size_t c) const { return weights_[c]; }

  /// Bytes of parameter storage.
  std::size_t memory_bytes() const;

 private:
  linalg::Matrix means_;      ///< k x d.
  linalg::Matrix variances_;  ///< k x d (diagonal).
  std::vector<double> weights_;
};

}  // namespace edgedrift::cluster
