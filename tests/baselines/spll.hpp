// SPLL (Kuncheva, 2013): semi-parametric log-likelihood change detection.
//
// The reference window is clustered with k-means; the clusters are modeled
// as a Gaussian mixture with a shared (pooled) diagonal covariance. Each
// test sample is scored by its squared Mahalanobis distance to the nearest
// component, and the batch statistic is the mean score. The threshold is
// calibrated by bootstrap: score many size-B resamples of the reference
// window and take a high quantile.
//
// This is the paper's second batch baseline — and its most memory-hungry
// method (Table 4): it retains the full reference window (for re-fitting
// after drift) in addition to the B x D test buffer, and runs k-means at
// fit time (the execution-time cost Table 5 charges it for).
#pragma once

#include <cstddef>
#include <cstdint>

#include "edgedrift/drift/detector.hpp"
#include "edgedrift/linalg/matrix.hpp"
#include "baselines/gmm.hpp"

namespace edgedrift::drift {

/// SPLL tunables.
struct SpllConfig {
  std::size_t num_clusters = 3;  ///< k of the k-means stage.
  std::size_t batch_size = 480;  ///< B (paper: 480 / 235).
  double quantile = 0.99;        ///< Bootstrap quantile for the threshold.
  std::size_t bootstrap_trials = 400;
  std::uint64_t seed = 11;
};

/// Semi-parametric log-likelihood batch change detector.
class Spll : public Detector {
 public:
  explicit Spll(SpllConfig config);

  /// Clusters the reference window, fits the shared-covariance mixture and
  /// bootstraps the detection threshold. The window is retained.
  void fit(const linalg::Matrix& reference);

  /// Mean nearest-component Mahalanobis^2 of an explicit batch.
  double statistic(const linalg::Matrix& batch) const;

  double threshold() const { return threshold_; }
  bool fitted() const { return fitted_; }

  // Detector interface -------------------------------------------------
  Detection observe(const Observation& obs) override;
  void reset() override;
  /// Fits the reference on the features; the labels are not read.
  void calibrate(const linalg::Matrix& x, std::span<const int>) override {
    fit(x);
  }
  std::size_t memory_bytes() const override;
  std::string_view name() const override { return "spll"; }

 private:
  SpllConfig config_;
  cluster::DiagonalGmm gmm_;
  linalg::Matrix reference_;  ///< Retained reference window.
  double threshold_ = 0.0;
  bool fitted_ = false;

  linalg::Matrix buffer_;  ///< B x D test-batch buffer.
  std::size_t buffered_ = 0;
};

}  // namespace edgedrift::drift
