#include "edgedrift/drift/centroid_detector.hpp"

#include <algorithm>
#include <cmath>

#include "edgedrift/drift/threshold.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::drift {

CentroidDetector::CentroidDetector(CentroidDetectorConfig config)
    : config_(config),
      theta_drift_(config.theta_drift),
      trained_(config.num_labels, config.dim),
      recent_(config.num_labels, config.dim),
      counts_(config.num_labels, 0),
      calibrated_counts_(config.num_labels, 0) {
  EDGEDRIFT_ASSERT(config_.num_labels > 0, "need at least one label");
  EDGEDRIFT_ASSERT(config_.dim > 0, "dim must be positive");
  EDGEDRIFT_ASSERT(config_.window_size > 0, "window size must be positive");
  EDGEDRIFT_ASSERT(config_.ewma_decay >= 0.0 && config_.ewma_decay < 1.0,
                   "ewma_decay must be in [0, 1)");
}

void CentroidDetector::calibrate(const linalg::Matrix& x,
                                 std::span<const int> labels) {
  EDGEDRIFT_ASSERT(x.rows() == labels.size(), "X/label row mismatch");
  EDGEDRIFT_ASSERT(x.cols() == config_.dim, "dim mismatch");
  trained_.fill(0.0);
  std::vector<std::size_t>& counts = calib_counts_scratch_;
  counts.assign(config_.num_labels, 0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const int c = labels[i];
    EDGEDRIFT_ASSERT(
        c >= 0 && static_cast<std::size_t>(c) < config_.num_labels,
        "label out of range");
    linalg::axpy(1.0, x.row(i), trained_.row(c));
    ++counts[c];
  }
  for (std::size_t c = 0; c < config_.num_labels; ++c) {
    EDGEDRIFT_ASSERT(counts[c] > 0, "every label needs training samples");
    const double inv = 1.0 / static_cast<double>(counts[c]);
    auto row = trained_.row(c);
    for (auto& v : row) v *= inv;
  }

  std::vector<double>& distances = calib_distances_scratch_;
  distances.resize(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    distances[i] = linalg::l1_distance(x.row(i), trained_.row(labels[i]));
  }
  calibrate_from_centroids(trained_, counts, distances);
}

void CentroidDetector::calibrate_from_centroids(
    const linalg::Matrix& centroids, std::span<const std::size_t> counts,
    std::span<const double> distances) {
  EDGEDRIFT_ASSERT(centroids.rows() == config_.num_labels &&
                       centroids.cols() == config_.dim,
                   "centroid shape mismatch");
  EDGEDRIFT_ASSERT(counts.size() == config_.num_labels,
                   "count arity mismatch");
  trained_ = centroids;
  calibrated_counts_.assign(counts.begin(), counts.end());
  if (config_.theta_drift <= 0.0) {
    theta_drift_ = drift_threshold_from_distances(distances, config_.z);
  } else {
    theta_drift_ = config_.theta_drift;
  }
  calibrated_ = true;
  reset();
}

Detection CentroidDetector::observe(const Observation& obs) {
  EDGEDRIFT_ASSERT(calibrated_, "observe() before calibrate()");
  EDGEDRIFT_ASSERT(obs.x.size() == config_.dim, "sample dim mismatch");
  EDGEDRIFT_ASSERT(obs.predicted_label >= 0 &&
                       static_cast<std::size_t>(obs.predicted_label) <
                           config_.num_labels,
                   "predicted label out of range");

  Detection result;
  if (steps::window_observe(
          window_, obs.x, static_cast<std::size_t>(obs.predicted_label),
          obs.anomaly_score, config_.theta_error, config_.window_size,
          config_.ewma_decay, recent_.flat(), std::span(counts_))) {
    result.statistic = last_distance();
    result.statistic_valid = true;
    result.drift = result.statistic >= theta_drift_;
  }
  return result;
}

double CentroidDetector::last_distance() const {
  return steps::window_distance(recent_.flat(), trained_.flat(), config_.dim);
}

void CentroidDetector::per_label_distances(std::span<double> out) const {
  EDGEDRIFT_ASSERT(out.size() == config_.num_labels,
                   "output arity mismatch");
  for (std::size_t c = 0; c < config_.num_labels; ++c) {
    out[c] = linalg::l1_distance(recent_.row(c), trained_.row(c));
  }
}

std::vector<std::size_t> CentroidDetector::top_drifted_dimensions(
    std::size_t k) const {
  k = std::min(k, config_.dim);
  std::vector<double> displacement(config_.dim, 0.0);
  for (std::size_t c = 0; c < config_.num_labels; ++c) {
    const auto recent = recent_.row(c);
    const auto trained = trained_.row(c);
    for (std::size_t j = 0; j < config_.dim; ++j) {
      displacement[j] += std::abs(recent[j] - trained[j]);
    }
  }
  std::vector<std::size_t> order(config_.dim);
  for (std::size_t j = 0; j < config_.dim; ++j) order[j] = j;
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return displacement[a] > displacement[b];
                    });
  order.resize(k);
  return order;
}

void CentroidDetector::reset() {
  // Recent centroids restart from the trained reference.
  recent_ = trained_;
  steps::rearm_counts(std::span(counts_), config_.initial_count,
                      std::span<const std::size_t>(calibrated_counts_));
  window_ = {};
}

void CentroidDetector::rebuild_reference(const linalg::Matrix& x) {
  // Without labels, re-anchor the trained centroids to the current recent
  // ones (the stream has moved; the recent centroids are the best available
  // estimate of the new concept) and restart.
  (void)x;
  trained_ = recent_;
  reset();
}

void CentroidDetector::rearm(const linalg::Matrix& new_trained_centroids,
                             std::span<const std::size_t> counts,
                             double new_theta_drift) {
  EDGEDRIFT_ASSERT(new_trained_centroids.rows() == config_.num_labels &&
                       new_trained_centroids.cols() == config_.dim,
                   "centroid shape mismatch");
  trained_ = new_trained_centroids;
  calibrated_counts_.assign(counts.begin(), counts.end());
  theta_drift_ = steps::rearm_theta(theta_drift_, new_theta_drift);
  reset();
}

void CentroidDetector::restore(const linalg::Matrix& trained,
                               const linalg::Matrix& recent,
                               std::span<const std::size_t> counts,
                               std::span<const std::size_t> calibrated_counts,
                               double theta_drift, steps::Window window) {
  EDGEDRIFT_ASSERT(trained.rows() == config_.num_labels &&
                       trained.cols() == config_.dim,
                   "restored trained-centroid shape mismatch");
  EDGEDRIFT_ASSERT(recent.rows() == config_.num_labels &&
                       recent.cols() == config_.dim,
                   "restored recent-centroid shape mismatch");
  EDGEDRIFT_ASSERT(counts.size() == config_.num_labels &&
                       calibrated_counts.size() == config_.num_labels,
                   "restored count arity mismatch");
  EDGEDRIFT_ASSERT(window.pos <= config_.window_size &&
                       !(window.open && window.pos == config_.window_size),
                   "restored window position outside the window");
  trained_ = trained;
  recent_ = recent;
  counts_.assign(counts.begin(), counts.end());
  calibrated_counts_.assign(calibrated_counts.begin(),
                            calibrated_counts.end());
  theta_drift_ = theta_drift;
  calibrated_ = true;
  window_ = window;
}

std::size_t CentroidDetector::memory_bytes() const {
  return trained_.memory_bytes() + recent_.memory_bytes() +
         (counts_.capacity() + calibrated_counts_.capacity()) *
             sizeof(std::size_t);
}

}  // namespace edgedrift::drift
