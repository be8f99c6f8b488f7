// The proposed detector (paper Algorithm 1).
//
// State per label: a trained centroid (frozen at calibration) and a recent
// test centroid updated by a running mean. A window opens when a sample's
// anomaly score reaches theta_error; for the next W samples the recent
// centroid of each predicted label absorbs the sample; when the window
// closes, drift fires iff
//   dist = sum_c sum_d |cor[c][d] - train_cor[c][d]|  >=  theta_drift.
//
// The window and the statistic are the shared Algorithm 1 steps
// (drift/steps.hpp), which mcu::StaticPipeline runs at float. A windowed
// sample costs one O(D) centroid fold; `dist` is summed once, O(C*D), when
// the window closes. Memory is O(C*D), and no sample is ever stored, which
// is the paper's entire memory argument (Table 4).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "edgedrift/drift/detector.hpp"
#include "edgedrift/drift/steps.hpp"
#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::drift {

/// Tunables of the proposed centroid detector.
struct CentroidDetectorConfig {
  std::size_t num_labels = 0;    ///< C.
  std::size_t dim = 0;           ///< D.
  std::size_t window_size = 100; ///< W.
  double theta_error = 0.0;      ///< Anomaly gate (Algorithm 1 line 8).
  double theta_drift = 0.0;      ///< Distance threshold; usually from Eq. 1.
  double z = 1.0;                ///< Eq. 1 tuning parameter for calibrate().

  /// 0 keeps the paper's exact running mean. A value in (0, 1) switches the
  /// recent-centroid update to an EWMA, the "assign a higher weight to a
  /// newer sample" variant Section 3.2 mentions.
  double ewma_decay = 0.0;

  /// Count assigned to each recent centroid at calibration. The paper's
  /// pseudocode carries the training counts into `num`, which makes recent
  /// centroids sluggish in long streams; a smaller prior (e.g. the window
  /// size) makes each window more responsive. Negative = use training counts.
  long initial_count = -1;
};

/// Fully sequential centroid-displacement drift detector (the proposal).
class CentroidDetector : public Detector {
 public:
  explicit CentroidDetector(CentroidDetectorConfig config);

  /// Calibrates from labeled training data: computes trained centroids,
  /// per-label counts, and theta_drift via Equation 1 (unless the config
  /// already fixed theta_drift > 0). Also snapshots the recent centroids to
  /// the trained ones.
  void calibrate(const linalg::Matrix& x,
                 std::span<const int> labels) override;

  // Detector interface -------------------------------------------------
  Detection observe(const Observation& obs) override;
  void reset() override;
  void set_anomaly_gate(double theta_error) override {
    config_.theta_error = theta_error;
  }
  const linalg::Matrix* reconstruction_seed() const override {
    return &recent_;
  }
  const linalg::Matrix* reference_centroids() const override {
    return &trained_;
  }
  std::size_t memory_bytes() const override;
  std::string_view name() const override { return "proposed"; }

  // Introspection ------------------------------------------------------
  const CentroidDetectorConfig& config() const { return config_; }
  double theta_drift() const { return theta_drift_; }
  bool window_open() const { return window_.open; }
  std::size_t window_position() const { return window_.pos; }
  /// Algorithm 1's `dist` for the current recent centroids: the statistic
  /// the last closed window compared with theta_drift.
  double last_distance() const;
  const linalg::Matrix& trained_centroids() const { return trained_; }
  const linalg::Matrix& recent_centroids() const { return recent_; }
  std::span<const std::size_t> counts() const { return counts_; }

  /// Re-anchors the trained centroids to the given matrix (used after model
  /// reconstruction: the rebuilt coordinates become the new reference) and
  /// re-arms the detector.
  void rearm(const linalg::Matrix& new_trained_centroids,
             std::span<const std::size_t> counts,
             double new_theta_drift) override;

  std::span<const std::size_t> calibrated_counts() const {
    return calibrated_counts_;
  }

  /// Drift localization: per-label L1 displacement between the recent and
  /// trained centroid (the per-label terms of Algorithm 1's `dist`). `out`
  /// must have length num_labels.
  void per_label_distances(std::span<double> out) const;

  /// Drift localization: the `k` dimensions contributing the largest
  /// summed |recent - trained| displacement across labels, most-displaced
  /// first. A deployment diagnostic: tells the operator *which features*
  /// moved, at zero extra state.
  std::vector<std::size_t> top_drifted_dimensions(std::size_t k) const;

  /// Restores full calibrated state, Algorithm 1's window included
  /// (deserialization path). `window.pos` must not exceed W, and must be
  /// below it while the window is open.
  void restore(const linalg::Matrix& trained, const linalg::Matrix& recent,
               std::span<const std::size_t> counts,
               std::span<const std::size_t> calibrated_counts,
               double theta_drift, steps::Window window);

 private:
  CentroidDetectorConfig config_;
  double theta_drift_ = 0.0;
  linalg::Matrix trained_;  ///< C x D, frozen reference.
  linalg::Matrix recent_;   ///< C x D, running per-label test centroids.
  std::vector<std::size_t> counts_;
  std::vector<std::size_t> calibrated_counts_;
  bool calibrated_ = false;
  steps::Window window_;

  // calibrate() scratch, reused across re-calibrations (a recovery may
  // calibrate many times over a long stream).
  std::vector<std::size_t> calib_counts_scratch_;
  std::vector<double> calib_distances_scratch_;
};

}  // namespace edgedrift::drift
