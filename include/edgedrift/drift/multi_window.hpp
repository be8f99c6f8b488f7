// Multi-window ensemble of the proposed detector — the extension the paper
// names as future work ("a combination of multiple detection models with
// different window sizes to address more complicated concept drift
// behaviors", Section 6).
//
// Each member is a full CentroidDetector with its own window size; the
// ensemble fires according to a vote policy. Small windows catch sudden
// drifts early; large windows resist the oscillation of gradual and
// reoccurring drifts (Section 5.2's discussion) — the ensemble gets both.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "edgedrift/drift/centroid_detector.hpp"

namespace edgedrift::drift {

/// How member votes combine into an ensemble decision.
enum class VotePolicy {
  kAny,       ///< Drift if any member fires (lowest latency).
  kMajority,  ///< Drift if more than half of the members fire.
  kAll,       ///< Drift only when every member fires (lowest false rate).
};

/// Ensemble of centroid detectors with different window sizes.
class MultiWindowDetector : public Detector {
 public:
  /// One member per entry of `window_sizes`, each cloned from `base` with
  /// the window size overridden.
  MultiWindowDetector(CentroidDetectorConfig base,
                      std::span<const std::size_t> window_sizes,
                      VotePolicy policy = VotePolicy::kMajority);

  /// Calibrates every member on the same training data.
  void calibrate(const linalg::Matrix& x,
                 std::span<const int> labels) override;

  std::size_t members() const { return members_.size(); }
  const CentroidDetector& member(std::size_t i) const { return *members_[i]; }
  VotePolicy policy() const { return policy_; }

  // Detector interface -------------------------------------------------
  Detection observe(const Observation& obs) override;
  void reset() override;
  void set_anomaly_gate(double theta_error) override;
  /// Rearms every member to the rebuilt coordinates and clears the latched
  /// votes, matching the per-member recovery of the ensemble extension.
  void rearm(const linalg::Matrix& centroids,
             std::span<const std::size_t> counts,
             double theta_drift) override;
  std::size_t memory_bytes() const override;
  std::string_view name() const override { return "multi-window"; }

 private:
  bool vote_passes(std::size_t votes) const;

  std::vector<std::unique_ptr<CentroidDetector>> members_;
  std::vector<bool> member_fired_;  ///< Latched per member until ensemble fires.
  VotePolicy policy_;
};

}  // namespace edgedrift::drift
