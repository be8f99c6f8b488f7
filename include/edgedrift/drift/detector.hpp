// Common interface for concept-drift detectors.
//
// Section 2.2.2 of the paper names two detector families: distribution-based
// detectors (the proposed centroid method, QuantTree, SPLL) consume feature
// vectors; error-rate-based detectors (DDM, ADWIN, Page–Hinkley) consume the
// discriminative model's mistake stream. The library implements the
// proposed family; the comparison detectors are built outside it
// (tests/baselines) against this interface. One Observation struct carries
// both signals so core::Pipeline can drive any detector uniformly.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::drift {

/// One streamed sample as seen by a detector.
struct Observation {
  std::span<const double> x;  ///< Feature vector (distribution detectors).
  int predicted_label = -1;   ///< Discriminative model's prediction.
  double anomaly_score = 0.0; ///< Reconstruction error of that prediction.
  bool error = false;         ///< True if the prediction was wrong
                              ///< (error-rate detectors; needs labels).
};

/// Outcome of one observe() call.
struct Detection {
  bool drift = false;    ///< A concept drift fired on this sample.
  bool warning = false;  ///< Early-warning level (DDM-style).
  double statistic = 0.0;       ///< Detector statistic, when emitted.
  bool statistic_valid = false; ///< Batch detectors only emit at batch ends.
};

/// Abstract streaming drift detector.
///
/// Beyond the observe/reset pair, the interface carries the uniform
/// lifecycle hooks core::Pipeline drives every detector through:
/// calibrate() before streaming, set_anomaly_gate() to propagate the
/// model-derived theta_error and rearm() after a model recovery. Every
/// hook has a sensible default so scalar detectors (DDM, ADWIN, ...) stay
/// one-override implementations.
class Detector {
 public:
  virtual ~Detector() = default;

  /// Feeds one sample; returns whether a drift (or warning) fired.
  virtual Detection observe(const Observation& obs) = 0;

  /// Clears streaming state after the model has been retrained, so detection
  /// restarts against the post-drift concept.
  virtual void reset() = 0;

  /// Calibrates from labeled training data before streaming begins.
  /// Default: a no-op, for detectors that self-calibrate on the stream.
  virtual void calibrate(const linalg::Matrix& x,
                         std::span<const int> labels) {
    (void)x;
    (void)labels;
  }

  /// Propagates the anomaly gate (Algorithm 1's theta_error) calibrated by
  /// the discriminative model. Default: ignored — most detectors have no
  /// gate.
  virtual void set_anomaly_gate(double theta_error) { (void)theta_error; }

  /// Re-anchors the detector after a model recovery: `centroids`/`counts`
  /// are the rebuilt per-label coordinates, `theta_drift` the Eq. 1
  /// threshold recomputed over the recovery samples (<= 0 keeps the old
  /// one). Default: plain reset() for detectors without centroid state.
  virtual void rearm(const linalg::Matrix& centroids,
                     std::span<const std::size_t> counts, double theta_drift) {
    (void)centroids;
    (void)counts;
    (void)theta_drift;
    reset();
  }

  /// Best current per-label centroid estimate of the post-drift concept —
  /// the seed for model reconstruction. nullptr when the detector tracks no
  /// centroids (the driver falls back to its own running estimate).
  virtual const linalg::Matrix* reconstruction_seed() const { return nullptr; }

  /// Frozen per-label reference centroids, used to re-align rebuilt label
  /// identities after a reconstruction. nullptr when untracked.
  virtual const linalg::Matrix* reference_centroids() const { return nullptr; }

  /// Bytes of detector state — the quantity Table 4 of the paper compares.
  virtual std::size_t memory_bytes() const = 0;

  /// Stable identifier ("proposed", "quanttree", ...).
  virtual std::string_view name() const = 0;
};

}  // namespace edgedrift::drift
