// Detector factory: one spec struct naming the drift detector core::Pipeline
// runs, and a constructor turning it into a drift::Detector. The library
// ships the proposed family, Algorithm 1's centroid detector and its
// multi-window ensemble; any other detector (the paper's comparison
// baselines in tests/baselines, a test double) is built outside the
// library and reaches the pipeline through the spec's factory.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "edgedrift/drift/centroid_detector.hpp"
#include "edgedrift/drift/detector.hpp"
#include "edgedrift/drift/multi_window.hpp"

namespace edgedrift::drift {

/// The detector families the library ships.
enum class DetectorKind {
  kCentroid,     ///< The paper's sequential centroid detector (Algorithm 1).
  kMultiWindow,  ///< Ensemble of centroid detectors (paper Section 6).
};

/// Which detector to build. The centroid geometry (num_labels / dim /
/// window / thresholds) is passed separately at construction because the
/// pipeline derives it from its own config.
struct DetectorSpec {
  DetectorKind kind = DetectorKind::kCentroid;

  /// Member window sizes and vote policy of the kMultiWindow ensemble.
  std::vector<std::size_t> windows{50, 100, 200};
  VotePolicy vote_policy = VotePolicy::kMajority;

  /// A detector built outside the library. When set, make_detector() calls
  /// it with the centroid geometry and `kind`, `windows` and `vote_policy`
  /// are not read. Such a detector is not checkpointed: io::save_pipeline,
  /// cold eviction and mcu::StaticPipeline::load() need the centroid kind.
  std::function<std::unique_ptr<Detector>(const CentroidDetectorConfig&)>
      factory;
};

/// Builds the detector named by `spec`. `centroid_base` supplies the
/// geometry (labels, dim, window size, thresholds) of the centroid family.
std::unique_ptr<Detector> make_detector(
    const DetectorSpec& spec, const CentroidDetectorConfig& centroid_base);

}  // namespace edgedrift::drift
