#include "edgedrift/drift/detector_factory.hpp"

namespace edgedrift::drift {

std::unique_ptr<Detector> make_detector(
    const DetectorSpec& spec, const CentroidDetectorConfig& centroid_base) {
  if (spec.factory) return spec.factory(centroid_base);
  if (spec.kind == DetectorKind::kMultiWindow) {
    return std::make_unique<MultiWindowDetector>(centroid_base, spec.windows,
                                                 spec.vote_policy);
  }
  return std::make_unique<CentroidDetector>(centroid_base);
}

}  // namespace edgedrift::drift
