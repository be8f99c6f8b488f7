#include "baselines/catalogue.hpp"

#include <memory>
#include <string>

#include "baselines/refill.hpp"

namespace edgedrift::baselines {
namespace {

using Factory = decltype(drift::DetectorSpec::factory);

/// kind_name's strings, in Kind order.
constexpr std::string_view kNames[] = {
    "centroid", "multiwindow", "quanttree", "spll",        "ddm",
    "eddm",     "adwin",       "kswin",     "pagehinkley",
};

template <class D, class Config>
Factory plain(const Config& config) {
  return [config](const drift::CentroidDetectorConfig&) {
    return std::make_unique<D>(config);
  };
}

template <class D, class Config>
Factory refilled(const Config& config) {
  return [config](const drift::CentroidDetectorConfig&) {
    return std::make_unique<RefillOnRearm>(std::make_unique<D>(config),
                                           config.batch_size);
  };
}

/// The factory of a comparison detector; none for the proposed family.
Factory comparison_factory(Kind kind, const ComparisonSettings& s) {
  switch (kind) {
    case Kind::kCentroid:
    case Kind::kMultiWindow:
      return nullptr;
    case Kind::kQuantTree:
      return refilled<drift::QuantTree>(s.quanttree);
    case Kind::kSpll:
      return refilled<drift::Spll>(s.spll);
    case Kind::kDdm:
      return plain<drift::Ddm>(s.ddm);
    case Kind::kEddm:
      return plain<drift::Eddm>(s.eddm);
    case Kind::kAdwin:
      return plain<drift::Adwin>(s.adwin);
    case Kind::kKswin:
      return plain<drift::Kswin>(s.kswin);
    case Kind::kPageHinkley:
      return plain<drift::PageHinkley>(s.page_hinkley);
  }
  return nullptr;
}

}  // namespace

std::string_view kind_name(Kind kind) {
  return kNames[static_cast<std::size_t>(kind)];
}

std::optional<Kind> kind_from_name(std::string_view name) {
  for (const Kind kind : kAllKinds) {
    if (name == kind_name(kind)) return kind;
  }
  return std::nullopt;
}

ComparisonSettings nsl_kdd_paper_settings() {
  ComparisonSettings s;
  s.quanttree.num_bins = 32;
  s.quanttree.batch_size = 480;
  // ~47 batches in the stream: alpha = 0.001 keeps the expected number of
  // false alarms at ~0.05 while the drifted batch still exceeds the
  // threshold by orders of magnitude.
  s.quanttree.alpha = 0.001;
  s.quanttree.monte_carlo_trials = 8000;
  s.spll.batch_size = 480;
  s.spll.num_clusters = 2;
  return s;
}

ComparisonSettings cooling_fan_paper_settings() {
  ComparisonSettings s;
  s.quanttree.num_bins = 16;
  s.quanttree.batch_size = 235;
  s.spll.batch_size = 235;
  s.spll.num_clusters = 1;
  return s;
}

drift::DetectorSpec detector_spec(Kind kind, const ComparisonSettings& s,
                                  drift::DetectorSpec base) {
  base.kind = kind == Kind::kMultiWindow ? drift::DetectorKind::kMultiWindow
                                         : drift::DetectorKind::kCentroid;
  base.factory = comparison_factory(kind, s);
  return base;
}

eval::SweepDetector sweep_detector(Kind kind,
                                   const ComparisonSettings& settings) {
  return {std::string(kind_name(kind)), detector_spec(kind, settings)};
}

}  // namespace edgedrift::baselines
