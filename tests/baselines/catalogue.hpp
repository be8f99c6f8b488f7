// The detector catalogue the evaluation harnesses iterate: the library's
// proposed family and the seven comparison detectors (the paper's Section
// 2.2.2 taxonomy and its Table 4 baselines), each under a stable name, and
// the drift::DetectorSpec that runs it in core::Pipeline. A comparison
// detector reaches the pipeline through the spec's factory; QuantTree and
// SPLL come wrapped in RefillOnRearm, which refills their reference after
// a recovery.
#pragma once

#include <optional>
#include <string_view>

#include "edgedrift/drift/detector_factory.hpp"
#include "edgedrift/eval/sweep.hpp"

#include "baselines/adwin.hpp"
#include "baselines/ddm.hpp"
#include "baselines/eddm.hpp"
#include "baselines/kswin.hpp"
#include "baselines/page_hinkley.hpp"
#include "baselines/quanttree.hpp"
#include "baselines/spll.hpp"

namespace edgedrift::baselines {

/// Every detector the evaluation runs.
enum class Kind {
  kCentroid,     ///< The paper's sequential centroid detector (Algorithm 1).
  kMultiWindow,  ///< Ensemble of centroid detectors (paper Section 6).
  kQuantTree,    ///< Batch histogram detector (Boracchi et al.).
  kSpll,         ///< Batch semi-parametric log-likelihood (Kuncheva).
  kDdm,          ///< Error-rate detector (Gama et al.; needs labels).
  kEddm,         ///< Error-distance detector (Baena-García et al.).
  kAdwin,        ///< Adaptive windowing (Bifet & Gavaldà).
  kKswin,        ///< Sliding-window KS test (Raab et al.).
  kPageHinkley,  ///< Sequential Page–Hinkley test.
};

/// All nine kinds, in a stable order (iteration by tests and examples).
inline constexpr Kind kAllKinds[] = {
    Kind::kCentroid, Kind::kMultiWindow, Kind::kQuantTree,
    Kind::kSpll,     Kind::kDdm,         Kind::kEddm,
    Kind::kAdwin,    Kind::kKswin,       Kind::kPageHinkley,
};

/// Stable lowercase identifier ("centroid", "quanttree", ...): the sweep
/// matrix's `detector` field.
std::string_view kind_name(Kind kind);

/// Inverse of kind_name; nullopt for unknown names.
std::optional<Kind> kind_from_name(std::string_view name);

/// Tunables of the seven comparison detectors, one block per kind.
struct ComparisonSettings {
  drift::QuantTreeConfig quanttree;
  drift::SpllConfig spll;
  drift::DdmConfig ddm;
  drift::EddmConfig eddm;
  drift::AdwinConfig adwin;
  drift::KswinConfig kswin;
  drift::PageHinkleyConfig page_hinkley;
};

/// Section 4.2 on NSL-KDD: QuantTree B=480 K=32, SPLL B=480, 2 clusters.
ComparisonSettings nsl_kdd_paper_settings();

/// Section 4.2 on the cooling fan: QuantTree B=235 K=16, SPLL B=235,
/// 1 cluster.
ComparisonSettings cooling_fan_paper_settings();

/// `base` set to run `kind`: the proposed family by its kind, a comparison
/// detector by a factory over its block of `settings`.
drift::DetectorSpec detector_spec(Kind kind,
                                  const ComparisonSettings& settings = {},
                                  drift::DetectorSpec base = {});

/// `kind` as a column of the scenario sweep, under its kind_name.
eval::SweepDetector sweep_detector(Kind kind,
                                   const ComparisonSettings& settings = {});

}  // namespace edgedrift::baselines
