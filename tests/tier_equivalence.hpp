// Drift-decision equivalence harness for the tiered numerics contract
// (linalg/numerics.hpp).
//
// The fp32 and int8 scoring tiers trade score precision for throughput and
// stream density; what they must NOT trade away is the pipeline's
// *decisions*. This harness replays one (train, test) scenario twice — a
// fresh kExactF64 reference run and a run under the tier being checked —
// and compares everything downstream consumers act on: the calibrated
// theta_error gate, every predicted label, every drift detection, and every
// recovery. The golden-replay test pins the f64 tier to a committed
// transcript bit for bit; this harness pins the reduced tiers to the f64
// run within explicit decision tolerances. It is a test oracle, built into
// the test binary only (tests/test_tier_equivalence.cpp); the library does
// not ship it.
//
// Per-sample labels are compared only over the shared-trajectory window
// [0, first detection of either run): a detection may legitimately shift by
// up to detection_slack samples under a reduced tier, and from that point
// on the two runs recover from different sample windows, so their states —
// and therefore their per-sample predictions — genuinely diverge. Within
// the shared window a disagreement counts against the budget only when the
// reference run's decision margin (relative score gap between the best and
// second-best instance) exceeds decision_margin_floor; below the floor the
// reference decision is itself inside the tier's noise band and the tier
// may break the tie either way.
#pragma once

#include <cstddef>
#include <string>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/data/stream.hpp"
#include "edgedrift/linalg/numerics.hpp"

namespace edgedrift::eval {

/// Tolerances on the decision comparison. Detection and label slack mirror
/// the golden-replay test's native-build tolerances. The gate tolerance is
/// looser: theta_error is calibrated through the tier's own scoring path
/// (so the gate stays consistent with the scores it gates), which means
/// quantization legitimately moves the gate — the contract holds the
/// *decisions*, not the gate's bits. Tighten theta_rel_tol per tier when a
/// test wants a sharper bound (f32 narrowing sits far below i8
/// quantization).
struct TierEquivalenceConfig {
  core::PipelineConfig pipeline;  ///< Reference config; numerics overridden.
  /// A paired detection may shift by at most this many samples (default:
  /// one detector window).
  std::size_t detection_slack = 100;
  /// Fraction of compared per-sample label predictions allowed to differ
  /// *materially* (reference margin above decision_margin_floor).
  double max_label_disagreement = 0.01;
  /// Reference decisions with a relative score margin at or below this are
  /// ties as far as the tier is concerned — flips there are not material.
  double decision_margin_floor = 0.05;
  /// Relative tolerance on the calibrated theta_error gate.
  double theta_rel_tol = 0.05;
};

/// What the comparison measured, plus the verdict.
struct TierEquivalenceReport {
  linalg::NumericsTier tier = linalg::NumericsTier::kExactF64;
  std::size_t samples = 0;
  std::size_t reference_drifts = 0;     ///< Detections in the f64 run.
  std::size_t tier_drifts = 0;          ///< Detections in the tier run.
  std::size_t reference_recoveries = 0;
  std::size_t tier_recoveries = 0;
  std::size_t max_detection_shift = 0;  ///< Largest paired index delta.
  /// Samples in the shared-trajectory window the labels were compared over.
  std::size_t compared_samples = 0;
  std::size_t label_disagreements = 0;  ///< Raw flips in the window.
  /// Flips where the reference margin exceeded decision_margin_floor —
  /// the count the verdict is based on.
  std::size_t material_disagreements = 0;
  double theta_rel_diff = 0.0;
  bool equivalent = false;  ///< All tolerances held.
  /// Human-readable explanation when !equivalent, empty otherwise.
  std::string failure;
};

/// Runs the scenario under `tier` and under kExactF64 and compares the
/// drift decisions. The test stream's labels feed only the per-sample
/// supervision path, exactly as in the experiment runner.
TierEquivalenceReport check_tier_equivalence(
    linalg::NumericsTier tier, const data::Dataset& train,
    const data::Dataset& test, const TierEquivalenceConfig& config);

}  // namespace edgedrift::eval
