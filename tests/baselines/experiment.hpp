// Experiment runner for the five method combinations of the paper's
// Section 4.2:
//   1. proposed detector        + OS-ELM multi-instance model   (active)
//   2. no detector ("baseline") + OS-ELM multi-instance model
//   3. QuantTree                + OS-ELM multi-instance model   (active)
//   4. SPLL                     + OS-ELM multi-instance model   (active)
//   5. no detector              + ONLAD (forgetting OS-ELM)     (passive)
//
// All five share the same initial training; the runner walks a test stream
// sample by sample, records per-sample correctness (Figure 4 / Table 2),
// detection indices (delay columns), wall-clock time (Table 5) and
// component memory (Table 4).
#pragma once

#include <string>

#include "edgedrift/data/stream.hpp"
#include "edgedrift/eval/metrics.hpp"
#include "edgedrift/eval/paper_configs.hpp"
#include "baselines/catalogue.hpp"

namespace edgedrift::eval {

/// The five evaluated method combinations plus the ensemble extension.
enum class Method {
  kProposed,     ///< Centroid detector + reconstruction.
  kBaseline,     ///< Static model, no detection.
  kQuantTree,    ///< QuantTree batch detector + reconstruction.
  kSpll,         ///< SPLL batch detector + reconstruction.
  kOnlad,        ///< Passive: forgetting OS-ELM trained on every sample.
  kMultiWindow,  ///< Extension: multi-window centroid ensemble (paper §6).
};

std::string method_name(Method method);

/// Everything the paper's tables need from one run.
struct ExperimentResult {
  Method method;
  StreamingAccuracy accuracy;   ///< Per-sample correctness.
  DetectionLog detections;      ///< Sample indices where drift fired.
  double runtime_seconds = 0.0; ///< Wall clock of the streaming loop.
  std::size_t detector_memory_bytes = 0;
  std::size_t model_memory_bytes = 0;
};

/// Runs one method over (train, test), the comparison detectors with
/// `detectors`' settings. The test stream's labels are used only for
/// accuracy accounting, never by the methods themselves.
ExperimentResult run_experiment(
    Method method, const data::Dataset& train, const data::Dataset& test,
    const ExperimentConfig& config,
    const baselines::ComparisonSettings& detectors = {});

}  // namespace edgedrift::eval
