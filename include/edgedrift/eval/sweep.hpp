// Scenario sweep harness: runs drift detectors across a grid of compiled
// scenarios and scores every (scenario, detector) cell against the
// scenario's ground-truth annotations. The detectors are arguments, each a
// name and the drift::DetectorSpec that builds it, so the harness runs the
// comparison detectors of tests/baselines as it runs the library's own.
//
// A cell replays the scenario's stream through the detect-and-retrain
// Pipeline — or, when the scenario's TrafficSpec spreads arrivals over
// more than one stream, through the sharded PipelineManager serving layer
// under the spec's arrival pattern (submit_batch per shaped tick, then
// drain + take_steps mapped back to global stream indices). Either way
// the cell yields detection indices + per-sample correctness, scored by
// eval::score_scenario into delay / false-alarm / recovery-accuracy
// numbers, plus wall-clock throughput.
//
// sweep_json() renders the matrix as the versioned "edgedrift-eval-v1"
// document committed as EVAL_scenarios.json and gated in CI
// (tools/check_sweep_sanity.py).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/data/scenario.hpp"
#include "edgedrift/drift/detector_factory.hpp"
#include "edgedrift/eval/scenario_metrics.hpp"

namespace edgedrift::eval {

/// The default cell pipeline: the paper experiment settings (responsive
/// recent centroids via initial_count 0, the tight theta_error_z = 4 gate)
/// rather than the raw PipelineConfig defaults.
core::PipelineConfig default_sweep_pipeline();

/// One detector column of the matrix: its name in the JSON and its spec.
struct SweepDetector {
  std::string name;
  drift::DetectorSpec spec;
};

/// Per-cell run configuration. `pipeline` is a template: input_dim,
/// num_labels and detector are overwritten per cell from the scenario and
/// the swept detector.
struct SweepCellConfig {
  core::PipelineConfig pipeline = default_sweep_pipeline();
  ScenarioMetricsConfig metrics;
  /// Serving shards of the PipelineManager replay path (TrafficSpec with
  /// streams > 1).
  std::size_t manager_shards = 2;
};

/// One (scenario, detector) cell of the matrix.
struct SweepCell {
  std::string scenario;
  std::string detector;       ///< The SweepDetector's name.
  bool via_manager = false;   ///< Replayed through PipelineManager.
  std::size_t streams = 1;    ///< Managed streams of the replay.
  double calibrated_hellinger = 0.0;  ///< The scenario's measuring stick.
  ScenarioMetrics metrics;
  /// Global stream indices where the detector fired (merged across
  /// managed streams on the manager path), sorted.
  std::vector<std::size_t> detections;
  double runtime_seconds = 0.0;       ///< Streaming loop wall clock.
  double throughput_rows_per_s = 0.0;
};

/// Runs one detector over one compiled scenario.
SweepCell run_sweep_cell(const data::CompiledScenario& scenario,
                         const SweepDetector& detector,
                         const SweepCellConfig& config = {});

/// The full matrix, cells ordered scenario-major in the given order.
struct SweepResult {
  std::vector<SweepCell> cells;
};

/// Compiles each spec once and runs every detector over it.
SweepResult run_sweep(std::span<const data::ScenarioSpec> specs,
                      std::span<const SweepDetector> detectors,
                      const SweepCellConfig& config = {});

/// Renders the matrix as the versioned "edgedrift-eval-v1" JSON document.
std::string sweep_json(const SweepResult& result);

}  // namespace edgedrift::eval
