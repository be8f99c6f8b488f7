// The sweep harness end to end on small compiled scenarios: single-pipeline
// cells, the PipelineManager replay path, determinism of the scored events,
// the scenario-major grid ordering and the versioned JSON rendering.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "edgedrift/data/scenario.hpp"
#include "edgedrift/eval/sweep.hpp"
#include "baselines/catalogue.hpp"

namespace {

using namespace edgedrift;
using baselines::Kind;
using baselines::sweep_detector;

/// A scenario small enough for sub-second cells but with an unmistakable
/// abrupt edge (magnitude 0.9 at burn_in = 800).
data::ScenarioSpec small_spec() {
  data::ScenarioSpec spec;
  spec.name = "sweep-small";
  spec.num_features = 6;
  spec.num_labels = 2;
  spec.train_size = 300;
  spec.n_instances = 2000;
  spec.burn_in = 800;
  spec.drift_magnitude_prior = 0.9;
  spec.divergence_window = 200;
  spec.seed = 41;
  return spec;
}

TEST(ScenarioSweep, SinglePipelineCellScoresTheScenario) {
  const data::CompiledScenario scenario = data::compile_scenario(small_spec());
  const eval::SweepCell cell =
      eval::run_sweep_cell(scenario, sweep_detector(Kind::kCentroid));

  EXPECT_EQ(cell.scenario, "sweep-small");
  EXPECT_EQ(cell.detector, "centroid");
  EXPECT_FALSE(cell.via_manager);
  EXPECT_EQ(cell.streams, 1u);
  EXPECT_DOUBLE_EQ(cell.calibrated_hellinger, 0.9);
  EXPECT_EQ(cell.metrics.stream_length, scenario.stream.size());
  EXPECT_EQ(cell.metrics.drift_points, scenario.annotations.size());
  EXPECT_TRUE(std::is_sorted(cell.detections.begin(), cell.detections.end()));
  EXPECT_GT(cell.throughput_rows_per_s, 0.0);
  // The event counts are consistent with the detection list.
  EXPECT_EQ(cell.metrics.detected + cell.metrics.extra_detections +
                cell.metrics.false_alarms,
            cell.detections.size());
}

TEST(ScenarioSweep, CentroidCatchesTheAbruptEdge) {
  const data::CompiledScenario scenario = data::compile_scenario(small_spec());
  const eval::SweepCell cell =
      eval::run_sweep_cell(scenario, sweep_detector(Kind::kCentroid));
  ASSERT_EQ(cell.metrics.drift_points, 1u);
  EXPECT_EQ(cell.metrics.detected, 1u);
  EXPECT_GE(cell.metrics.delays[0], 0);
}

TEST(ScenarioSweep, ManagerReplayCoversEveryRowAndIsDeterministic) {
  data::ScenarioSpec spec = small_spec();
  spec.name = "sweep-managed";
  spec.traffic.pattern = data::ArrivalPattern::kPoisson;
  spec.traffic.streams = 4;
  spec.traffic.mean_batch = 8;
  const data::CompiledScenario scenario = data::compile_scenario(spec);

  const eval::SweepCell a =
      eval::run_sweep_cell(scenario, sweep_detector(Kind::kDdm));
  EXPECT_TRUE(a.via_manager);
  EXPECT_EQ(a.streams, 4u);
  EXPECT_EQ(a.metrics.stream_length, scenario.stream.size());
  EXPECT_TRUE(std::is_sorted(a.detections.begin(), a.detections.end()));

  // Identical events and scores on a rerun; only the wall clock may move.
  const eval::SweepCell b =
      eval::run_sweep_cell(scenario, sweep_detector(Kind::kDdm));
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.metrics.detected, b.metrics.detected);
  EXPECT_EQ(a.metrics.delays, b.metrics.delays);
  EXPECT_EQ(a.metrics.false_alarms, b.metrics.false_alarms);
  EXPECT_DOUBLE_EQ(a.metrics.overall_accuracy, b.metrics.overall_accuracy);
}

TEST(ScenarioSweep, GridIsScenarioMajor) {
  data::ScenarioSpec first = small_spec();
  first.name = "grid-a";
  data::ScenarioSpec second = small_spec();
  second.name = "grid-b";
  second.seed = 42;
  const std::vector<data::ScenarioSpec> specs = {first, second};
  const std::vector<eval::SweepDetector> detectors = {
      sweep_detector(Kind::kCentroid), sweep_detector(Kind::kPageHinkley)};

  const eval::SweepResult result = eval::run_sweep(specs, detectors);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.cells[0].scenario, "grid-a");
  EXPECT_EQ(result.cells[0].detector, "centroid");
  EXPECT_EQ(result.cells[1].scenario, "grid-a");
  EXPECT_EQ(result.cells[1].detector, "pagehinkley");
  EXPECT_EQ(result.cells[2].scenario, "grid-b");
  EXPECT_EQ(result.cells[3].scenario, "grid-b");
}

TEST(ScenarioSweep, JsonCarriesTheSchemaAndEveryCell) {
  const std::vector<data::ScenarioSpec> specs = {small_spec()};
  const std::vector<eval::SweepDetector> detectors = {
      sweep_detector(Kind::kCentroid), sweep_detector(Kind::kAdwin)};
  const eval::SweepResult result = eval::run_sweep(specs, detectors);
  const std::string json = eval::sweep_json(result);

  EXPECT_NE(json.find("\"schema\": \"edgedrift-eval-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"sweep-small\""), std::string::npos);
  EXPECT_NE(json.find("\"detector\": \"centroid\""), std::string::npos);
  EXPECT_NE(json.find("\"detector\": \"adwin\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_delay\""), std::string::npos);
  EXPECT_NE(json.find("\"false_alarm_rate_per_1k\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery_accuracy\""), std::string::npos);
  EXPECT_NE(json.find("\"throughput_rows_per_s\""), std::string::npos);
}

}  // namespace
