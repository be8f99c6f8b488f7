// Integration tests of the experiment runner on the cooling-fan
// configuration — the C = 1 (single normal pattern) path of the paper's
// second evaluation, covering all three drift schedules.
#include <gtest/gtest.h>

#include "edgedrift/data/cooling_fan_like.hpp"
#include "edgedrift/eval/paper_configs.hpp"
#include "edgedrift/util/rng.hpp"
#include "baselines/experiment.hpp"

namespace {

using edgedrift::data::CoolingFanLike;
using edgedrift::data::Dataset;
using edgedrift::eval::ExperimentConfig;
using edgedrift::eval::Method;
using edgedrift::util::Rng;

struct Fixture {
  Dataset train;
  Dataset sudden;
  Dataset gradual;
  Dataset reoccurring;
  std::size_t drift_at;
  ExperimentConfig config;
  edgedrift::baselines::ComparisonSettings detectors;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture fx;
    CoolingFanLike generator;
    Rng rng(41);
    fx.train = generator.training(rng);
    Rng stream_rng(42);
    fx.sudden = generator.sudden_stream(stream_rng);
    fx.gradual = generator.gradual_stream(stream_rng);
    fx.reoccurring = generator.reoccurring_stream(stream_rng);
    fx.drift_at = generator.config().drift_point;
    fx.config = edgedrift::eval::cooling_fan_paper_config(50);
    fx.detectors = edgedrift::baselines::cooling_fan_paper_settings();
    return fx;
  }();
  return f;
}

TEST(ExperimentFan, ProposedDetectsSuddenDamage) {
  const auto& f = fixture();
  const auto result = edgedrift::eval::run_experiment(
      Method::kProposed, f.train, f.sudden, f.config);
  const auto delay = result.detections.delay(f.drift_at);
  ASSERT_TRUE(delay.has_value());
  EXPECT_LT(*delay, 250u);
  EXPECT_EQ(result.detections.false_alarms(f.drift_at), 0u);
}

TEST(ExperimentFan, QuantTreeDetectsSuddenDamage) {
  const auto& f = fixture();
  const auto result = edgedrift::eval::run_experiment(
      Method::kQuantTree, f.train, f.sudden, f.config, f.detectors);
  const auto delay = result.detections.delay(f.drift_at);
  ASSERT_TRUE(delay.has_value());
  // One QuantTree batch is 235 samples; detection comes at a batch close.
  EXPECT_LT(*delay, 2u * 235u);
}

TEST(ExperimentFan, SpllDetectsSuddenDamage) {
  const auto& f = fixture();
  const auto result = edgedrift::eval::run_experiment(
      Method::kSpll, f.train, f.sudden, f.config, f.detectors);
  ASSERT_TRUE(result.detections.delay(f.drift_at).has_value());
}

TEST(ExperimentFan, BaselineAndOnladRunSingleLabel) {
  const auto& f = fixture();
  // C = 1: "accuracy" is trivially the fraction labeled 0; the point is
  // the code path runs and memory is accounted.
  const auto baseline = edgedrift::eval::run_experiment(
      Method::kBaseline, f.train, f.sudden, f.config);
  const auto onlad = edgedrift::eval::run_experiment(
      Method::kOnlad, f.train, f.sudden, f.config);
  EXPECT_EQ(baseline.accuracy.samples(), f.sudden.size());
  EXPECT_EQ(onlad.accuracy.samples(), f.sudden.size());
  EXPECT_GT(baseline.model_memory_bytes, 0u);
}

TEST(ExperimentFan, ProposedHandlesGradualDrift) {
  const auto& f = fixture();
  const auto result = edgedrift::eval::run_experiment(
      Method::kProposed, f.train, f.gradual, f.config);
  const auto delay = result.detections.delay(f.drift_at);
  ASSERT_TRUE(delay.has_value());
  // Gradual mixing stretches the delay beyond the sudden case.
  const auto sudden = edgedrift::eval::run_experiment(
      Method::kProposed, f.train, f.sudden, f.config);
  EXPECT_GT(*delay, *sudden.detections.delay(f.drift_at));
}

TEST(ExperimentFan, DetectorMemoryOrderingHolds) {
  const auto& f = fixture();
  const auto proposed = edgedrift::eval::run_experiment(
      Method::kProposed, f.train, f.sudden, f.config);
  const auto quanttree = edgedrift::eval::run_experiment(
      Method::kQuantTree, f.train, f.sudden, f.config, f.detectors);
  const auto spll = edgedrift::eval::run_experiment(
      Method::kSpll, f.train, f.sudden, f.config, f.detectors);
  // Table 4's ordering on the exact fan configuration.
  EXPECT_LT(proposed.detector_memory_bytes,
            quanttree.detector_memory_bytes / 10);
  EXPECT_LT(quanttree.detector_memory_bytes, spll.detector_memory_bytes);
}

}  // namespace
