// Conformance tests over every detector of the catalogue (the library's
// proposed family and the comparison detectors of tests/baselines): the
// name round-trip, the Detector interface contract, each kind driving
// core::Pipeline's detect-and-retrain loop via DetectorSpec alone, and the
// bit-identity of the row-range core process_rows() with sample-by-sample
// process().
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/data/drift_stream.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/util/rng.hpp"
#include "baselines/catalogue.hpp"

namespace {

using edgedrift::core::Pipeline;
using edgedrift::core::PipelineConfig;
using edgedrift::core::PipelineStep;
using edgedrift::core::RecoveryPolicy;
using edgedrift::data::Dataset;
using edgedrift::data::GaussianClass;
using edgedrift::data::GaussianConcept;
using edgedrift::util::Rng;
namespace baselines = edgedrift::baselines;
namespace drift = edgedrift::drift;
namespace linalg = edgedrift::linalg;

GaussianConcept pre_concept() {
  GaussianClass a;
  a.mean.assign(8, 0.2);
  a.stddev = {0.15};
  GaussianClass b;
  b.mean.assign(8, 1.2);
  b.stddev = {0.15};
  return GaussianConcept({a, b});
}

GaussianConcept post_concept() {
  GaussianClass a;
  a.mean.assign(8, 0.2);
  for (std::size_t j = 0; j < 8; j += 2) a.mean[j] += 0.9;
  a.stddev = {0.2};
  GaussianClass b;
  b.mean.assign(8, 0.55);
  for (std::size_t j = 0; j < 8; j += 2) b.mean[j] += 0.9;
  b.stddev = {0.2};
  return GaussianConcept({a, b});
}

struct Scenario {
  Dataset train;
  Dataset test;
  std::size_t drift_at;
};

Scenario make_scenario(Rng& rng, std::size_t pre = 1200,
                       std::size_t post = 1600) {
  Scenario s;
  s.train = edgedrift::data::draw(pre_concept(), 600, rng);
  s.test = edgedrift::data::make_sudden_drift(pre_concept(), post_concept(),
                                              pre + post, pre, rng);
  s.drift_at = pre;
  return s;
}

/// A spec per kind with tunables that make each detector responsive on the
/// short synthetic stream (mirrors examples/detector_zoo.cpp).
drift::DetectorSpec spec_for(baselines::Kind kind) {
  baselines::ComparisonSettings settings;
  settings.quanttree.num_bins = 16;
  settings.quanttree.batch_size = 240;
  settings.quanttree.alpha = 0.001;
  settings.spll.num_clusters = 2;
  settings.spll.batch_size = 240;
  settings.page_hinkley.lambda = 10.0;
  settings.page_hinkley.use_anomaly_score = true;
  drift::DetectorSpec spec = baselines::detector_spec(kind, settings);
  spec.windows = {20, 40, 80};
  return spec;
}

PipelineConfig make_config(baselines::Kind kind) {
  PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = 8;
  config.hidden_dim = 12;
  config.window_size = 40;
  config.detector_initial_count = 0;
  config.reconstruction.n_search = 20;
  config.reconstruction.n_update = 100;
  config.reconstruction.n_total = 400;
  config.seed = 7;
  config.detector = spec_for(kind);
  return config;
}

class DetectorKindTest : public ::testing::TestWithParam<baselines::Kind> {};

std::string kind_param_name(
    const ::testing::TestParamInfo<baselines::Kind>& info) {
  return std::string(baselines::kind_name(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, DetectorKindTest,
                         ::testing::ValuesIn(baselines::kAllKinds),
                         kind_param_name);

TEST_P(DetectorKindTest, KindNameRoundTrips) {
  const baselines::Kind kind = GetParam();
  const std::string_view name = baselines::kind_name(kind);
  EXPECT_FALSE(name.empty());
  const auto back = baselines::kind_from_name(name);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, kind);
}

TEST_P(DetectorKindTest, FactoryHonoursInterfaceContract) {
  drift::CentroidDetectorConfig base;
  base.num_labels = 2;
  base.dim = 8;
  base.window_size = 40;
  base.theta_error = 0.5;
  base.initial_count = 0;
  const auto detector = drift::make_detector(spec_for(GetParam()), base);
  ASSERT_NE(detector, nullptr);
  EXPECT_FALSE(detector->name().empty());

  Rng rng(11);
  const Dataset train = edgedrift::data::draw(pre_concept(), 300, rng);
  detector->set_anomaly_gate(0.5);
  detector->calibrate(train.x, train.labels);
  EXPECT_GT(detector->memory_bytes(), 0u);

  // Feeding pre-concept samples after calibration must not fire.
  const Dataset quiet = edgedrift::data::draw(pre_concept(), 60, rng);
  for (std::size_t i = 0; i < quiet.size(); ++i) {
    drift::Observation obs;
    obs.x = quiet.x.row(i);
    obs.predicted_label = quiet.labels[i];
    obs.anomaly_score = 0.01;
    obs.error = false;
    const drift::Detection det = detector->observe(obs);
    EXPECT_FALSE(det.drift) << "false alarm at sample " << i;
  }
  detector->reset();  // Must leave the detector usable.
  drift::Observation obs;
  obs.x = quiet.x.row(0);
  obs.predicted_label = quiet.labels[0];
  detector->observe(obs);
}

TEST_P(DetectorKindTest, DrivesPipelineAndFiresAfterDrift) {
  Rng rng(3);
  auto scenario = make_scenario(rng);
  PipelineConfig config = make_config(GetParam());
  config.recovery = RecoveryPolicy::kDetectOnly;
  Pipeline pipeline(config);
  pipeline.fit(scenario.train.x, scenario.train.labels);
  EXPECT_EQ(pipeline.detector().name().empty(), false);

  std::ptrdiff_t first_after = -1;
  for (std::size_t i = 0; i < scenario.test.size(); ++i) {
    const PipelineStep step =
        pipeline.process(scenario.test.x.row(i), scenario.test.labels[i]);
    if (step.drift_detected && i >= scenario.drift_at && first_after < 0) {
      first_after = static_cast<std::ptrdiff_t>(i);
    }
  }
  EXPECT_EQ(pipeline.stats().samples, scenario.test.size());
  EXPECT_GE(pipeline.stats().drifts, 1u);
  EXPECT_GE(first_after, 0) << "never fired after the drift";
  // Detect-only never consumes samples into a recovery.
  EXPECT_EQ(pipeline.stats().recovery_samples, 0u);
  EXPECT_EQ(pipeline.stats().recoveries, 0u);
}

// The load-bearing contract of the row-range core: process_rows() must be
// sample-for-sample bit-identical to process(), including across the drift,
// the recovery that follows it, and (for batch detectors) the adapter's
// reference refill. Every detector kind runs through both sides of the
// model's scoring core — 1-row blocks take the per-row fused scorer, longer
// blocks the GEMM — with and without caller-supplied hidden rows, at every
// numerics tier.
TEST_P(DetectorKindTest, ProcessBatchBitIdenticalToProcess) {
  Rng rng(3);
  auto scenario = make_scenario(rng);
  for (const linalg::NumericsTier tier :
       {linalg::NumericsTier::kExactF64, linalg::NumericsTier::kFastF32,
        linalg::NumericsTier::kQuantI8}) {
    SCOPED_TRACE(std::string("tier ") + linalg::tier_name(tier));
    PipelineConfig config = make_config(GetParam());
    config.max_batch_rows = 64;  // Force internal chunking.
    config.numerics = tier;

    Pipeline sequential(config);
    sequential.fit(scenario.train.x, scenario.train.labels);
    std::vector<PipelineStep> expected;
    expected.reserve(scenario.test.size());
    for (std::size_t i = 0; i < scenario.test.size(); ++i) {
      expected.push_back(
          sequential.process(scenario.test.x.row(i), scenario.test.labels[i]));
    }

    // Single rows, a small odd block, and a block larger than max_batch_rows
    // (the internal chunk loop) with a ragged tail.
    for (const std::size_t block_rows : {1u, 3u, 150u}) {
      for (const bool supply_hidden : {false, true}) {
        SCOPED_TRACE("block " + std::to_string(block_rows) +
                     (supply_hidden ? ", hidden supplied" : ""));
        Pipeline batched(config);
        batched.fit(scenario.train.x, scenario.train.labels);
        std::vector<PipelineStep> actual;
        linalg::Matrix hidden;
        for (std::size_t start = 0; start < scenario.test.size();
             start += block_rows) {
          const std::size_t rows =
              std::min(block_rows, scenario.test.size() - start);
          const linalg::ConstMatrixView block{scenario.test.x, start,
                                              start + rows};
          const std::span<const int> labels(
              scenario.test.labels.data() + start, rows);
          if (supply_hidden) {
            batched.model().projection()->hidden_batch_into(block, hidden);
            const linalg::ConstMatrixView h{hidden};
            batched.process_rows(block, labels, actual, &h);
          } else {
            batched.process_rows(block, labels, actual);
          }
        }

        ASSERT_EQ(actual.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
          SCOPED_TRACE("sample " + std::to_string(i));
          const PipelineStep& e = expected[i];
          const PipelineStep& a = actual[i];
          EXPECT_EQ(a.prediction.label, e.prediction.label);
          EXPECT_EQ(a.prediction.score, e.prediction.score);  // Bit-exact.
          EXPECT_EQ(a.drift_detected, e.drift_detected);
          EXPECT_EQ(a.reconstructing, e.reconstructing);
          EXPECT_EQ(a.reconstruction_finished, e.reconstruction_finished);
          EXPECT_EQ(a.statistic, e.statistic);
          EXPECT_EQ(a.statistic_valid, e.statistic_valid);
        }
        EXPECT_EQ(batched.stats().samples, sequential.stats().samples);
        EXPECT_EQ(batched.stats().drifts, sequential.stats().drifts);
        EXPECT_EQ(batched.stats().recoveries, sequential.stats().recoveries);
        EXPECT_EQ(batched.stats().recovery_samples,
                  sequential.stats().recovery_samples);
      }
    }
  }
}

// Every recovery policy must run to completion for every detector kind and
// leave the pipeline streaming again: a reconstruction finishes, and
// detect-only records its detections without ever starting one.
TEST_P(DetectorKindTest, RecoveryPoliciesCompleteAndResumeStreaming) {
  for (const RecoveryPolicy policy :
       {RecoveryPolicy::kReconstruct, RecoveryPolicy::kDetectOnly}) {
    SCOPED_TRACE(static_cast<int>(policy));
    Rng rng(3);
    auto scenario = make_scenario(rng);
    PipelineConfig config = make_config(GetParam());
    config.recovery = policy;
    Pipeline pipeline(config);
    pipeline.fit(scenario.train.x, scenario.train.labels);

    for (std::size_t i = 0; i < scenario.test.size(); ++i) {
      pipeline.process(scenario.test.x.row(i), scenario.test.labels[i]);
    }
    EXPECT_GE(pipeline.stats().drifts, 1u);
    if (policy == RecoveryPolicy::kDetectOnly) {
      EXPECT_EQ(pipeline.stats().recoveries, 0u);
      EXPECT_EQ(pipeline.stats().recovery_samples, 0u);
      EXPECT_FALSE(pipeline.recovering());
      continue;
    }
    EXPECT_GE(pipeline.stats().recoveries, 1u);
    EXPECT_GT(pipeline.stats().recovery_samples, 0u);
    // A late re-detection may leave one more recovery in flight at stream
    // end; only then may recovering() still be true.
    if (pipeline.recovering()) {
      EXPECT_GT(pipeline.stats().drifts, pipeline.stats().recoveries);
    }
  }
}

}  // namespace
