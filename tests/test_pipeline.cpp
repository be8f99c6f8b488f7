// Integration tests of the full proposed system (core::Pipeline):
// fit -> stream -> detect -> reconstruct -> recover.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/core/version.hpp"
#include "edgedrift/data/drift_stream.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/eval/metrics.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::core::Pipeline;
using edgedrift::core::PipelineConfig;
using edgedrift::core::PipelineStep;
using edgedrift::data::Dataset;
using edgedrift::data::GaussianClass;
using edgedrift::data::GaussianConcept;
using edgedrift::util::Rng;

// Two 8-D classes; the post concept shifts both off-manifold and pulls
// class 1 toward class 0's old anchor (the NSL-KDD-like failure mode).
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
  b.mean.assign(8, 0.2 + 0.35);  // Pulled toward old class 0.
  for (std::size_t j = 0; j < 8; j += 2) b.mean[j] += 0.9;
  b.stddev = {0.2};
  return GaussianConcept({a, b});
}

PipelineConfig make_config() {
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
  return config;
}

struct Scenario {
  Dataset train;
  Dataset test;
  std::size_t drift_at;
};

Scenario make_scenario(Rng& rng, std::size_t pre = 1200, std::size_t post = 1600) {
  Scenario s;
  s.train = edgedrift::data::draw(pre_concept(), 600, rng);
  s.test = edgedrift::data::make_sudden_drift(pre_concept(), post_concept(),
                                              pre + post, pre, rng);
  s.drift_at = pre;
  return s;
}

TEST(Pipeline, FitCalibratesThresholds) {
  Rng rng(1);
  auto scenario = make_scenario(rng);
  Pipeline pipeline(make_config());
  pipeline.fit(scenario.train.x, scenario.train.labels);
  EXPECT_TRUE(pipeline.fitted());
  EXPECT_GT(pipeline.theta_error(), 0.0);
  EXPECT_GT(pipeline.centroid_detector()->theta_drift(), 0.0);
}

TEST(Pipeline, AccurateAndQuietBeforeDrift) {
  Rng rng(2);
  auto scenario = make_scenario(rng);
  Pipeline pipeline(make_config());
  pipeline.fit(scenario.train.x, scenario.train.labels);

  std::size_t hits = 0;
  int drifts = 0;
  for (std::size_t i = 0; i < scenario.drift_at; ++i) {
    const PipelineStep step = pipeline.process(scenario.test.x.row(i));
    if (static_cast<int>(step.prediction.label) == scenario.test.labels[i]) {
      ++hits;
    }
    drifts += step.drift_detected ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(hits) / scenario.drift_at, 0.95);
  EXPECT_EQ(drifts, 0);
}

TEST(Pipeline, DetectsDriftAndRecoversAccuracy) {
  Rng rng(3);
  auto scenario = make_scenario(rng);
  Pipeline pipeline(make_config());
  pipeline.fit(scenario.train.x, scenario.train.labels);

  edgedrift::eval::StreamingAccuracy accuracy;
  edgedrift::eval::DetectionLog detections;
  bool saw_reconstruction = false;
  for (std::size_t i = 0; i < scenario.test.size(); ++i) {
    const PipelineStep step = pipeline.process(scenario.test.x.row(i));
    accuracy.record(static_cast<int>(step.prediction.label) ==
                    scenario.test.labels[i]);
    if (step.drift_detected) detections.record(i);
    saw_reconstruction |= step.reconstruction_finished;
  }

  const auto delay = detections.delay(scenario.drift_at);
  ASSERT_TRUE(delay.has_value()) << "drift never detected";
  EXPECT_TRUE(saw_reconstruction);
  EXPECT_EQ(detections.false_alarms(scenario.drift_at), 0u);

  // Accuracy in the final quarter (after reconstruction) must recover to
  // near the pre-drift level.
  const double tail = accuracy.range(scenario.test.size() * 3 / 4,
                                     scenario.test.size());
  EXPECT_GT(tail, 0.85);
}

TEST(Pipeline, BaselineWithoutRetrainingStaysDegraded) {
  // Sanity companion to the recovery test: a static model on the same
  // stream must do much worse after the drift.
  Rng rng(3);  // Same seed: same scenario as the recovery test.
  auto scenario = make_scenario(rng);
  Pipeline pipeline(make_config());
  pipeline.fit(scenario.train.x, scenario.train.labels);

  std::size_t tail_hits = 0;
  const std::size_t tail_start = scenario.test.size() * 3 / 4;
  edgedrift::model::BatchWorkspace ws;
  for (std::size_t i = tail_start; i < scenario.test.size(); ++i) {
    // Query the model directly — no detector, no retraining.
    const auto pred = pipeline.model().predict(scenario.test.x.row(i), ws);
    if (static_cast<int>(pred.label) == scenario.test.labels[i]) ++tail_hits;
  }
  const double tail_accuracy =
      static_cast<double>(tail_hits) /
      static_cast<double>(scenario.test.size() - tail_start);
  EXPECT_LT(tail_accuracy, 0.85);
}

TEST(Pipeline, ObsStageHistogramsCollectBreakdown) {
  if (!edgedrift::obs::kObsCompiled) {
    GTEST_SKIP() << "built with EDGEDRIFT_NO_OBS";
  }
  Rng rng(4);
  auto scenario = make_scenario(rng, 400, 1000);
  Pipeline pipeline(make_config());
  pipeline.fit(scenario.train.x, scenario.train.labels);
  for (std::size_t i = 0; i < scenario.test.size(); ++i) {
    pipeline.process(scenario.test.x.row(i));
  }
  // The obs stage histograms carry the Table 6 breakdown: prediction
  // (score) and distance computation (detect) on the sampled ticks, and
  // every recovery sample (reconstruct) once a drift has fired.
  const edgedrift::obs::StreamSnapshot snap = pipeline.obs().snapshot(0);
  EXPECT_GT(snap.score.count(), 0u);
  EXPECT_GT(snap.detect.count(), 0u);
  ASSERT_GT(pipeline.stats().drifts, 0u) << "the scenario must drift";
  EXPECT_GT(snap.reconstruct.count(), 0u);
}

TEST(Pipeline, MemoryFitsRaspberryPiPicoBudget) {
  // The headline deployment claim: model + detector + reconstruction state
  // for the NSL-KDD configuration (38-22-38, C=2) fits 264 kB.
  PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = 38;
  config.hidden_dim = 22;
  Pipeline pipeline(config);
  EXPECT_LT(pipeline.memory_bytes(), 264u * 1024u);
}

TEST(Pipeline, ReconstructionConsumesConfiguredSamples) {
  Rng rng(5);
  auto scenario = make_scenario(rng);
  auto config = make_config();
  Pipeline pipeline(config);
  pipeline.fit(scenario.train.x, scenario.train.labels);

  std::ptrdiff_t recon_started = -1;
  std::ptrdiff_t recon_finished = -1;
  for (std::size_t i = 0; i < scenario.test.size(); ++i) {
    const PipelineStep step = pipeline.process(scenario.test.x.row(i));
    if (step.drift_detected && recon_started < 0) {
      recon_started = static_cast<std::ptrdiff_t>(i);
    }
    if (step.reconstruction_finished && recon_finished < 0) {
      recon_finished = static_cast<std::ptrdiff_t>(i);
    }
  }
  ASSERT_GE(recon_started, 0);
  ASSERT_GE(recon_finished, 0);
  EXPECT_EQ(recon_finished - recon_started,
            static_cast<std::ptrdiff_t>(config.reconstruction.n_total));
}

// A recovery row is projected once: Algorithm 2's training and the emitted
// prediction read one hidden row. So every row of a reconstruction but the
// finishing one (whose finish permutes the model after its prediction) must
// emit exactly what a fresh predict() of the model taken right after that
// row returns, label and score bits, in every numerics tier.
TEST(Pipeline, RecoveryRowsEmitTheTrainedModelsPrediction) {
  using edgedrift::drift::ReconstructionPhase;
  using edgedrift::linalg::NumericsTier;
  for (const NumericsTier tier : {NumericsTier::kExactF64,
                                  NumericsTier::kFastF32,
                                  NumericsTier::kQuantI8}) {
    SCOPED_TRACE(edgedrift::linalg::tier_name(tier));
    Rng rng(5);
    auto scenario = make_scenario(rng);
    PipelineConfig config = make_config();
    config.numerics = tier;
    Pipeline pipeline(config);
    pipeline.fit(scenario.train.x, scenario.train.labels);

    edgedrift::model::BatchWorkspace ws;
    std::size_t checked = 0;
    std::size_t trained = 0;
    for (std::size_t i = 0; i < scenario.test.size(); ++i) {
      const auto x = scenario.test.x.row(i);
      const PipelineStep step = pipeline.process(x);
      if (!step.reconstructing || step.reconstruction_finished) continue;
      const edgedrift::model::Prediction fresh =
          pipeline.model().predict(x, ws);
      ASSERT_EQ(step.prediction.label, fresh.label) << "row " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(step.prediction.score),
                std::bit_cast<std::uint64_t>(fresh.score))
          << "row " << i;
      ++checked;
      const ReconstructionPhase phase = pipeline.reconstructor().phase();
      trained += phase == ReconstructionPhase::kTrainNearest ||
                 phase == ReconstructionPhase::kTrainPredict;
    }
    // At least one whole reconstruction, training phases included.
    EXPECT_GE(checked, config.reconstruction.n_total - 1);
    EXPECT_GE(trained,
              config.reconstruction.n_total - config.reconstruction.n_update);
  }
}

TEST(Pipeline, VersionConstantsExposed) {
  EXPECT_EQ(edgedrift::kVersionMajor, 1);
  EXPECT_STREQ(edgedrift::kVersionString, "1.0.0");
}

}  // namespace
