// Tests for the MCU deployment profile (mcu::StaticPipeline): compile-time
// memory budget, agreement with the double-precision pipeline, the full
// detect -> reconstruct -> recover loop in float32, and load()'s refusal of
// pipelines it does not run. tests/test_mcu_conformance.cpp compares the
// two copies' decisions row by row.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/data/drift_stream.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/mcu/static_pipeline.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::core::Pipeline;
using edgedrift::core::PipelineConfig;
using edgedrift::util::Rng;

// The paper's two deployment configurations as compile-time facts.
using NslPipeline = edgedrift::mcu::StaticPipeline<38, 22, 2>;
using FanPipeline = edgedrift::mcu::StaticPipeline<511, 22, 1>;

static_assert(NslPipeline::state_bytes() < 264 * 1024,
              "NSL-KDD config must fit the Raspberry Pi Pico SRAM");
static_assert(FanPipeline::state_bytes() < 264 * 1024,
              "cooling-fan config must fit the Raspberry Pi Pico SRAM");

std::vector<float> to_float(std::span<const double> x) {
  std::vector<float> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = static_cast<float>(x[i]);
  }
  return out;
}

TEST(StaticPipeline, StateSizesAreAsExpected) {
  // Dominant terms: alpha (d*h) + per-label beta (h*d) and P (h*h), all
  // float32, plus four C x D centroid sets.
  EXPECT_LT(NslPipeline::state_bytes(), 32u * 1024u);
  EXPECT_GT(FanPipeline::state_bytes(), 90u * 1024u);
  EXPECT_LT(FanPipeline::state_bytes(), 120u * 1024u);
}

class StaticPipelineNsl : public ::testing::Test {
 protected:
  void SetUp() override {
    edgedrift::data::NslKddLikeConfig data_config;
    data_config.train_size = 800;
    data_config.test_size = 4000;
    data_config.drift_point = 1500;
    edgedrift::data::NslKddLike generator(data_config);
    Rng rng(77);
    train_ = generator.training(rng);
    test_ = generator.test_stream(rng);
    drift_at_ = data_config.drift_point;

    PipelineConfig config;
    config.num_labels = 2;
    config.input_dim = 38;
    config.hidden_dim = 22;
    config.window_size = 100;
    config.detector_initial_count = 0;
    config.theta_error_z = 4.0;
    config.reconstruction = {20, 120, 500};
    reference_ = std::make_unique<Pipeline>(config);
    reference_->fit(train_.x, train_.labels);
    ASSERT_TRUE(device_.load(*reference_));
  }

  edgedrift::data::Dataset train_;
  edgedrift::data::Dataset test_;
  std::size_t drift_at_ = 0;
  std::unique_ptr<Pipeline> reference_;
  NslPipeline device_;
};

TEST_F(StaticPipelineNsl, LoadCopiesThresholds) {
  EXPECT_TRUE(device_.loaded());
  EXPECT_NEAR(device_.theta_error(), reference_->theta_error(), 1e-6);
  EXPECT_NEAR(device_.theta_drift(), reference_->centroid_detector()->theta_drift(),
              1e-4);
}

TEST_F(StaticPipelineNsl, PredictionsMatchDoublePipeline) {
  std::size_t disagreements = 0;
  const std::size_t n = 500;
  edgedrift::model::BatchWorkspace ws;
  for (std::size_t i = 0; i < n; ++i) {
    const auto x = test_.x.row(i);
    const auto ref = reference_->model().predict(x, ws);
    float score = 0.0f;
    const std::size_t label = device_.predict(to_float(x), score);
    if (label != ref.label) ++disagreements;
    // Scores agree to float precision.
    EXPECT_NEAR(score, static_cast<float>(ref.score),
                5e-4f * (1.0f + score));
  }
  // float32 rounding may flip ties, but essentially never on separated
  // classes.
  EXPECT_LE(disagreements, n / 100);
}

TEST_F(StaticPipelineNsl, DetectsReconstructsAndRecovers) {
  std::size_t hits_tail = 0, tail = 0;
  std::ptrdiff_t detected_at = -1;
  bool recon_finished = false;
  for (std::size_t i = 0; i < test_.size(); ++i) {
    const auto xf = to_float(test_.x.row(i));
    const auto step = device_.process(xf);
    if (step.drift_detected && detected_at < 0) {
      detected_at = static_cast<std::ptrdiff_t>(i);
    }
    recon_finished |= step.reconstruction_finished;
    if (i >= test_.size() * 3 / 4) {
      ++tail;
      hits_tail +=
          static_cast<int>(step.label) == test_.labels[i] ? 1 : 0;
    }
  }
  ASSERT_GE(detected_at, static_cast<std::ptrdiff_t>(drift_at_));
  EXPECT_TRUE(recon_finished);
  EXPECT_GT(static_cast<double>(hits_tail) / tail, 0.9);
}

// The device projects a reconstruction's sample once too: every row but
// the finishing one emits exactly what its own predict() returns right
// after that row, label and score bits.
TEST_F(StaticPipelineNsl, RecoveryRowsEmitTheTrainedModelsPrediction) {
  std::size_t checked = 0;
  for (std::size_t i = 0; i < test_.size(); ++i) {
    const auto xf = to_float(test_.x.row(i));
    const auto step = device_.process(xf);
    if (!step.reconstructing || step.reconstruction_finished) continue;
    float score = 0.0f;
    const std::size_t label = device_.predict(xf, score);
    ASSERT_EQ(step.label, label) << "row " << i;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(step.score),
              std::bit_cast<std::uint32_t>(score))
        << "row " << i;
    ++checked;
  }
  // At least one whole reconstruction (N = 500).
  EXPECT_GE(checked, 499u);
}

TEST_F(StaticPipelineNsl, QuietBeforeDrift) {
  for (std::size_t i = 0; i < drift_at_; ++i) {
    const auto step = device_.process(to_float(test_.x.row(i)));
    ASSERT_FALSE(step.drift_detected) << "false alarm at " << i;
  }
}

TEST_F(StaticPipelineNsl, TrainLabelReducesScore) {
  std::vector<float> x(38, 0.9f);
  const float before = device_.score_of(x, 0);
  for (int i = 0; i < 30; ++i) device_.train_label(x, 0);
  const float after = device_.score_of(x, 0);
  EXPECT_LT(after, before * 0.2f);
}

TEST(StaticPipelineFan, SingleLabelConfigLoadsAndRuns) {
  // Minimal smoke of the 511-dim single-label config through a fitted
  // double pipeline (kept tiny: the goal is the load/predict path).
  Rng rng(5);
  edgedrift::data::GaussianClass normal;
  normal.mean.assign(511, 0.3);
  normal.stddev = {0.05};
  edgedrift::data::GaussianConcept concept_n({normal});
  const auto train = edgedrift::data::draw(concept_n, 80, rng);

  PipelineConfig config;
  config.num_labels = 1;
  config.input_dim = 511;
  config.hidden_dim = 22;
  config.window_size = 20;
  Pipeline reference(config);
  reference.fit(train.x, train.labels);

  static FanPipeline device;  // ~100 kB: keep off the test thread's stack.
  ASSERT_TRUE(device.load(reference));
  float score = 0.0f;
  const std::size_t label = device.predict(to_float(train.x.row(0)), score);
  EXPECT_EQ(label, 0u);
  EXPECT_LT(score, 0.1f);
}

// load() refuses a pipeline the device would run differently — another
// detector, another recovery policy, another activation — and a refused
// load leaves the device as it was.
using SmallPipeline = edgedrift::mcu::StaticPipeline<8, 6, 2>;

std::unique_ptr<Pipeline> fitted_small(const PipelineConfig& config,
                                       std::uint64_t seed) {
  Rng rng(seed);
  edgedrift::linalg::Matrix x(200, 8);
  std::vector<int> labels(200);
  for (std::size_t i = 0; i < 200; ++i) {
    labels[i] = static_cast<int>(i % 2);
    for (std::size_t j = 0; j < 8; ++j) {
      x(i, j) = rng.gaussian(labels[i] == 0 ? 0.2 : 1.2, 0.2);
    }
  }
  auto pipeline = std::make_unique<Pipeline>(config);
  pipeline->fit(x, labels);
  return pipeline;
}

PipelineConfig small_config() {
  PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = 8;
  config.hidden_dim = 6;
  return config;
}

void expect_refused(const PipelineConfig& config) {
  auto device = std::make_unique<SmallPipeline>();
  EXPECT_FALSE(device->load(*fitted_small(config, 12)));
  EXPECT_FALSE(device->loaded());

  ASSERT_TRUE(device->load(*fitted_small(small_config(), 11)));
  std::vector<float> x(8, 0.7f);
  float score_before = 0.0f;
  const std::size_t label_before = device->predict(x, score_before);
  const float theta_error = device->theta_error();
  const float theta_drift = device->theta_drift();
  EXPECT_FALSE(device->load(*fitted_small(config, 12)));
  EXPECT_TRUE(device->loaded());
  float score_after = 0.0f;
  EXPECT_EQ(device->predict(x, score_after), label_before);
  EXPECT_EQ(score_after, score_before);
  EXPECT_EQ(device->theta_error(), theta_error);
  EXPECT_EQ(device->theta_drift(), theta_drift);
}

TEST(StaticPipeline, LoadRefusesOtherDetectors) {
  using edgedrift::drift::DetectorKind;
  for (const DetectorKind kind :
       {DetectorKind::kMultiWindow, DetectorKind::kDdm,
        DetectorKind::kAdwin}) {
    SCOPED_TRACE(static_cast<int>(kind));
    PipelineConfig config = small_config();
    config.detector.kind = kind;
    expect_refused(config);
  }
}

TEST(StaticPipeline, LoadRefusesOtherRecoveryPolicies) {
  PipelineConfig config = small_config();
  config.recovery = edgedrift::core::RecoveryPolicy::kDetectOnly;
  expect_refused(config);
}

TEST(StaticPipeline, LoadRefusesOtherActivations) {
  using edgedrift::oselm::Activation;
  for (const Activation activation :
       {Activation::kTanh, Activation::kRelu, Activation::kIdentity}) {
    SCOPED_TRACE(static_cast<int>(activation));
    PipelineConfig config = small_config();
    config.activation = activation;
    expect_refused(config);
  }
}

}  // namespace
