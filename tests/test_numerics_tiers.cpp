// The tiered numerics contract (linalg/numerics.hpp): quantization grid
// properties, replica re-quantization discipline under Sherman–Morrison
// training, and the checkpoint's tier field.
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/data/stream.hpp"
#include "edgedrift/eval/paper_configs.hpp"
#include "edgedrift/io/checkpoint.hpp"
#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/linalg/numerics.hpp"
#include "edgedrift/linalg/quant.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/model/multi_instance.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using namespace edgedrift;
using linalg::Matrix;
using linalg::NumericsTier;

TEST(NumericsTiers, TierNamesRoundTrip) {
  EXPECT_STREQ(linalg::tier_name(NumericsTier::kExactF64), "f64");
  EXPECT_STREQ(linalg::tier_name(NumericsTier::kFastF32), "f32");
  EXPECT_STREQ(linalg::tier_name(NumericsTier::kQuantI8), "i8");
  for (const NumericsTier tier :
       {NumericsTier::kExactF64, NumericsTier::kFastF32,
        NumericsTier::kQuantI8}) {
    const auto parsed = linalg::tier_from_name(linalg::tier_name(tier));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, tier);
  }
  EXPECT_FALSE(linalg::tier_from_name("f16").has_value());
  EXPECT_EQ(linalg::tier_element_bytes(NumericsTier::kExactF64), 8u);
  EXPECT_EQ(linalg::tier_element_bytes(NumericsTier::kFastF32), 4u);
  EXPECT_EQ(linalg::tier_element_bytes(NumericsTier::kQuantI8), 1u);
}

TEST(NumericsTiers, QuantizeComputesPerColumnScales) {
  Matrix m(3, 2);
  m(0, 0) = 1.0;  m(0, 1) = -0.5;
  m(1, 0) = -2.0; m(1, 1) = 0.25;
  m(2, 0) = 0.5;  m(2, 1) = 0.125;
  linalg::QuantizedMatrix q;
  linalg::quantize(m, q);
  ASSERT_EQ(q.rows(), 3u);
  ASSERT_EQ(q.cols(), 2u);
  EXPECT_FLOAT_EQ(q.scales[0], 2.0f / 127.0f);
  EXPECT_FLOAT_EQ(q.scales[1], 0.5f / 127.0f);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(q.dequant(r, c), m(r, c), q.scales[c] / 2.0f + 1e-9);
    }
  }
}

TEST(NumericsTiers, QuantizeSaturatesSymmetrically) {
  // The column extremes land exactly on +/-127; -128 is never produced,
  // and an asymmetric column keeps its scale from the larger magnitude.
  Matrix m(2, 2);
  m(0, 0) = 3.0;  m(0, 1) = -5.0;
  m(1, 0) = -3.0; m(1, 1) = 3.0;
  linalg::QuantizedMatrix q;
  linalg::quantize(m, q);
  EXPECT_EQ(q.code(0, 0), 127);
  EXPECT_EQ(q.code(1, 0), -127);
  EXPECT_EQ(q.code(0, 1), -127);
  EXPECT_FLOAT_EQ(q.scales[1], 5.0f / 127.0f);
  for (std::size_t r = 0; r < q.rows(); ++r) {
    for (std::size_t c = 0; c < q.cols(); ++c) {
      EXPECT_GE(q.code(r, c), -127);
      EXPECT_LE(q.code(r, c), 127);
    }
  }
}

TEST(NumericsTiers, ZeroColumnQuantizesToZero) {
  Matrix m(4, 2);
  m.fill(0.0);
  for (std::size_t r = 0; r < 4; ++r) m(r, 1) = 1.0 + static_cast<double>(r);
  linalg::QuantizedMatrix q;
  linalg::quantize(m, q);
  EXPECT_EQ(q.scales[0], 0.0f);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(q.code(r, 0), 0);
    EXPECT_NEAR(q.dequant(r, 1), m(r, 1), q.scales[1] / 2.0f + 1e-9);
  }
}

TEST(NumericsTiers, RandomRoundTripHonorsHalfScaleBound) {
  util::Rng rng(7);
  Matrix m = Matrix::random_gaussian(64, 48, rng, 2.0);
  linalg::QuantizedMatrix q;
  linalg::quantize(m, q);
  for (std::size_t c = 0; c < m.cols(); ++c) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      EXPECT_LE(std::abs(q.dequant(r, c) - m(r, c)),
                q.scales[c] / 2.0f + 1e-6f)
          << "(" << r << ", " << c << ")";
    }
  }
}

TEST(NumericsTiers, QuantizeBlockMatchesFullQuantize) {
  // The packed beta at L = 22, d = 38, C = 23: instance 1 owns columns
  // [38, 76), a block that starts and ends inside a column group, so its
  // refresh shares tiles with instances 0 and 2.
  util::Rng rng(11);
  Matrix m = Matrix::random_uniform(22, 874, rng, -3.0, 3.0);
  linalg::QuantizedMatrix full, blocked;
  linalg::quantize(m, full);
  linalg::quantize(m, blocked);
  // Perturb one column block of the master, refresh only that block.
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 38; c < 76; ++c) m(r, c) *= 1.5;
  }
  linalg::quantize_block(m, blocked, 38, 38);
  linalg::quantize(m, full);
  for (std::size_t c = 0; c < m.cols(); ++c) {
    EXPECT_FLOAT_EQ(blocked.scales[c], full.scales[c]) << "col " << c;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(blocked.code(r, c), full.code(r, c))
          << "(" << r << ", " << c << ")";
    }
  }
}

TEST(NumericsTiers, QuantizeVectorRoundTrip) {
  const std::vector<double> x{0.5, -1.25, 0.0, 2.0, -2.0};
  std::vector<std::int8_t> q(x.size());
  const float scale = linalg::quantize_vector(std::span<const double>(x),
                                              std::span<std::int8_t>(q));
  EXPECT_FLOAT_EQ(scale, 2.0f / 127.0f);
  EXPECT_EQ(q[3], 127);
  EXPECT_EQ(q[4], -127);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(static_cast<float>(q[i]) * scale, x[i], scale / 2.0f + 1e-9);
  }
}

TEST(NumericsTiers, MatrixStorageIsAligned) {
  Matrix a(5, 7);
  linalg::MatrixF32 b(3, 9);
  EXPECT_TRUE(linalg::is_matrix_aligned(a.data()));
  EXPECT_TRUE(linalg::is_matrix_aligned(b.data()));
}

/// A trained two-instance model for the replica-discipline tests.
model::MultiInstanceModel make_model(std::size_t num_labels,
                                     std::size_t dim, std::size_t hidden) {
  util::Rng rng(42);
  auto projection =
      oselm::make_projection(dim, hidden, oselm::Activation::kSigmoid, rng);
  model::MultiInstanceModel model(num_labels, std::move(projection), 1e-2);
  Matrix train(num_labels * 40, dim);
  std::vector<int> labels(train.rows());
  for (std::size_t i = 0; i < train.rows(); ++i) {
    labels[i] = static_cast<int>(i % num_labels);
    for (std::size_t j = 0; j < dim; ++j) {
      train(i, j) = rng.gaussian(0.3 + 0.4 * labels[i], 0.2);
    }
  }
  model.init_train(train, labels);
  return model;
}

TEST(NumericsTiers, EpochAdvancesOnTierEntryAndTraining) {
  model::MultiInstanceModel model = make_model(3, 12, 8);
  EXPECT_EQ(model.numerics_tier(), NumericsTier::kExactF64);
  const std::uint64_t before = model.quantization_epoch();

  model.set_numerics_tier(NumericsTier::kQuantI8);
  // Entering a replica tier refreshes every instance block.
  const std::uint64_t after_entry = model.quantization_epoch();
  EXPECT_GE(after_entry, before + 3);

  model::BatchWorkspace ws;
  util::Rng rng(5);
  std::vector<double> x(12);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  model.train_closest(std::span<const double>(x), ws);
  // Each Sherman–Morrison step mutates one instance's master beta, so its
  // replica block must be re-derived immediately (eager discipline).
  EXPECT_GT(model.quantization_epoch(), after_entry);
}

TEST(NumericsTiers, ReplicaStaysFreshAcrossSmSteps) {
  model::MultiInstanceModel model = make_model(2, 10, 6);
  model.set_numerics_tier(NumericsTier::kQuantI8);
  model::BatchWorkspace ws;
  util::Rng rng(9);
  std::vector<double> x(10);
  std::vector<double> i8_scores(2), f64_scores(2);
  const linalg::ConstMatrixView row{std::span<const double>(x)};
  for (int step = 0; step < 50; ++step) {
    for (auto& v : x) v = rng.uniform(0.0, 1.0);
    model.train_closest(std::span<const double>(x), ws);

    // The i8 scores must track the exact tier through every re-quantized
    // update: same argmin instance and a small relative score error.
    model.score_batch(row, ws);
    linalg::copy(ws.scores.row(0), i8_scores);
    model.set_numerics_tier(NumericsTier::kExactF64);
    model.score_batch(row, ws);
    linalg::copy(ws.scores.row(0), f64_scores);
    model.set_numerics_tier(NumericsTier::kQuantI8);
    for (std::size_t c = 0; c < 2; ++c) {
      const double scale = std::max(std::abs(f64_scores[c]), 1e-6);
      EXPECT_LT(std::abs(i8_scores[c] - f64_scores[c]) / scale, 0.15)
          << "step " << step << " instance " << c;
    }
  }
}

TEST(NumericsTiers, CheckpointRecordsAndEnforcesTier) {
  core::PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = 8;
  config.hidden_dim = 6;
  config.window_size = 20;
  config.numerics = NumericsTier::kFastF32;
  util::Rng rng(3);
  Matrix train(60, 8);
  std::vector<int> labels(train.rows());
  for (std::size_t i = 0; i < train.rows(); ++i) {
    labels[i] = static_cast<int>(i % 2);
    for (std::size_t j = 0; j < 8; ++j) {
      train(i, j) = rng.gaussian(0.3 + 0.4 * labels[i], 0.2);
    }
  }
  core::Pipeline pipeline(config);
  pipeline.fit(train, labels);

  std::stringstream blob;
  ASSERT_TRUE(io::save_pipeline(blob, pipeline));

  // Round trip: the tier is part of the restored config.
  auto restored = io::load_pipeline(blob);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->config().numerics, NumericsTier::kFastF32);
  EXPECT_EQ(restored->model().numerics_tier(), NumericsTier::kFastF32);

  // Matching expectation passes; a mismatched restore site is rejected
  // with a reason.
  blob.clear();
  blob.seekg(0);
  EXPECT_TRUE(
      io::load_pipeline(blob, NumericsTier::kFastF32).has_value());
  blob.clear();
  blob.seekg(0);
  std::string error;
  EXPECT_FALSE(
      io::load_pipeline(blob, NumericsTier::kQuantI8, &error).has_value());
  EXPECT_NE(error.find("tier"), std::string::npos) << error;
}

// The serving layer must not change what a stream decides, at i8 too. On
// a label-rich stream (C = 23, d = 38, the paper's NSL-KDD pipeline,
// detect-only) process_rows() in 16-row blocks steps exactly like
// process(), which scores one row at a time. Seed 6 holds rows whose f64
// hidden activations sit so close to an i8 code boundary that quantizing
// their f32 narrowing instead would flip a code.
TEST(NumericsTiers, I8ProcessRowsBitIdenticalToProcessOnLabelRichStream) {
  constexpr std::uint64_t kSeed = 6;
  constexpr std::size_t kClasses = 23;
  constexpr std::size_t kDim = 38;
  util::Rng geometry(kSeed * 7919);
  std::vector<data::GaussianClass> classes(kClasses);
  for (auto& c : classes) {
    c.mean.resize(kDim);
    for (auto& m : c.mean) m = geometry.uniform(-2.0, 2.0);
    c.stddev = {0.4};
  }
  const data::GaussianConcept mixture(std::move(classes));
  util::Rng fit_rng(kSeed * 31);
  const data::Dataset fit = data::draw(mixture, 4600, fit_rng);
  util::Rng stream_rng(kSeed * 97);
  const data::Dataset stream = data::draw(mixture, 8192, stream_rng);

  core::PipelineConfig config = eval::nsl_kdd_paper_config().pipeline;
  config.input_dim = kDim;
  config.num_labels = kClasses;
  config.detector_initial_count = -1;
  config.recovery = core::RecoveryPolicy::kDetectOnly;
  config.numerics = NumericsTier::kQuantI8;
  config.seed = kSeed;

  core::Pipeline sequential(config);
  sequential.fit(fit.x, fit.labels);
  core::Pipeline blocked(config);
  blocked.fit(fit.x, fit.labels);
  std::vector<core::PipelineStep> steps;
  const std::span<const int> labels(stream.labels);
  for (std::size_t at = 0; at < stream.size(); at += 16) {
    blocked.process_rows({stream.x, at, at + 16}, labels.subspan(at, 16),
                         steps);
  }
  ASSERT_EQ(steps.size(), stream.size());
  std::size_t score_diffs = 0;
  std::size_t label_diffs = 0;
  std::size_t drift_diffs = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const core::PipelineStep want =
        sequential.process(stream.x.row(i), stream.labels[i]);
    score_diffs += steps[i].prediction.score != want.prediction.score;
    label_diffs += steps[i].prediction.label != want.prediction.label;
    drift_diffs += steps[i].drift_detected != want.drift_detected;
  }
  EXPECT_EQ(score_diffs, 0u);
  EXPECT_EQ(label_diffs, 0u);
  EXPECT_EQ(drift_diffs, 0u);
  EXPECT_EQ(blocked.stats().drifts, sequential.stats().drifts);
}

}  // namespace
