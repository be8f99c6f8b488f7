// Tests for the multi-instance discriminative model (paper Section 3.1):
// per-label OS-ELM autoencoders with argmin-score prediction.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "edgedrift/model/multi_instance.hpp"
#include "edgedrift/util/rng.hpp"
#include "oracle/reference_instance.hpp"

namespace {

using edgedrift::linalg::ConstMatrixView;
using edgedrift::linalg::Matrix;
using edgedrift::model::BatchWorkspace;
using edgedrift::model::MultiInstanceModel;
using edgedrift::model::Prediction;
using edgedrift::oracle::reference_instance;
using edgedrift::oselm::Activation;
using edgedrift::oselm::make_projection;
using edgedrift::util::Rng;

// Two Gaussian classes in 6-D around distinct anchors.
struct TwoClassData {
  Matrix x;
  std::vector<int> labels;
};

TwoClassData make_two_class(Rng& rng, std::size_t per_class,
                            double separation = 2.0, double noise = 0.15) {
  TwoClassData data;
  data.x.resize_zero(2 * per_class, 6);
  data.labels.resize(2 * per_class);
  for (std::size_t i = 0; i < 2 * per_class; ++i) {
    const int label = i < per_class ? 0 : 1;
    data.labels[i] = label;
    for (std::size_t j = 0; j < 6; ++j) {
      const double center =
          label == 0 ? 0.3 : 0.3 + separation * (j % 2 == 0 ? 0.3 : -0.2);
      data.x(i, j) = rng.gaussian(center, noise);
    }
  }
  return data;
}

MultiInstanceModel make_model(Rng& rng, std::size_t num_labels = 2,
                              double forgetting = 1.0) {
  auto proj = make_projection(6, 14, Activation::kSigmoid, rng);
  return MultiInstanceModel(num_labels, proj, 1e-2, forgetting);
}

/// Every instance's score of x through the model's scoring core.
std::vector<double> scores_of(const MultiInstanceModel& model,
                              std::span<const double> x, BatchWorkspace& ws) {
  model.score_batch(ConstMatrixView(x), ws);
  const auto row = ws.scores.row(0);
  return {row.begin(), row.end()};
}

TEST(MultiInstanceModel, PredictsTrainingLabels) {
  Rng rng(1);
  auto data = make_two_class(rng, 150);
  auto model = make_model(rng);
  model.init_train(data.x, data.labels);

  BatchWorkspace ws;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < data.x.rows(); ++i) {
    const Prediction pred = model.predict(data.x.row(i), ws);
    if (static_cast<int>(pred.label) == data.labels[i]) ++hits;
  }
  EXPECT_GT(static_cast<double>(hits) / data.x.rows(), 0.95);
}

TEST(MultiInstanceModel, GeneralizesToHeldOutSamples) {
  Rng rng(2);
  auto train = make_two_class(rng, 150);
  auto test = make_two_class(rng, 50);
  auto model = make_model(rng);
  model.init_train(train.x, train.labels);

  BatchWorkspace ws;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < test.x.rows(); ++i) {
    if (static_cast<int>(model.predict(test.x.row(i), ws).label) ==
        test.labels[i]) {
      ++hits;
    }
  }
  EXPECT_GT(static_cast<double>(hits) / test.x.rows(), 0.9);
}

TEST(MultiInstanceModel, ScoreOfMatchesScoresVector) {
  Rng rng(3);
  auto data = make_two_class(rng, 60);
  auto model = make_model(rng);
  model.init_train(data.x, data.labels);

  BatchWorkspace ws;
  const std::vector<double> scores = scores_of(model, data.x.row(0), ws);
  EXPECT_DOUBLE_EQ(scores[0],
                   reference_instance(model, 0).score(data.x.row(0)));
  EXPECT_DOUBLE_EQ(scores[1],
                   reference_instance(model, 1).score(data.x.row(0)));
}

TEST(MultiInstanceModel, PredictionScoreIsMinimum) {
  Rng rng(4);
  auto data = make_two_class(rng, 60);
  auto model = make_model(rng);
  model.init_train(data.x, data.labels);

  BatchWorkspace ws;
  const Prediction pred = model.predict(data.x.row(5), ws);
  const std::vector<double> scores = scores_of(model, data.x.row(5), ws);
  EXPECT_DOUBLE_EQ(pred.score, std::min(scores[0], scores[1]));
}

TEST(MultiInstanceModel, TrainClosestUpdatesWinningInstance) {
  Rng rng(5);
  auto data = make_two_class(rng, 80);
  auto model = make_model(rng);
  model.init_train(data.x, data.labels);

  const auto seen_before_0 = model.samples_seen(0);
  const auto seen_before_1 = model.samples_seen(1);
  BatchWorkspace ws;
  const Prediction pred = model.train_closest(data.x.row(0), ws);
  if (pred.label == 0) {
    EXPECT_EQ(model.samples_seen(0), seen_before_0 + 1);
    EXPECT_EQ(model.samples_seen(1), seen_before_1);
  } else {
    EXPECT_EQ(model.samples_seen(1), seen_before_1 + 1);
  }
}

TEST(MultiInstanceModel, TrainLabelTargetsSpecificInstance) {
  Rng rng(6);
  auto model = make_model(rng);
  model.init_sequential();
  std::vector<double> x{0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  BatchWorkspace ws;
  model.train_label(model.project(x, ws), x, 1);
  EXPECT_EQ(model.samples_seen(0), 0u);
  EXPECT_EQ(model.samples_seen(1), 1u);
}

TEST(MultiInstanceModel, InitSequentialGivesUniformScores) {
  Rng rng(7);
  auto model = make_model(rng);
  model.init_sequential();
  // Zero beta everywhere: both instances give identical MSE = mean(x^2).
  std::vector<double> x{0.5, 0.5, 0.5, 0.5, 0.5, 0.5};
  BatchWorkspace ws;
  const std::vector<double> scores = scores_of(model, x, ws);
  EXPECT_DOUBLE_EQ(scores[0], scores[1]);
  EXPECT_DOUBLE_EQ(scores[0], 0.25);
}

TEST(MultiInstanceModel, ResetRestoresSequentialPrior) {
  Rng rng(8);
  auto data = make_two_class(rng, 60);
  auto model = make_model(rng);
  model.init_train(data.x, data.labels);
  model.reset();
  EXPECT_EQ(model.samples_seen(0), 0u);
  EXPECT_EQ(model.samples_seen(1), 0u);
}

TEST(MultiInstanceModel, PermutationSwapsInstances) {
  Rng rng(9);
  auto data = make_two_class(rng, 100);
  auto model = make_model(rng);
  model.init_train(data.x, data.labels);

  BatchWorkspace ws;
  const Prediction before = model.predict(data.x.row(0), ws);
  const std::vector<std::size_t> perm{1, 0};
  model.apply_permutation(perm);
  const Prediction after = model.predict(data.x.row(0), ws);
  EXPECT_EQ(after.label, 1 - before.label);
  EXPECT_DOUBLE_EQ(after.score, before.score);
}

TEST(MultiInstanceModel, SharedProjectionCountedOnceInMemory) {
  Rng rng(10);
  auto proj = make_projection(6, 14, Activation::kSigmoid, rng);
  MultiInstanceModel two(2, proj, 1e-2);
  MultiInstanceModel four(4, proj, 1e-2);
  const std::size_t proj_bytes = proj->memory_bytes();
  const std::size_t per_instance =
      (two.memory_bytes() - proj_bytes) / 2;
  // Four instances ~ projection + 4x instance state (scratch differs by a
  // few vector capacities; allow 2 kB slack).
  EXPECT_NEAR(static_cast<double>(four.memory_bytes()),
              static_cast<double>(proj_bytes + 4 * per_instance), 2048.0);
}

TEST(MultiInstanceModel, SingleLabelModelWorks) {
  Rng rng(11);
  auto proj = make_projection(6, 10, Activation::kSigmoid, rng);
  MultiInstanceModel model(1, proj, 1e-2);
  Matrix x(40, 6);
  std::vector<int> labels(40, 0);
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 6; ++j) x(i, j) = rng.uniform(0.0, 1.0);
  }
  model.init_train(x, labels);
  BatchWorkspace ws;
  const Prediction pred = model.predict(x.row(0), ws);
  EXPECT_EQ(pred.label, 0u);
  EXPECT_GE(pred.score, 0.0);
}

}  // namespace
