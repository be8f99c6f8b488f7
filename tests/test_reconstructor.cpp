// Tests for the streaming model reconstruction (Algorithms 2-4).
#include <gtest/gtest.h>

#include "edgedrift/drift/reconstructor.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::drift::Reconstructor;
using edgedrift::drift::ReconstructorConfig;
using edgedrift::drift::ReconstructionPhase;
using edgedrift::linalg::Matrix;
using edgedrift::model::BatchWorkspace;
using edgedrift::model::MultiInstanceModel;
using edgedrift::oselm::Activation;
using edgedrift::oselm::make_projection;
using edgedrift::util::Rng;

ReconstructorConfig small_config() {
  ReconstructorConfig config;
  config.n_search = 10;
  config.n_update = 60;
  config.n_total = 200;
  return config;
}

MultiInstanceModel make_model(Rng& rng, std::size_t dim = 4) {
  auto proj = make_projection(dim, 10, Activation::kSigmoid, rng);
  return MultiInstanceModel(2, proj, 1e-2);
}

// Stream alternating between two new-concept clusters at (5,...) and
// (9,...).
std::vector<double> cluster_sample(Rng& rng, int which, std::size_t dim) {
  std::vector<double> x(dim);
  const double anchor = which == 0 ? 5.0 : 9.0;
  for (auto& v : x) v = rng.gaussian(anchor, 0.15);
  return x;
}

// One Algorithm 2 step on x, projected once as core::Pipeline does.
bool step(Reconstructor& recon, MultiInstanceModel& model, BatchWorkspace& ws,
          const std::vector<double>& x) {
  return recon.step(x, model.project(x, ws), model, ws);
}

TEST(Reconstructor, PhaseScheduleFollowsAlgorithmTwo) {
  Rng rng(1);
  auto model = make_model(rng);
  Reconstructor recon(small_config(), 2, 4);
  BatchWorkspace ws;
  recon.begin(model, Matrix(2, 4));

  // Counts after increment: 1..9 -> search, 10..59 -> update,
  // 60..99 -> train-nearest, 100..199 -> train-predict, 200 -> done.
  std::vector<ReconstructionPhase> seen;
  for (int i = 1; i < 200; ++i) {
    const bool running = step(recon, model, ws, cluster_sample(rng, i % 2, 4));
    ASSERT_TRUE(running) << "ended early at " << i;
    seen.push_back(recon.phase());
  }
  EXPECT_EQ(seen[0], ReconstructionPhase::kSearchCoords);
  EXPECT_EQ(seen[8], ReconstructionPhase::kSearchCoords);
  EXPECT_EQ(seen[9], ReconstructionPhase::kUpdateCoords);
  EXPECT_EQ(seen[58], ReconstructionPhase::kUpdateCoords);
  EXPECT_EQ(seen[59], ReconstructionPhase::kTrainNearest);
  EXPECT_EQ(seen[98], ReconstructionPhase::kTrainNearest);
  EXPECT_EQ(seen[99], ReconstructionPhase::kTrainPredict);
  EXPECT_EQ(seen[197], ReconstructionPhase::kTrainPredict);

  // The 200th step completes the reconstruction.
  EXPECT_FALSE(step(recon, model, ws, cluster_sample(rng, 0, 4)));
  EXPECT_FALSE(recon.active());
}

TEST(Reconstructor, CoordinatesConvergeToNewClusters) {
  Rng rng(2);
  auto model = make_model(rng);
  Reconstructor recon(small_config(), 2, 4);
  BatchWorkspace ws;
  // Seeds sit between the new clusters, as the recent test centroids would
  // after a detected drift (Algorithm 3 assumes coordinates near the data:
  // it maximizes pairwise spread, so a far-away seed would never be
  // displaced).
  recon.begin(model, Matrix(2, 4, 6.0));

  int i = 0;
  while (step(recon, model, ws, cluster_sample(rng, i++ % 2, 4))) {
  }

  // The two coordinates must sit near (5,..) and (9,..) in some order.
  const auto& coords = recon.coords();
  const double c00 = coords(0, 0);
  const double c10 = coords(1, 0);
  const double lo = std::min(c00, c10);
  const double hi = std::max(c00, c10);
  EXPECT_NEAR(lo, 5.0, 0.5);
  EXPECT_NEAR(hi, 9.0, 0.5);
}

TEST(Reconstructor, ModelLearnsNewConceptDuringReconstruction) {
  Rng rng(3);
  auto model = make_model(rng);
  Reconstructor recon(small_config(), 2, 4);
  BatchWorkspace ws;
  recon.begin(model, Matrix(2, 4, 6.0));

  int i = 0;
  while (step(recon, model, ws, cluster_sample(rng, i++ % 2, 4))) {
  }

  // After reconstruction the model must separate the two new clusters.
  int agree = 0;
  const int trials = 100;
  std::vector<int> label_of_cluster(2, -1);
  // Determine the cluster -> label mapping by majority, then check
  // consistency.
  for (int c = 0; c < 2; ++c) {
    int votes[2] = {0, 0};
    for (int t = 0; t < trials; ++t) {
      const auto pred = model.predict(cluster_sample(rng, c, 4), ws);
      ++votes[pred.label];
    }
    label_of_cluster[c] = votes[1] > votes[0] ? 1 : 0;
    agree += std::max(votes[0], votes[1]);
  }
  // Distinct labels for distinct clusters, high self-consistency.
  EXPECT_NE(label_of_cluster[0], label_of_cluster[1]);
  EXPECT_GT(agree, 2 * trials * 9 / 10);
}

TEST(Reconstructor, SuggestedThetaDriftIsPositive) {
  Rng rng(4);
  auto model = make_model(rng);
  Reconstructor recon(small_config(), 2, 4);
  BatchWorkspace ws;
  recon.begin(model, Matrix(2, 4));
  int i = 0;
  while (step(recon, model, ws, cluster_sample(rng, i++ % 2, 4))) {
  }
  EXPECT_GT(recon.suggested_theta_drift(1.0), 0.0);
  // z = 2 threshold must not be below the z = 1 threshold.
  EXPECT_GE(recon.suggested_theta_drift(2.0),
            recon.suggested_theta_drift(1.0));
}

TEST(Reconstructor, BeginResetsModelAndState) {
  Rng rng(5);
  auto model = make_model(rng);
  Matrix train(40, 4);
  std::vector<int> labels(40);
  for (std::size_t r = 0; r < 40; ++r) {
    labels[r] = static_cast<int>(r % 2);
    for (std::size_t j = 0; j < 4; ++j) {
      train(r, j) = rng.gaussian(labels[r] == 0 ? 0.0 : 3.0, 0.2);
    }
  }
  model.init_train(train, labels);
  EXPECT_GT(model.samples_seen(0), 0u);

  Reconstructor recon(small_config(), 2, 4);
  recon.begin(model, Matrix(2, 4));
  EXPECT_TRUE(recon.active());
  EXPECT_EQ(recon.count(), 0u);
  EXPECT_EQ(model.samples_seen(0), 0u);
  EXPECT_EQ(model.samples_seen(1), 0u);
}

TEST(Reconstructor, SecondReconstructionAfterCompletion) {
  Rng rng(6);
  auto model = make_model(rng);
  Reconstructor recon(small_config(), 2, 4);
  BatchWorkspace ws;

  for (int round = 0; round < 2; ++round) {
    recon.begin(model, recon.coords());
    int i = 0;
    while (step(recon, model, ws, cluster_sample(rng, i++ % 2, 4))) {
    }
    EXPECT_FALSE(recon.active());
  }
}

TEST(Reconstructor, SingleLabelReconstruction) {
  // C = 1 (the cooling-fan configuration): Init_Coord degenerates to a
  // no-op and everything still works.
  Rng rng(7);
  auto proj = make_projection(4, 8, Activation::kSigmoid, rng);
  MultiInstanceModel model(1, proj, 1e-2);
  Reconstructor recon(small_config(), 1, 4);
  BatchWorkspace ws;
  recon.begin(model, Matrix(1, 4));

  int i = 0;
  while (step(recon, model, ws, cluster_sample(rng, 0, 4))) {
    ++i;
  }
  EXPECT_EQ(i + 1, 200);
  EXPECT_NEAR(recon.coords()(0, 0), 5.0, 0.6);
  // The single instance now reconstructs the new concept.
  EXPECT_LT(model.predict(cluster_sample(rng, 0, 4), ws).score, 0.5);
}

TEST(Reconstructor, MemoryIsSmallAndConstant) {
  Rng rng(8);
  auto model = make_model(rng);
  Reconstructor recon(small_config(), 2, 4);
  BatchWorkspace ws;
  recon.begin(model, Matrix(2, 4));
  const std::size_t before = recon.memory_bytes();
  for (int i = 0; i < 50; ++i) {
    step(recon, model, ws, cluster_sample(rng, i % 2, 4));
  }
  EXPECT_EQ(recon.memory_bytes(), before);
  // Two 4-dim coordinates: well under a kilobyte of state.
  EXPECT_LT(before, 1024u);
}

}  // namespace
