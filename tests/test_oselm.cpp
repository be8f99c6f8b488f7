// Tests for the OS-ELM substrate. The load-bearing property is the OS-ELM
// theorem: sequential (rank-1 or block) updates after a batch init must
// reproduce the batch solution trained on all data at once.
#include <gtest/gtest.h>

#include <cmath>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/oselm/activation.hpp"
#include "edgedrift/oselm/projection.hpp"
#include "edgedrift/util/rng.hpp"
#include "oracle/autoencoder.hpp"
#include "oracle/oselm.hpp"

namespace {

using edgedrift::linalg::Matrix;
using edgedrift::oselm::Activation;
using edgedrift::oselm::Autoencoder;
using edgedrift::oselm::make_projection;
using edgedrift::oselm::OsElm;
using edgedrift::oselm::OsElmConfig;
using edgedrift::util::Rng;

OsElmConfig small_config(std::size_t out) {
  OsElmConfig config;
  config.output_dim = out;
  config.reg_lambda = 1e-2;
  return config;
}

TEST(Activation, SigmoidBounds) {
  std::vector<double> v{-100.0, 0.0, 100.0};
  edgedrift::oselm::apply_activation(Activation::kSigmoid, v);
  EXPECT_NEAR(v[0], 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(v[1], 0.5);
  EXPECT_NEAR(v[2], 1.0, 1e-12);
}

TEST(Activation, ReluClampsNegatives) {
  std::vector<double> v{-2.0, 0.0, 3.0};
  edgedrift::oselm::apply_activation(Activation::kRelu, v);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(Activation, IdentityLeavesValues) {
  std::vector<double> v{-2.0, 3.0};
  edgedrift::oselm::apply_activation(Activation::kIdentity, v);
  EXPECT_DOUBLE_EQ(v[0], -2.0);
  EXPECT_DOUBLE_EQ(v[1], 3.0);
}

TEST(Activation, Names) {
  EXPECT_EQ(edgedrift::oselm::activation_name(Activation::kSigmoid),
            "sigmoid");
  EXPECT_EQ(edgedrift::oselm::activation_name(Activation::kTanh), "tanh");
}

TEST(Projection, HiddenBatchMatchesPerSample) {
  Rng rng(1);
  auto proj = make_projection(6, 10, Activation::kSigmoid, rng);
  const Matrix x = Matrix::random_gaussian(7, 6, rng);
  const Matrix h = proj->hidden_batch(x);
  std::vector<double> hi(10);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    proj->hidden(x.row(r), hi);
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_NEAR(h(r, j), hi[j], 1e-12);
    }
  }
}

TEST(Projection, SharedAcrossInstances) {
  Rng rng(2);
  auto proj = make_projection(4, 8, Activation::kTanh, rng);
  OsElm a(proj, small_config(2));
  OsElm b(proj, small_config(2));
  EXPECT_EQ(a.projection().get(), b.projection().get());
}

TEST(Projection, MemoryBytesCountsWeights) {
  Rng rng(3);
  auto proj = make_projection(10, 20, Activation::kSigmoid, rng);
  EXPECT_GE(proj->memory_bytes(), (10 * 20 + 20) * sizeof(double));
}

// The OS-ELM equivalence theorem: batch-init on X1 followed by sequential
// training on X2 equals batch training on [X1; X2].
TEST(OsElm, SequentialEqualsBatchTraining) {
  Rng rng(4);
  auto proj = make_projection(5, 12, Activation::kSigmoid, rng);
  const Matrix x = Matrix::random_gaussian(60, 5, rng);
  const Matrix w_true = Matrix::random_gaussian(5, 3, rng);
  const Matrix t = edgedrift::linalg::matmul(x, w_true);

  OsElm sequential(proj, small_config(3));
  sequential.init_train(x.slice_rows(0, 40), t.slice_rows(0, 40));
  for (std::size_t i = 40; i < 60; ++i) {
    sequential.train(x.row(i), t.row(i));
  }

  OsElm batch(proj, small_config(3));
  batch.init_train(x, t);

  EXPECT_LT(Matrix::max_abs_diff(sequential.beta(), batch.beta()), 1e-7);
  EXPECT_LT(Matrix::max_abs_diff(sequential.p(), batch.p()), 1e-7);
  EXPECT_EQ(sequential.samples_seen(), batch.samples_seen());
}

TEST(OsElm, PureSequentialLearnsLinearMap) {
  // Start from the data-free prior and learn y = W x with identity
  // activation (ELM degenerates to recursive ridge regression).
  Rng rng(6);
  auto proj = make_projection(3, 16, Activation::kIdentity, rng);
  OsElm net(proj, small_config(2));
  net.init_sequential();

  const Matrix w_true = Matrix::random_gaussian(3, 2, rng);
  std::vector<double> x(3), t(2), y(2);
  for (int i = 0; i < 800; ++i) {
    for (auto& v : x) v = rng.gaussian();
    edgedrift::linalg::matvec_transposed(w_true, x, t);
    net.train(x, t);
  }
  // Held-out error must be tiny.
  double worst = 0.0;
  for (int i = 0; i < 50; ++i) {
    for (auto& v : x) v = rng.gaussian();
    edgedrift::linalg::matvec_transposed(w_true, x, t);
    net.predict(x, y);
    for (int j = 0; j < 2; ++j) worst = std::max(worst, std::abs(y[j] - t[j]));
  }
  EXPECT_LT(worst, 1e-3);
}

TEST(OsElm, InitSequentialStartsFromPrior) {
  Rng rng(7);
  auto proj = make_projection(3, 6, Activation::kSigmoid, rng);
  OsElm net(proj, small_config(2));
  net.init_sequential();
  EXPECT_TRUE(net.initialized());
  EXPECT_EQ(net.samples_seen(), 0u);
  EXPECT_DOUBLE_EQ(net.p()(0, 0), 1.0 / 1e-2);
  EXPECT_DOUBLE_EQ(net.p()(0, 1), 0.0);
  std::vector<double> y(2);
  net.predict(std::vector<double>{1.0, 2.0, 3.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
}

TEST(OsElm, ResetClearsTrainingState) {
  Rng rng(8);
  auto proj = make_projection(3, 6, Activation::kSigmoid, rng);
  OsElm net(proj, small_config(1));
  const Matrix x = Matrix::random_gaussian(20, 3, rng);
  const Matrix t = Matrix::random_gaussian(20, 1, rng);
  net.init_train(x, t);
  EXPECT_EQ(net.samples_seen(), 20u);
  net.reset();
  EXPECT_EQ(net.samples_seen(), 0u);
  std::vector<double> y(1);
  net.predict(x.row(0), y);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
}

TEST(OsElm, PredictBatchMatchesPerSample) {
  Rng rng(9);
  auto proj = make_projection(4, 8, Activation::kSigmoid, rng);
  OsElm net(proj, small_config(2));
  const Matrix x = Matrix::random_gaussian(30, 4, rng);
  const Matrix t = Matrix::random_gaussian(30, 2, rng);
  net.init_train(x, t);

  const Matrix batch_pred = net.predict_batch(x);
  std::vector<double> y(2);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    net.predict(x.row(r), y);
    EXPECT_NEAR(batch_pred(r, 0), y[0], 1e-12);
    EXPECT_NEAR(batch_pred(r, 1), y[1], 1e-12);
  }
}

TEST(OsElm, ForgettingFactorTracksChangedTarget) {
  // A forgetting net must adapt to a flipped target faster than a
  // non-forgetting one after many samples of the first concept.
  Rng rng(10);
  auto proj = make_projection(2, 10, Activation::kIdentity, rng);
  OsElmConfig forget_config = small_config(1);
  forget_config.forgetting_factor = 0.95;
  OsElm forgetting(proj, forget_config);
  OsElm standard(proj, small_config(1));
  forgetting.init_sequential();
  standard.init_sequential();

  std::vector<double> x(2), t(1), y(1);
  // Concept A: y = x0 + x1, 500 samples.
  for (int i = 0; i < 500; ++i) {
    for (auto& v : x) v = rng.gaussian();
    t[0] = x[0] + x[1];
    forgetting.train(x, t);
    standard.train(x, t);
  }
  // Concept B: y = -(x0 + x1), 60 samples only.
  for (int i = 0; i < 60; ++i) {
    for (auto& v : x) v = rng.gaussian();
    t[0] = -(x[0] + x[1]);
    forgetting.train(x, t);
    standard.train(x, t);
  }
  double err_forget = 0.0, err_std = 0.0;
  for (int i = 0; i < 100; ++i) {
    for (auto& v : x) v = rng.gaussian();
    const double target = -(x[0] + x[1]);
    forgetting.predict(x, y);
    err_forget += std::abs(y[0] - target);
    standard.predict(x, y);
    err_std += std::abs(y[0] - target);
  }
  EXPECT_LT(err_forget, err_std * 0.5);
}

TEST(OsElm, MemoryBytesScalesWithHiddenDim) {
  Rng rng(11);
  auto small = make_projection(4, 8, Activation::kSigmoid, rng);
  auto large = make_projection(4, 32, Activation::kSigmoid, rng);
  OsElm a(small, small_config(4));
  OsElm b(large, small_config(4));
  EXPECT_LT(a.memory_bytes(), b.memory_bytes());
  EXPECT_GT(a.memory_bytes(true), a.memory_bytes(false));
}

TEST(Autoencoder, ReconstructsTrainingManifold) {
  // Train on points near a 1-D segment embedded in 5-D; scores on-manifold
  // must be far below scores off-manifold.
  Rng rng(12);
  auto proj = make_projection(5, 10, Activation::kSigmoid, rng);
  Autoencoder ae(proj, 1e-3);

  Matrix train(300, 5);
  for (std::size_t i = 0; i < train.rows(); ++i) {
    const double s = rng.uniform(-1.0, 1.0);
    for (std::size_t j = 0; j < 5; ++j) {
      train(i, j) = s * (j % 2 == 0 ? 1.0 : -0.5) + rng.gaussian(0.0, 0.02);
    }
  }
  ae.init_train(train);

  double on_manifold = 0.0;
  for (int i = 0; i < 50; ++i) {
    std::vector<double> x(5);
    const double s = rng.uniform(-1.0, 1.0);
    for (std::size_t j = 0; j < 5; ++j) {
      x[j] = s * (j % 2 == 0 ? 1.0 : -0.5) + rng.gaussian(0.0, 0.02);
    }
    on_manifold += ae.score(x);
  }
  double off_manifold = 0.0;
  for (int i = 0; i < 50; ++i) {
    std::vector<double> x(5);
    for (auto& v : x) v = rng.uniform(2.0, 3.0);
    off_manifold += ae.score(x);
  }
  EXPECT_LT(on_manifold * 10.0, off_manifold);
}

TEST(Autoencoder, SequentialTrainingReducesScore) {
  Rng rng(13);
  auto proj = make_projection(4, 12, Activation::kSigmoid, rng);
  Autoencoder ae(proj, 1e-2);
  ae.init_sequential();

  std::vector<double> x{0.4, -0.2, 0.7, 0.1};
  const double before = ae.score(x);
  for (int i = 0; i < 50; ++i) ae.train(x);
  const double after = ae.score(x);
  EXPECT_LT(after, before * 0.01);
}

TEST(Autoencoder, ScoreIsMeanSquaredError) {
  Rng rng(14);
  auto proj = make_projection(3, 6, Activation::kSigmoid, rng);
  Autoencoder ae(proj, 1e-2);
  ae.init_sequential();  // beta = 0 -> reconstruction = 0.
  std::vector<double> x{1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(ae.score(x), (1.0 + 4.0 + 4.0) / 3.0);
}

TEST(Autoencoder, ReconstructWritesOutput) {
  Rng rng(15);
  auto proj = make_projection(3, 6, Activation::kSigmoid, rng);
  Autoencoder ae(proj, 1e-3);
  Matrix train(50, 3);
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t j = 0; j < 3; ++j) train(i, j) = rng.uniform(0.0, 1.0);
  }
  ae.init_train(train);
  std::vector<double> out(3);
  ae.reconstruct(train.row(0), out);
  // Reconstruction should be near the input for trained data.
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(out[j], train(0, j), 0.5);
  }
}

}  // namespace
