// Pins the model's one scoring core to the per-instance reference path, bit
// for bit. The model keeps every instance's beta twice — the per-instance
// matrices (reference) and a packed [L x C*n] column-blocked mirror the
// fused kernels run against — and the whole design rests on the two never
// diverging by even one ulp within a build:
//
//   - score_batch(), 1 row     fused: shared hidden + one packed matvec
//   - score_batch(), >1 rows   fused: one [rows x C*n] GEMM
//   - instance(c).score(x)     reference: per-instance walk (the oracle)
//
// The sweep covers ensemble widths C in {2, 3, 5, 23} and tail-heavy
// dimensions (deliberately not multiples of the GEMM register tile), after
// every mutation path: init_train, init_sequential, N Sherman–Morrison
// training steps, and apply_permutation. It also pins that a row scores
// the same in a block of any size, with or without supplied hidden rows,
// at every numerics tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/linalg/numerics.hpp"
#include "edgedrift/model/multi_instance.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::linalg::ConstMatrixView;
using edgedrift::linalg::Matrix;
using edgedrift::linalg::NumericsTier;
using edgedrift::model::BatchWorkspace;
using edgedrift::model::MultiInstanceModel;
using edgedrift::model::Prediction;
using edgedrift::oselm::Activation;
using edgedrift::oselm::make_projection;
using edgedrift::util::Rng;

struct LabeledData {
  Matrix x;
  std::vector<int> labels;
};

/// `per_class` Gaussian samples around a distinct anchor per label.
LabeledData make_clusters(Rng& rng, std::size_t num_labels,
                          std::size_t per_class, std::size_t dim) {
  LabeledData data;
  data.x.resize_zero(num_labels * per_class, dim);
  data.labels.resize(num_labels * per_class);
  for (std::size_t i = 0; i < data.x.rows(); ++i) {
    const std::size_t label = i % num_labels;
    data.labels[i] = static_cast<int>(label);
    for (std::size_t j = 0; j < dim; ++j) {
      const double center =
          0.2 + 0.7 * static_cast<double>((label + j) % num_labels);
      data.x(i, j) = rng.gaussian(center, 0.2);
    }
  }
  return data;
}

MultiInstanceModel make_model(std::size_t num_labels, std::size_t dim,
                              std::size_t hidden, std::uint64_t seed) {
  Rng rng(seed);
  auto proj = make_projection(dim, hidden, Activation::kSigmoid, rng);
  return MultiInstanceModel(num_labels, proj, 1e-2);
}

/// EXPECT bit-exact agreement of the fused per-row scorer (a 1-row
/// score_batch) and the per-instance path on every row of `probes`.
void expect_fused_matches_reference(const MultiInstanceModel& model,
                                    const Matrix& probes) {
  BatchWorkspace ws;
  for (std::size_t r = 0; r < probes.rows(); ++r) {
    model.score_batch(ConstMatrixView(probes.row(r)), ws);
    for (std::size_t c = 0; c < model.num_labels(); ++c) {
      EXPECT_EQ(ws.scores(0, c), model.instance(c).score(probes.row(r)))
          << "row " << r << " label " << c << " diverged";
    }
  }
}

/// The per-instance reference prediction: argmin over instance(c).score.
Prediction reference_predict(const MultiInstanceModel& model,
                             std::span<const double> x) {
  Prediction best{0, model.instance(0).score(x)};
  for (std::size_t c = 1; c < model.num_labels(); ++c) {
    const double s = model.instance(c).score(x);
    if (s < best.score) best = {c, s};
  }
  return best;
}

/// EXPECT the packed mirror to hold exactly the per-instance betas.
void expect_packed_mirrors_instances(const MultiInstanceModel& model) {
  const Matrix& packed = model.packed_beta();
  const std::size_t n = model.input_dim();
  ASSERT_EQ(packed.rows(), model.hidden_dim());
  ASSERT_EQ(packed.cols(), model.num_labels() * n);
  for (std::size_t c = 0; c < model.num_labels(); ++c) {
    const Matrix& beta = model.instance(c).net().beta();
    for (std::size_t i = 0; i < packed.rows(); ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(packed(i, c * n + j), beta(i, j))
            << "block " << c << " element (" << i << ", " << j << ")";
      }
    }
  }
}

// Tail-heavy geometry: 37 and 23 are coprime to every SIMD tile width, so
// both the packed-panel and the scalar-tail GEMM paths are exercised.
constexpr std::size_t kDim = 37;
constexpr std::size_t kHidden = 23;

class FusedScoringSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FusedScoringSweep, BitIdenticalAfterInitTrain) {
  const std::size_t num_labels = GetParam();
  Rng rng(17);
  auto data = make_clusters(rng, num_labels, 40, kDim);
  auto model = make_model(num_labels, kDim, kHidden, 101);
  model.init_train(data.x, data.labels);

  auto probes = make_clusters(rng, num_labels, 6, kDim);
  expect_fused_matches_reference(model, probes.x);
  expect_packed_mirrors_instances(model);
}

TEST_P(FusedScoringSweep, BitIdenticalAfterSequentialUpdates) {
  const std::size_t num_labels = GetParam();
  Rng rng(19);
  auto model = make_model(num_labels, kDim, kHidden, 103);
  model.init_sequential();
  expect_packed_mirrors_instances(model);

  // N Sherman–Morrison steps through both fused (train_closest) and
  // explicit-label training.
  auto stream = make_clusters(rng, num_labels, 30, kDim);
  BatchWorkspace ws;
  for (std::size_t i = 0; i < stream.x.rows(); ++i) {
    if (i % 3 == 0) {
      model.train_label(model.project(stream.x.row(i), ws), stream.x.row(i),
                        static_cast<std::size_t>(stream.labels[i]));
    } else {
      model.train_closest(stream.x.row(i), ws);
    }
  }

  auto probes = make_clusters(rng, num_labels, 6, kDim);
  expect_fused_matches_reference(model, probes.x);
  expect_packed_mirrors_instances(model);
}

TEST_P(FusedScoringSweep, BitIdenticalAfterPermutation) {
  const std::size_t num_labels = GetParam();
  Rng rng(23);
  auto data = make_clusters(rng, num_labels, 40, kDim);
  auto model = make_model(num_labels, kDim, kHidden, 107);
  model.init_train(data.x, data.labels);

  // Rotate the instances by one position.
  std::vector<std::size_t> perm(num_labels);
  std::iota(perm.begin(), perm.end(), 0);
  std::rotate(perm.begin(), perm.begin() + 1, perm.end());
  model.apply_permutation(perm);

  auto probes = make_clusters(rng, num_labels, 6, kDim);
  expect_fused_matches_reference(model, probes.x);
  expect_packed_mirrors_instances(model);
}

// A row scores the same wherever it is scored: in a block of 1, 2, 9 or
// 150 rows, projected by the core or supplied as hidden rows, at every
// tier — and at f64 that is the per-instance oracle's score. The f64 and
// f32 kernels agree element by element, so 2,000 probes cover them; the i8
// leg takes 20,000, enough to meet rows whose f64 hidden activations sit so
// close to a code boundary that quantizing their f32 narrowing instead
// would flip a code.
TEST_P(FusedScoringSweep, BatchScoresBitIdenticalToScalar) {
  const std::size_t num_labels = GetParam();
  Rng rng(7);
  auto data = make_clusters(rng, num_labels, 40, kDim);
  auto model = make_model(num_labels, kDim, kHidden, 131);
  model.init_train(data.x, data.labels);
  const Matrix all_probes =
      make_clusters(rng, num_labels, 20000 / num_labels + 1, kDim).x;
  Matrix all_hidden;
  model.projection()->hidden_batch_into(all_probes, all_hidden);

  for (const NumericsTier tier : {NumericsTier::kExactF64,
                                  NumericsTier::kFastF32,
                                  NumericsTier::kQuantI8}) {
    SCOPED_TRACE(std::string("tier ") + edgedrift::linalg::tier_name(tier));
    model.set_numerics_tier(tier);
    const std::size_t n =
        tier == NumericsTier::kQuantI8 ? all_probes.rows() : 2000;
    const ConstMatrixView probes{all_probes, 0, n};
    const ConstMatrixView hidden{all_hidden, 0, n};
    BatchWorkspace ws;
    // Every row scored alone: the per-row kernel.
    Matrix alone(n, num_labels);
    for (std::size_t r = 0; r < n; ++r) {
      model.score_batch(ConstMatrixView(probes.row(r)), ws);
      alone.set_row(r, ws.scores.row(0));
    }
    if (tier == NumericsTier::kExactF64) {
      std::size_t oracle_mismatches = 0;
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < num_labels; ++c) {
          oracle_mismatches +=
              alone(r, c) != model.instance(c).score(probes.row(r));
        }
      }
      EXPECT_EQ(oracle_mismatches, 0u) << "f64 scores left the oracle";
    }
    for (const std::size_t block : {1u, 2u, 9u, 150u}) {
      for (const bool supply_hidden : {false, true}) {
        std::size_t mismatches = 0;
        for (std::size_t start = 0; start < n; start += block) {
          const std::size_t end = std::min(n, start + block);
          const ConstMatrixView h{hidden, start, end};
          model.score_batch({probes, start, end}, ws,
                            supply_hidden ? &h : nullptr);
          for (std::size_t r = start; r < end; ++r) {
            for (std::size_t c = 0; c < num_labels; ++c) {
              mismatches += ws.scores(r - start, c) != alone(r, c);
            }
          }
        }
        EXPECT_EQ(mismatches, 0u)
            << "block " << block << (supply_hidden ? ", hidden supplied" : "");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EnsembleWidths, FusedScoringSweep,
                         ::testing::Values<std::size_t>(2, 3, 5, 23));

// The fused predict-then-train step must walk the exact same trajectory as
// the reference path (per-instance predict, then train the winner): same
// predictions, same betas, for the whole stream.
TEST(FusedScoring, TrainClosestMatchesReferenceTrajectory) {
  constexpr std::size_t kLabels = 5;
  Rng rng(31);
  auto fused_model = make_model(kLabels, kDim, kHidden, 113);
  auto reference_model = make_model(kLabels, kDim, kHidden, 113);
  auto data = make_clusters(rng, kLabels, 40, kDim);
  fused_model.init_train(data.x, data.labels);
  reference_model.init_train(data.x, data.labels);

  auto stream = make_clusters(rng, kLabels, 25, kDim);
  BatchWorkspace ws;
  for (std::size_t i = 0; i < stream.x.rows(); ++i) {
    const Prediction fused = fused_model.train_closest(stream.x.row(i), ws);
    // Reference: per-instance scoring, then the winner's own OS-ELM step
    // (recomputes the hidden projection instead of sharing it).
    const Prediction ref = reference_predict(reference_model, stream.x.row(i));
    reference_model.instance_mutable(ref.label).train(stream.x.row(i));
    reference_model.repack_ensemble();
    ASSERT_EQ(fused.label, ref.label) << "step " << i;
    ASSERT_EQ(fused.score, ref.score) << "step " << i;
  }
  for (std::size_t c = 0; c < kLabels; ++c) {
    EXPECT_EQ(Matrix::max_abs_diff(fused_model.instance(c).net().beta(),
                                   reference_model.instance(c).net().beta()),
              0.0)
        << "instance " << c << " beta diverged";
  }
}

// Reset must clear the packed mirror along with the instances.
TEST(FusedScoring, ResetKeepsMirrorInSync) {
  constexpr std::size_t kLabels = 3;
  Rng rng(37);
  auto data = make_clusters(rng, kLabels, 40, kDim);
  auto model = make_model(kLabels, kDim, kHidden, 127);
  model.init_train(data.x, data.labels);
  model.reset();
  expect_packed_mirrors_instances(model);

  auto stream = make_clusters(rng, kLabels, 10, kDim);
  BatchWorkspace ws;
  for (std::size_t i = 0; i < stream.x.rows(); ++i) {
    model.train_closest(stream.x.row(i), ws);
  }
  expect_fused_matches_reference(model, stream.x);
  expect_packed_mirrors_instances(model);
}

}  // namespace
