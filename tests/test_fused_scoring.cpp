// Pins the model to the per-label reference, bit for bit. The model keeps
// every label's beta once, as a column block of one packed [L x C*n]
// matrix that the fused kernels score against and that OS-ELM's rank-1
// step trains in place; a standalone oselm::Autoencoder per label, trained
// on the same rows, is the oracle:
//
//   - score_batch(), 1 row     fused: shared hidden + one packed matvec
//   - score_batch(), >1 rows   fused: one [rows x C*n] GEMM
//   - Autoencoder::score(x)    reference: per-label walk (the oracle)
//
// The sweep covers ensemble widths C in {2, 3, 5, 23} and tail-heavy
// dimensions (deliberately not multiples of the GEMM register tile), after
// every write path: init_train, init_sequential, N Sherman–Morrison
// training steps, and apply_permutation — each block, P and count must
// equal its standalone autoencoder's. It also pins that a row scores the
// same in a block of any size, with or without supplied hidden rows, at
// every numerics tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/linalg/numerics.hpp"
#include "edgedrift/model/multi_instance.hpp"
#include "edgedrift/util/rng.hpp"
#include "oracle/autoencoder.hpp"
#include "oracle/reference_instance.hpp"

namespace {

using edgedrift::linalg::ConstMatrixView;
using edgedrift::linalg::Matrix;
using edgedrift::linalg::NumericsTier;
using edgedrift::model::BatchWorkspace;
using edgedrift::model::MultiInstanceModel;
using edgedrift::model::Prediction;
using edgedrift::oracle::reference_instance;
using edgedrift::oselm::Activation;
using edgedrift::oselm::Autoencoder;
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

/// One standalone autoencoder per label over the model's projection, each
/// batch-trained on the rows of `data` with its label — what init_train()
/// must give every block.
std::vector<Autoencoder> standalone_trained(const MultiInstanceModel& model,
                                            const LabeledData& data) {
  std::vector<Autoencoder> refs;
  for (std::size_t c = 0; c < model.num_labels(); ++c) {
    std::size_t rows = 0;
    for (const int l : data.labels) rows += static_cast<std::size_t>(l) == c;
    Matrix mine(rows, data.x.cols());
    std::size_t at = 0;
    for (std::size_t r = 0; r < data.x.rows(); ++r) {
      if (static_cast<std::size_t>(data.labels[r]) == c) {
        mine.set_row(at++, data.x.row(r));
      }
    }
    refs.emplace_back(model.projection(), model.config().reg_lambda,
                      model.config().forgetting_factor);
    refs.back().init_train(mine);
  }
  return refs;
}

/// Elements of every label's beta block, P and count that differ from its
/// standalone autoencoder's.
std::size_t state_mismatches(const MultiInstanceModel& model,
                             const std::vector<Autoencoder>& refs) {
  const Matrix& packed = model.packed_beta();
  const std::size_t n = model.input_dim();
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < model.num_labels(); ++c) {
    const Matrix& beta = refs[c].net().beta();
    for (std::size_t i = 0; i < packed.rows(); ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        mismatches += packed(i, c * n + j) != beta(i, j);
      }
    }
    const Matrix& p = model.p(c);
    for (std::size_t i = 0; i < p.size(); ++i) {
      mismatches += p.data()[i] != refs[c].net().p().data()[i];
    }
    mismatches += model.samples_seen(c) != refs[c].samples_seen();
  }
  return mismatches;
}

/// EXPECT bit-exact agreement of the fused per-row scorer (a 1-row
/// score_batch) and the standalone autoencoders on every row of `probes`.
void expect_fused_matches_reference(const MultiInstanceModel& model,
                                    const std::vector<Autoencoder>& refs,
                                    const Matrix& probes) {
  BatchWorkspace ws;
  for (std::size_t r = 0; r < probes.rows(); ++r) {
    model.score_batch(ConstMatrixView(probes.row(r)), ws);
    for (std::size_t c = 0; c < model.num_labels(); ++c) {
      EXPECT_EQ(ws.scores(0, c), refs[c].score(probes.row(r)))
          << "row " << r << " label " << c << " diverged";
    }
  }
}

/// EXPECT the model's state and scores to equal the standalone
/// autoencoders'.
void expect_model_matches(const MultiInstanceModel& model,
                          const std::vector<Autoencoder>& refs,
                          const Matrix& probes) {
  ASSERT_EQ(refs.size(), model.num_labels());
  EXPECT_EQ(state_mismatches(model, refs), 0u);
  expect_fused_matches_reference(model, refs, probes);
}

/// The reference prediction: argmin over the standalone scores.
Prediction reference_predict(const std::vector<Autoencoder>& refs,
                             std::span<const double> x) {
  Prediction best{0, refs[0].score(x)};
  for (std::size_t c = 1; c < refs.size(); ++c) {
    const double s = refs[c].score(x);
    if (s < best.score) best = {c, s};
  }
  return best;
}

/// Reorders `refs` the way apply_permutation(perm) reorders the labels.
std::vector<Autoencoder> permuted(std::vector<Autoencoder> refs,
                                  std::span<const std::size_t> perm) {
  std::vector<Autoencoder> out;
  for (const std::size_t src : perm) out.push_back(refs[src]);
  return out;
}

/// The rotation permutation: position i takes label (i + 1) mod C.
std::vector<std::size_t> rotation(std::size_t num_labels) {
  std::vector<std::size_t> perm(num_labels);
  std::iota(perm.begin(), perm.end(), 0);
  std::rotate(perm.begin(), perm.begin() + 1, perm.end());
  return perm;
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
  expect_model_matches(model, standalone_trained(model, data), probes.x);
}

TEST_P(FusedScoringSweep, BitIdenticalAfterSequentialUpdates) {
  const std::size_t num_labels = GetParam();
  Rng rng(19);
  auto model = make_model(num_labels, kDim, kHidden, 103);
  model.init_sequential();
  std::vector<Autoencoder> refs(
      num_labels, Autoencoder(model.projection(), model.config().reg_lambda));
  for (Autoencoder& ref : refs) ref.init_sequential();
  EXPECT_EQ(state_mismatches(model, refs), 0u);

  // N Sherman–Morrison steps through both fused (train_closest) and
  // explicit-label training.
  auto stream = make_clusters(rng, num_labels, 30, kDim);
  BatchWorkspace ws;
  for (std::size_t i = 0; i < stream.x.rows(); ++i) {
    const auto x = stream.x.row(i);
    if (i % 3 == 0) {
      const auto label = static_cast<std::size_t>(stream.labels[i]);
      model.train_label(model.project(x, ws), x, label);
      refs[label].train(x);
    } else {
      const Prediction fused = model.train_closest(x, ws);
      const Prediction ref = reference_predict(refs, x);
      refs[ref.label].train(x);
      ASSERT_EQ(fused.label, ref.label) << "step " << i;
    }
  }

  auto probes = make_clusters(rng, num_labels, 6, kDim);
  expect_model_matches(model, refs, probes.x);
}

TEST_P(FusedScoringSweep, BitIdenticalAfterPermutation) {
  const std::size_t num_labels = GetParam();
  Rng rng(23);
  auto data = make_clusters(rng, num_labels, 40, kDim);
  auto model = make_model(num_labels, kDim, kHidden, 107);
  model.init_train(data.x, data.labels);

  const std::vector<std::size_t> perm = rotation(num_labels);
  model.apply_permutation(perm);

  auto probes = make_clusters(rng, num_labels, 6, kDim);
  expect_model_matches(model, permuted(standalone_trained(model, data), perm),
                       probes.x);
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
      std::vector<Autoencoder> refs;
      for (std::size_t c = 0; c < num_labels; ++c) {
        refs.push_back(reference_instance(model, c));
      }
      std::size_t oracle_mismatches = 0;
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < num_labels; ++c) {
          oracle_mismatches += alone(r, c) != refs[c].score(probes.row(r));
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
// the reference path (per-label predict, then train the winner's standalone
// autoencoder): same predictions, and after every step every label's block,
// P and count equal to its autoencoder's — across a reset and a permutation
// inside the stream.
TEST(FusedScoring, TrainClosestMatchesReferenceTrajectory) {
  constexpr std::size_t kLabels = 5;
  constexpr std::size_t kResetAt = 40;
  constexpr std::size_t kPermuteAt = 90;
  Rng rng(31);
  auto model = make_model(kLabels, kDim, kHidden, 113);
  auto data = make_clusters(rng, kLabels, 40, kDim);
  model.init_train(data.x, data.labels);
  std::vector<Autoencoder> refs = standalone_trained(model, data);

  auto stream = make_clusters(rng, kLabels, 25, kDim);
  const std::vector<std::size_t> perm = rotation(kLabels);
  BatchWorkspace ws;
  for (std::size_t i = 0; i < stream.x.rows(); ++i) {
    const auto x = stream.x.row(i);
    if (i == kResetAt) {
      model.reset();
      for (Autoencoder& ref : refs) ref.reset();
    }
    if (i == kPermuteAt) {
      model.apply_permutation(perm);
      refs = permuted(std::move(refs), perm);
    }
    if (i > kResetAt && i % 3 == 0) {
      // After the reset every label scores alike until trained: feed each
      // its own rows too, through the explicit-label step.
      const auto label = static_cast<std::size_t>(stream.labels[i]);
      model.train_label(model.project(x, ws), x, label);
      refs[label].train(x);
    } else {
      const Prediction fused = model.train_closest(x, ws);
      // Reference: per-label scoring, then the winner's own OS-ELM step
      // (recomputes the hidden projection instead of sharing it).
      const Prediction ref = reference_predict(refs, x);
      refs[ref.label].train(x);
      ASSERT_EQ(fused.label, ref.label) << "step " << i;
      ASSERT_EQ(fused.score, ref.score) << "step " << i;
    }
    ASSERT_EQ(state_mismatches(model, refs), 0u) << "step " << i;
  }
  expect_fused_matches_reference(model, refs, stream.x);
}

}  // namespace
