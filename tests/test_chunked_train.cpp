// The chunked rank-k training path (PipelineConfig::train_chunk): a batched
// drain consumes recovery training samples in chunks, bucketing each chunk's
// rows by winning instance, absorbing every bucket with one Woodbury block
// update (OsElm::train_batch_from_hidden) and requantizing the bucket's
// f32/i8 replica block once instead of once per sample.
//
// Contracts under test:
//  - linalg seam: woodbury_update at k = 1 computes the same matrix as
//    sherman_morrison_update to 1e-12 relative tolerance over random
//    shapes (the contract documented in linalg/updates.hpp).
//  - OsElm: one rank-k block step matches k sequential rank-1 steps on
//    beta and P to tight numerical tolerance.
//  - MultiInstanceModel: train_buckets_from_hidden matches the sequential
//    winner loop with the same fixed labels, keeps the packed mirror in
//    sync, and refreshes the i8 replica once per bucket (the requant
//    amortization, visible in ChunkTrainStats and quantization_epoch()).
//  - End to end: a manager draining with train_chunk in {2,4,8} is
//    drift-decision-equivalent to the per-sample drain at every numerics
//    tier, and the tier-equivalence harness holds under chunked bursts.
//  - submit_batch racing shard-worker chunked drains loses no samples
//    (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <thread>
#include <vector>

#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/drift_stream.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/eval/paper_configs.hpp"
#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/numerics.hpp"
#include "edgedrift/linalg/updates.hpp"
#include "edgedrift/model/multi_instance.hpp"
#include "edgedrift/oselm/autoencoder.hpp"
#include "edgedrift/util/rng.hpp"

#include "tier_equivalence.hpp"

namespace {

using edgedrift::core::DispatchMode;
using edgedrift::core::ManagerOptions;
using edgedrift::core::PipelineConfig;
using edgedrift::core::PipelineManager;
using edgedrift::core::PipelineStep;
using edgedrift::core::SubmitStatus;
using edgedrift::data::Dataset;
using edgedrift::data::GaussianClass;
using edgedrift::data::GaussianConcept;
using edgedrift::linalg::Matrix;
using edgedrift::linalg::NumericsTier;
using edgedrift::util::Rng;

// ---------------------------------------------------------------------------
// Linalg seam: Woodbury at k = 1 vs Sherman–Morrison.

/// A generic well-conditioned inverse: start from the RLS prior I/lambda and
/// absorb a few random rank-1 updates so P has no special structure left.
Matrix random_inverse(std::size_t n, Rng& rng) {
  Matrix p(n, n);
  for (std::size_t i = 0; i < n; ++i) p(i, i) = 1.0 / 0.05;
  std::vector<double> u(n);
  for (int step = 0; step < 6; ++step) {
    for (std::size_t i = 0; i < n; ++i) u[i] = rng.gaussian(0.0, 1.0);
    edgedrift::linalg::sherman_morrison_update(p, u, u);
  }
  return p;
}

double max_abs(const Matrix& m) {
  double v = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      v = std::max(v, std::abs(m(i, j)));
    }
  }
  return v;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double v = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      v = std::max(v, std::abs(a(i, j) - b(i, j)));
    }
  }
  return v;
}

// The rank-1 seam contract of linalg/updates.hpp: with k = 1 the Woodbury
// identity degenerates to Sherman–Morrison, and the two kernels — one fused
// ger, one tiny LU solve — agree to 1e-12 relative over random shapes.
TEST(ChunkedTrain, WoodburyRankOneMatchesShermanMorrison) {
  Rng rng(123);
  for (const std::size_t n : {2u, 3u, 7u, 16u, 33u, 64u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    for (int trial = 0; trial < 8; ++trial) {
      Matrix p_sm = random_inverse(n, rng);
      Matrix p_wb = p_sm;
      std::vector<double> u(n);
      std::vector<double> v(n);
      Matrix u_col(n, 1);
      Matrix v_col(n, 1);
      for (std::size_t i = 0; i < n; ++i) {
        u[i] = rng.gaussian(0.0, 1.0);
        v[i] = rng.gaussian(0.0, 1.0);
        u_col(i, 0) = u[i];
        v_col(i, 0) = v[i];
      }
      ASSERT_TRUE(edgedrift::linalg::sherman_morrison_update(p_sm, u, v));
      ASSERT_TRUE(edgedrift::linalg::woodbury_update(p_wb, u_col, v_col));
      const double scale = std::max(max_abs(p_sm), 1e-300);
      EXPECT_LE(max_abs_diff(p_sm, p_wb) / scale, 1e-12);
    }
  }
}

// The symmetric training kernel: woodbury_update_sym(P, H) equals the
// general woodbury_update(P, H^T, H^T) on symmetric P, and its exported
// factor ws.m is (P_new H^T)^T — the identity the OS-ELM beta update leans
// on to skip forming P_new H^T itself. At k = 1 this chains through the
// general kernel's pinned Sherman–Morrison degeneration above.
TEST(ChunkedTrain, WoodburySymMatchesGeneralAndExportsBetaFactor) {
  Rng rng(321);
  for (const std::size_t n : {3u, 7u, 22u, 40u}) {
    for (const std::size_t k : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", k = " + std::to_string(k));
      // random_inverse returns (A^T A + I)^-1-style matrices: symmetric, as
      // the covariance-inverse contract requires.
      Matrix p_gen = random_inverse(n, rng);
      Matrix p_sym = p_gen;
      Matrix h(k, n);
      Matrix ht(n, k);
      for (std::size_t r = 0; r < k; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
          h(r, i) = rng.gaussian(0.0, 1.0);
          ht(i, r) = h(r, i);
        }
      }
      edgedrift::linalg::WoodburyWorkspace ws;
      ASSERT_TRUE(edgedrift::linalg::woodbury_update(p_gen, ht, ht));
      ASSERT_TRUE(edgedrift::linalg::woodbury_update_sym(p_sym, h, ws));
      const double p_scale = std::max(max_abs(p_gen), 1e-300);
      EXPECT_LE(max_abs_diff(p_gen, p_sym) / p_scale, 1e-12);
      // ws.m row r must equal P_new h_r.
      for (std::size_t r = 0; r < k; ++r) {
        std::vector<double> pnh(n);
        edgedrift::linalg::matvec(p_sym, h.row(r), pnh);
        double err = 0.0;
        double scale = 1e-300;
        for (std::size_t i = 0; i < n; ++i) {
          err = std::max(err, std::abs(pnh[i] - ws.m(r, i)));
          scale = std::max(scale, std::abs(pnh[i]));
        }
        EXPECT_LE(err / scale, 1e-10);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// OsElm / MultiInstanceModel: block updates vs sequential rank-1 loops.

Matrix gaussian_rows(std::size_t rows, std::size_t dim, double mean,
                     double stddev, Rng& rng) {
  Matrix m(rows, dim);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      m(i, j) = rng.gaussian(mean, stddev);
    }
  }
  return m;
}

// One rank-k train_batch_from_hidden equals k sequential train_from_hidden
// steps: exactly in exact arithmetic, to tight fp tolerance here.
TEST(ChunkedTrain, BlockUpdateMatchesSequentialOnBetaAndP) {
  constexpr std::size_t kDim = 10;
  constexpr std::size_t kHidden = 14;
  Rng rng(31);
  auto projection = edgedrift::oselm::make_projection(
      kDim, kHidden, edgedrift::oselm::Activation::kSigmoid, rng);
  edgedrift::oselm::Autoencoder sequential(projection);
  edgedrift::oselm::Autoencoder blocked(projection);
  const Matrix init = gaussian_rows(60, kDim, 0.4, 0.3, rng);
  sequential.init_train(init);
  blocked.init_train(init);

  for (const std::size_t k : {2u, 4u, 8u}) {
    SCOPED_TRACE("chunk = " + std::to_string(k));
    const Matrix chunk = gaussian_rows(k, kDim, 0.4, 0.3, rng);
    Matrix h;
    projection->hidden_batch_into(chunk, h);
    for (std::size_t r = 0; r < k; ++r) {
      sequential.train_from_hidden(h.row(r), chunk.row(r));
    }
    blocked.train_batch_from_hidden(h, chunk);

    const double beta_scale = std::max(max_abs(sequential.net().beta()), 1.0);
    EXPECT_LE(max_abs_diff(sequential.net().beta(), blocked.net().beta()) /
                  beta_scale,
              1e-9);
    const double p_scale = std::max(max_abs(sequential.net().p()), 1.0);
    EXPECT_LE(max_abs_diff(sequential.net().p(), blocked.net().p()) / p_scale,
              1e-9);
    EXPECT_EQ(blocked.samples_seen(), sequential.samples_seen());
  }
}

// Winner bucketing: train_buckets_from_hidden with fixed per-row winners
// matches the sequential winner loop instance for instance, counts one
// bucket per distinct winner, and leaves the packed mirror exactly in sync
// with every instance beta.
TEST(ChunkedTrain, BucketedTrainingMatchesSequentialWinnerLoop) {
  constexpr std::size_t kDim = 8;
  constexpr std::size_t kHidden = 12;
  constexpr std::size_t kLabels = 3;
  constexpr std::size_t kChunk = 8;
  Rng rng(47);
  auto projection = edgedrift::oselm::make_projection(
      kDim, kHidden, edgedrift::oselm::Activation::kSigmoid, rng);
  edgedrift::model::MultiInstanceModel sequential(kLabels, projection);
  edgedrift::model::MultiInstanceModel bucketed(kLabels, projection);
  Matrix init(kLabels * 40, kDim);
  std::vector<int> init_labels(init.rows());
  for (std::size_t i = 0; i < init.rows(); ++i) {
    init_labels[i] = static_cast<int>(i % kLabels);
    for (std::size_t j = 0; j < kDim; ++j) {
      init(i, j) = rng.gaussian(0.4 * static_cast<double>(init_labels[i]), 0.2);
    }
  }
  sequential.init_train(init, init_labels);
  bucketed.init_train(init, init_labels);

  // Uneven winners, only two of three instances hit: the empty bucket must
  // not issue an update.
  const std::vector<std::size_t> winners = {0, 2, 0, 0, 2, 0, 2, 0};
  const Matrix chunk = gaussian_rows(kChunk, kDim, 0.4, 0.3, rng);
  Matrix h;
  projection->hidden_batch_into(chunk, h);

  for (std::size_t r = 0; r < kChunk; ++r) {
    sequential.train_label(chunk.row(r), winners[r]);
  }
  edgedrift::model::BatchWorkspace ws;
  bucketed.reserve_chunk_train(kChunk, ws);
  const edgedrift::model::ChunkTrainStats stats =
      bucketed.train_buckets_from_hidden(chunk, h, winners, ws);

  EXPECT_EQ(stats.rows, kChunk);
  EXPECT_EQ(stats.buckets, 2u);
  EXPECT_EQ(stats.replica_refreshes, 0u) << "f64 tier has no replica";

  for (std::size_t c = 0; c < kLabels; ++c) {
    SCOPED_TRACE("instance " + std::to_string(c));
    const Matrix& want = sequential.instance(c).net().beta();
    const Matrix& got = bucketed.instance(c).net().beta();
    const double scale = std::max(max_abs(want), 1.0);
    EXPECT_LE(max_abs_diff(want, got) / scale, 1e-9);
    // The packed mirror must hold exactly the blocked model's betas — the
    // block path repacks, never replays a rank-1 ger.
    for (std::size_t i = 0; i < kHidden; ++i) {
      for (std::size_t j = 0; j < kDim; ++j) {
        EXPECT_EQ(bucketed.packed_beta()(i, c * kDim + j), got(i, j));
      }
    }
  }
}

// The requant amortization itself: in the i8 tier a chunk refreshes each
// winning bucket's replica block exactly once, not once per row, and the
// quantization epoch advances by the bucket count.
TEST(ChunkedTrain, ChunkRefreshesReplicaOncePerBucket) {
  constexpr std::size_t kDim = 8;
  constexpr std::size_t kHidden = 12;
  constexpr std::size_t kLabels = 3;
  constexpr std::size_t kChunk = 8;
  Rng rng(53);
  auto projection = edgedrift::oselm::make_projection(
      kDim, kHidden, edgedrift::oselm::Activation::kSigmoid, rng);
  edgedrift::model::MultiInstanceModel model(kLabels, projection);
  Matrix init(kLabels * 40, kDim);
  std::vector<int> init_labels(init.rows());
  for (std::size_t i = 0; i < init.rows(); ++i) {
    init_labels[i] = static_cast<int>(i % kLabels);
    for (std::size_t j = 0; j < kDim; ++j) {
      init(i, j) = rng.gaussian(0.4 * static_cast<double>(init_labels[i]), 0.2);
    }
  }
  model.init_train(init, init_labels);
  model.set_numerics_tier(NumericsTier::kQuantI8);
  const std::uint64_t epoch_before = model.quantization_epoch();

  const std::vector<std::size_t> winners = {1, 1, 0, 1, 1, 0, 1, 1};
  const Matrix chunk = gaussian_rows(kChunk, kDim, 0.4, 0.3, rng);
  Matrix h;
  projection->hidden_batch_into(chunk, h);
  edgedrift::model::BatchWorkspace ws;
  model.reserve_chunk_train(kChunk, ws);
  const edgedrift::model::ChunkTrainStats stats =
      model.train_buckets_from_hidden(chunk, h, winners, ws);

  EXPECT_EQ(stats.rows, kChunk);
  EXPECT_EQ(stats.buckets, 2u);
  EXPECT_EQ(stats.replica_refreshes, 2u)
      << "one requantization per bucket, not per row";
  EXPECT_EQ(model.quantization_epoch(), epoch_before + 2);
}

// ---------------------------------------------------------------------------
// End to end through the serving layer: the drifting multi-stream scenario
// of tests/test_coalesced_drain.cpp, drained with chunked training on.

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

Dataset make_train() {
  Rng rng(77);
  return edgedrift::data::draw(pre_concept(), 600, rng);
}

std::vector<Dataset> make_tests(std::size_t n, std::size_t samples) {
  std::vector<Dataset> tests;
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng(900 + i);
    tests.push_back(edgedrift::data::make_sudden_drift(
        pre_concept(), post_concept(), samples, samples / 2, rng));
  }
  return tests;
}

void seed_group(PipelineManager& manager, std::size_t n_streams,
                const Dataset& train) {
  manager.fit(0, train.x, train.labels);
  manager.seed_cold_from(0, n_streams - 1);
}

std::vector<std::vector<PipelineStep>> run_rounds(
    PipelineManager& manager, const std::vector<Dataset>& tests,
    std::size_t burst) {
  const std::size_t n = tests.size();
  const std::size_t samples = tests[0].size();
  for (std::size_t at = 0; at < samples; at += burst) {
    const std::size_t take = std::min(burst, samples - at);
    for (std::size_t s = 0; s < n; ++s) {
      Matrix rows(take, tests[s].x.cols());
      for (std::size_t r = 0; r < take; ++r) {
        rows.set_row(r, tests[s].x.row(at + r));
      }
      SubmitStatus status = SubmitStatus::kOk;
      EXPECT_EQ(manager.submit_batch(s, rows, {}, &status), take);
      EXPECT_EQ(status, SubmitStatus::kOk);
    }
    manager.drain();
  }
  std::vector<std::vector<PipelineStep>> steps(n);
  for (std::size_t s = 0; s < n; ++s) steps[s] = manager.take_steps(s);
  return steps;
}

ManagerOptions manual_options() {
  ManagerOptions options;
  options.dispatch = DispatchMode::kManual;
  return options;
}

PipelineConfig chunked_config(std::size_t train_chunk,
                              NumericsTier tier = NumericsTier::kExactF64) {
  PipelineConfig config = make_config();
  config.train_chunk = train_chunk;
  config.numerics = tier;
  return config;
}

/// Drift positions and predicted labels of a step sequence.
struct DecisionTrace {
  std::vector<std::size_t> drift_positions;
  std::vector<int> labels;
};

DecisionTrace trace_of(const std::vector<PipelineStep>& steps) {
  DecisionTrace t;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    t.labels.push_back(steps[i].prediction.label);
    if (steps[i].drift_detected) t.drift_positions.push_back(i);
  }
  return t;
}

void expect_decision_equivalent(
    const std::vector<std::vector<PipelineStep>>& got,
    const std::vector<std::vector<PipelineStep>>& want) {
  for (std::size_t s = 0; s < want.size(); ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    const DecisionTrace a = trace_of(got[s]);
    const DecisionTrace b = trace_of(want[s]);
    ASSERT_GE(b.drift_positions.size(), 1u)
        << "scenario must actually drift or the comparison is vacuous";
    ASSERT_EQ(a.drift_positions.size(), b.drift_positions.size());
    for (std::size_t d = 0; d < b.drift_positions.size(); ++d) {
      const std::size_t x = a.drift_positions[d];
      const std::size_t y = b.drift_positions[d];
      EXPECT_LE(x > y ? x - y : y - x, 25u) << "drift event " << d;
    }
    ASSERT_EQ(a.labels.size(), b.labels.size());
    std::size_t disagreements = 0;
    for (std::size_t i = 0; i < b.labels.size(); ++i) {
      if (a.labels[i] != b.labels[i]) ++disagreements;
    }
    EXPECT_LE(disagreements, b.labels.size() / 200)
        << "label agreement below 99.5%";
  }
}

// Chunked drains at chunk in {2,4,8} keep the per-sample drain's drift
// decisions at `tier`: same drift events within a small detection shift,
// near-total label agreement. The per-sample reference is run once and
// reused across chunk sizes; obs counters prove the chunked runs actually
// took the rank-k path and the reference never did.
void check_chunk_decision_equivalence(NumericsTier tier) {
  constexpr std::size_t kStreams = 6;
  const Dataset train = make_train();
  const auto tests = make_tests(kStreams, 480);

  PipelineManager reference(chunked_config(1, tier), 1, manual_options());
  seed_group(reference, kStreams, train);
  const auto want = run_rounds(reference, tests, 8);
  EXPECT_EQ(reference.stats().totals().chunk_trains, 0u)
      << "per-sample reference must never chunk";

  for (const std::size_t chunk : {2u, 4u, 8u}) {
    SCOPED_TRACE("train_chunk = " + std::to_string(chunk));
    PipelineManager chunked(chunked_config(chunk, tier), 1,
                            manual_options());
    seed_group(chunked, kStreams, train);
    const auto got = run_rounds(chunked, tests, 8);
    expect_decision_equivalent(got, want);

    const edgedrift::obs::CounterSnapshot totals =
        chunked.stats().totals();
    EXPECT_GT(totals.chunk_trains, 0u) << "chunked run must issue block updates";
    EXPECT_GT(totals.chunk_train_rows, totals.chunk_trains)
        << "some buckets must be real multi-row blocks";
    if (tier == NumericsTier::kExactF64) {
      EXPECT_EQ(totals.requants_saved, 0u) << "f64 has no replica to refresh";
    } else {
      EXPECT_GT(totals.requants_saved, 0u)
          << "amortized requantization must actually trigger";
    }
  }
}

TEST(ChunkedTrain, DecisionEquivalentAtF64) {
  check_chunk_decision_equivalence(NumericsTier::kExactF64);
}

TEST(ChunkedTrain, DecisionEquivalentAtF32) {
  check_chunk_decision_equivalence(NumericsTier::kFastF32);
}

TEST(ChunkedTrain, DecisionEquivalentAtI8) {
  check_chunk_decision_equivalence(NumericsTier::kQuantI8);
}

// Recovering streams stay coalesce-eligible when chunking is on: the whole
// run drains through shared-projection mega-batches and the planner keeps
// forming groups across the drift and the recovery window.
TEST(ChunkedTrain, RecoveringStreamsStayInCoalescedGroups) {
  constexpr std::size_t kStreams = 6;
  const Dataset train = make_train();
  const auto tests = make_tests(kStreams, 480);

  ManagerOptions on = manual_options();
  on.coalesce = true;
  PipelineManager manager(chunked_config(8), 1, on);
  seed_group(manager, kStreams, train);
  const auto got = run_rounds(manager, tests, 8);

  const edgedrift::obs::Snapshot snap = manager.stats();
  ASSERT_EQ(snap.shards.size(), 1u);
  EXPECT_GT(snap.shards[0].coalesced_gemms, 0u);
  const edgedrift::obs::CounterSnapshot totals = snap.totals();
  EXPECT_GT(totals.chunk_trains, 0u)
      << "recovery training must have run through the chunked path";
  std::size_t drifts = 0;
  for (const auto& steps : got) {
    for (const PipelineStep& step : steps) drifts += step.drift_detected;
  }
  EXPECT_GE(drifts, kStreams) << "scenario must drift on every stream";
}

// ---------------------------------------------------------------------------
// Tier-equivalence harness under chunked bursts: the golden-replay scenario
// replayed in 8-row bursts with train_chunk in {2,4,8} must keep the
// reduced tiers decision-equivalent to the (equally chunked) f64 reference.

struct Scenario {
  Dataset train;
  Dataset test;
  edgedrift::eval::TierEquivalenceConfig config;
};

Scenario make_scenario() {
  edgedrift::data::NslKddLikeConfig stream;
  stream.train_size = 1600;
  stream.test_size = 2500;
  stream.drift_point = 1200;
  stream.seed = 42;
  const edgedrift::data::NslKddLike generator(stream);
  Rng rng(stream.seed);
  Scenario s{generator.training(rng), generator.test_stream(rng), {}};
  s.config.pipeline = edgedrift::eval::nsl_kdd_paper_config(100).pipeline;
  s.config.pipeline.input_dim = s.train.dim();
  s.config.burst = 8;
  return s;
}

TEST(ChunkedTrain, TierHarnessHoldsAtI8AcrossChunkSizes) {
  Scenario s = make_scenario();
  for (const std::size_t chunk : {2u, 4u, 8u}) {
    SCOPED_TRACE("train_chunk = " + std::to_string(chunk));
    s.config.pipeline.train_chunk = chunk;
    const auto report = edgedrift::eval::check_tier_equivalence(
        NumericsTier::kQuantI8, s.train, s.test, s.config);
    EXPECT_TRUE(report.equivalent) << report.failure;
    EXPECT_GE(report.reference_drifts, 1u);
  }
}

TEST(ChunkedTrain, TierHarnessHoldsAtF32WithChunking) {
  Scenario s = make_scenario();
  s.config.pipeline.train_chunk = 8;
  s.config.theta_rel_tol = 1e-4;  // f32 narrowing barely moves the gate.
  const auto report = edgedrift::eval::check_tier_equivalence(
      NumericsTier::kFastF32, s.train, s.test, s.config);
  EXPECT_TRUE(report.equivalent) << report.failure;
  EXPECT_GE(report.reference_drifts, 1u);
}

// ---------------------------------------------------------------------------
// The race surface: concurrent submit_batch producers against shard workers
// running chunked drains across a drift + recovery, with a tight hot budget
// keeping eviction in the mix. Run under TSan in CI; the invariant checked
// here is only that no sample is lost or duplicated.
TEST(ChunkedTrain, SubmitBatchRacesChunkedShardDrains) {
  constexpr std::size_t kStreams = 6;
  constexpr std::size_t kBatches = 40;
  constexpr std::size_t kBurst = 8;
  const Dataset train = make_train();
  const auto tests = make_tests(kStreams, kBatches * kBurst);

  ManagerOptions options;  // kShard dispatch, coalescing on by default.
  options.shards = 2;
  options.queue_capacity = 64;
  options.hot_stream_budget = 2;
  PipelineManager manager(chunked_config(8), 1, options);
  seed_group(manager, kStreams, train);

  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < 2; ++t) {
    producers.emplace_back([&, t] {
      Matrix rows(kBurst, tests[0].x.cols());
      for (std::size_t b = 0; b < kBatches; ++b) {
        for (std::size_t s = t; s < kStreams; s += 2) {
          for (std::size_t r = 0; r < kBurst; ++r) {
            rows.set_row(r, tests[s].x.row(b * kBurst + r));
          }
          ASSERT_EQ(manager.submit_batch(s, rows), kBurst);
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  manager.drain();

  for (std::size_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(manager.stats(s).samples, kBatches * kBurst)
        << "stream " << s;
  }
  EXPECT_EQ(manager.stats().totals().samples, kStreams * kBatches * kBurst);
}

}  // namespace
