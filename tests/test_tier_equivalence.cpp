// Drift-decision equivalence across numerics tiers: the fp32 and int8
// scoring tiers must reproduce the f64 reference run's decisions on the
// golden-replay scenario (tests/tier_equivalence.hpp). The f64 tier itself
// is pinned bit-for-bit by test_golden_replay.cpp; here it doubles as the
// self-equivalence sanity row (every diff must be exactly zero).
#include <gtest/gtest.h>

#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/eval/paper_configs.hpp"
#include "edgedrift/util/rng.hpp"

#include "tier_equivalence.hpp"

namespace {

using namespace edgedrift;
using linalg::NumericsTier;

/// The golden-replay scenario (test_golden_replay.cpp): same generator,
/// same paper pipeline, one injected drift at sample 1200.
struct Scenario {
  data::Dataset train;
  data::Dataset test;
  eval::TierEquivalenceConfig config;
};

Scenario make_scenario() {
  data::NslKddLikeConfig stream;
  stream.train_size = 1600;
  stream.test_size = 2500;
  stream.drift_point = 1200;
  stream.seed = 42;
  const data::NslKddLike generator(stream);
  util::Rng rng(stream.seed);
  Scenario s{generator.training(rng), generator.test_stream(rng), {}};
  s.config.pipeline = eval::nsl_kdd_paper_config(100).pipeline;
  s.config.pipeline.input_dim = s.train.dim();
  return s;
}

TEST(TierEquivalence, F64SelfEquivalenceIsExact) {
  const Scenario s = make_scenario();
  const auto report = eval::check_tier_equivalence(
      NumericsTier::kExactF64, s.train, s.test, s.config);
  EXPECT_TRUE(report.equivalent) << report.failure;
  EXPECT_EQ(report.label_disagreements, 0u);
  EXPECT_EQ(report.material_disagreements, 0u);
  EXPECT_GT(report.compared_samples, 0u);
  EXPECT_EQ(report.max_detection_shift, 0u);
  EXPECT_EQ(report.theta_rel_diff, 0.0);
  EXPECT_EQ(report.tier_drifts, report.reference_drifts);
  // The scenario injects one drift; a run that never detects would make
  // the whole comparison vacuous.
  EXPECT_GE(report.reference_drifts, 1u);
}

TEST(TierEquivalence, F32MatchesF64Decisions) {
  const Scenario s = make_scenario();
  eval::TierEquivalenceConfig config = s.config;
  // Narrowing to f32 perturbs scores by ~1e-7 relative; hold the gate far
  // tighter than the i8 default.
  config.theta_rel_tol = 1e-4;
  const auto report = eval::check_tier_equivalence(
      NumericsTier::kFastF32, s.train, s.test, config);
  EXPECT_TRUE(report.equivalent) << report.failure;
  EXPECT_GE(report.reference_drifts, 1u);
}

TEST(TierEquivalence, I8MatchesF64Decisions) {
  const Scenario s = make_scenario();
  const auto report = eval::check_tier_equivalence(
      NumericsTier::kQuantI8, s.train, s.test, s.config);
  EXPECT_TRUE(report.equivalent) << report.failure;
  EXPECT_GE(report.reference_drifts, 1u);
}

}  // namespace
