// Integration tests of the five-method experiment runner on a scaled-down
// NSL-KDD-like stream. These assert the *shape* of the paper's Table 2:
// active methods beat the static baseline after a drift, batch detectors
// detect within one batch, the proposed method detects later but with far
// less memory.
#include <gtest/gtest.h>

#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/util/rng.hpp"
#include "baselines/experiment.hpp"

namespace {

using edgedrift::data::Dataset;
using edgedrift::data::NslKddLike;
using edgedrift::data::NslKddLikeConfig;
using edgedrift::eval::ExperimentConfig;
using edgedrift::eval::ExperimentResult;
using edgedrift::eval::Method;
using edgedrift::util::Rng;

// Scaled-down stream so the whole suite stays fast: 4000 test samples,
// drift at 1500.
struct Fixture {
  Dataset train;
  Dataset test;
  std::size_t drift_at = 1500;
  ExperimentConfig config;
  edgedrift::baselines::ComparisonSettings detectors;
};

Fixture make_fixture() {
  Fixture f;
  NslKddLikeConfig data_config;
  data_config.train_size = 800;
  data_config.test_size = 4000;
  data_config.drift_point = f.drift_at;
  NslKddLike generator(data_config);
  Rng rng(21);
  f.train = generator.training(rng);
  f.test = generator.test_stream(rng);

  f.config.pipeline.num_labels = 2;
  f.config.pipeline.input_dim = NslKddLike::kDim;
  f.config.pipeline.hidden_dim = 22;
  f.config.pipeline.window_size = 100;
  f.config.pipeline.detector_initial_count = 0;
  f.config.pipeline.reconstruction.n_search = 20;
  f.config.pipeline.reconstruction.n_update = 120;
  f.config.pipeline.reconstruction.n_total = 500;
  f.detectors.quanttree.num_bins = 32;
  f.detectors.quanttree.batch_size = 200;
  f.detectors.spll.batch_size = 200;
  f.detectors.spll.num_clusters = 2;
  f.config.onlad_forgetting = 0.97;
  return f;
}

const Fixture& fixture() {
  static const Fixture f = make_fixture();
  return f;
}

ExperimentResult run(Method method) {
  const Fixture& f = fixture();
  return edgedrift::eval::run_experiment(method, f.train, f.test, f.config,
                                         f.detectors);
}

TEST(Experiment, BaselineDegradesAfterDrift) {
  const auto result = run(Method::kBaseline);
  const auto& f = fixture();
  const double pre = result.accuracy.range(0, f.drift_at);
  const double post = result.accuracy.range(f.drift_at, f.test.size());
  EXPECT_GT(pre, 0.95);
  EXPECT_LT(post, 0.85);
  EXPECT_EQ(result.detections.count(), 0u);
}

TEST(Experiment, ProposedDetectsAndOutperformsBaseline) {
  const auto proposed = run(Method::kProposed);
  const auto baseline = run(Method::kBaseline);
  const auto& f = fixture();

  const auto delay = proposed.detections.delay(f.drift_at);
  ASSERT_TRUE(delay.has_value());
  EXPECT_EQ(proposed.detections.false_alarms(f.drift_at), 0u);
  EXPECT_GT(proposed.accuracy.overall(), baseline.accuracy.overall());
  // Post-recovery tail is where the win comes from.
  const double tail_proposed =
      proposed.accuracy.range(f.test.size() * 3 / 4, f.test.size());
  const double tail_baseline =
      baseline.accuracy.range(f.test.size() * 3 / 4, f.test.size());
  EXPECT_GT(tail_proposed, tail_baseline + 0.05);
}

TEST(Experiment, QuantTreeDetectsWithinOneBatchOfDrift) {
  const auto result = run(Method::kQuantTree);
  const auto& f = fixture();
  const auto delay = result.detections.delay(f.drift_at);
  ASSERT_TRUE(delay.has_value());
  // A batch detector fires at the first full batch after the drift: delay
  // strictly below 2 * batch size.
  EXPECT_LT(*delay, 2u * 200u);
}

TEST(Experiment, SpllDetectsWithinOneBatchOfDrift) {
  const auto result = run(Method::kSpll);
  const auto& f = fixture();
  const auto delay = result.detections.delay(f.drift_at);
  ASSERT_TRUE(delay.has_value());
  EXPECT_LT(*delay, 2u * 200u);
}

TEST(Experiment, ProposedDetectsLaterThanBatchMethods) {
  // Table 2 shape: the fully sequential method pays a detection-delay price.
  const auto proposed = run(Method::kProposed);
  const auto quanttree = run(Method::kQuantTree);
  const auto& f = fixture();
  const auto d_prop = proposed.detections.delay(f.drift_at);
  const auto d_qt = quanttree.detections.delay(f.drift_at);
  ASSERT_TRUE(d_prop.has_value());
  ASSERT_TRUE(d_qt.has_value());
  EXPECT_GE(*d_prop, *d_qt);
}

TEST(Experiment, ProposedUsesFarLessDetectorMemory) {
  // Table 4 shape: proposed << QuantTree < SPLL.
  const auto proposed = run(Method::kProposed);
  const auto quanttree = run(Method::kQuantTree);
  const auto spll = run(Method::kSpll);
  EXPECT_LT(proposed.detector_memory_bytes,
            quanttree.detector_memory_bytes / 2);
  EXPECT_LT(quanttree.detector_memory_bytes, spll.detector_memory_bytes);
}

TEST(Experiment, ActiveMethodsRecoverAccuracy) {
  const auto& f = fixture();
  for (const Method m :
       {Method::kProposed, Method::kQuantTree, Method::kSpll}) {
    const auto result = run(m);
    const double tail =
        result.accuracy.range(f.test.size() * 3 / 4, f.test.size());
    EXPECT_GT(tail, 0.8) << edgedrift::eval::method_name(m);
  }
}

TEST(Experiment, OnladRunsAndReportsPassiveBehaviour) {
  const auto result = run(Method::kOnlad);
  EXPECT_EQ(result.detections.count(), 0u);
  EXPECT_EQ(result.detector_memory_bytes, 0u);
  EXPECT_GT(result.accuracy.samples(), 0u);
}

TEST(Experiment, MethodNamesMatchPaperRows) {
  EXPECT_EQ(edgedrift::eval::method_name(Method::kQuantTree), "Quant Tree");
  EXPECT_EQ(edgedrift::eval::method_name(Method::kSpll), "SPLL");
  EXPECT_EQ(edgedrift::eval::method_name(Method::kProposed),
            "Proposed method");
}

TEST(Experiment, RuntimeIsMeasured) {
  const auto result = run(Method::kBaseline);
  EXPECT_GT(result.runtime_seconds, 0.0);
}

TEST(Experiment, MultiWindowEnsembleDetectsAndRecovers) {
  const auto& f = fixture();
  auto config = f.config;
  config.pipeline.detector.windows = {50, 100, 200};
  const auto result = edgedrift::eval::run_experiment(
      Method::kMultiWindow, f.train, f.test, config, f.detectors);
  const auto delay = result.detections.delay(f.drift_at);
  ASSERT_TRUE(delay.has_value());
  EXPECT_EQ(result.detections.false_alarms(f.drift_at), 0u);
  // Recovery after reconstruction, as for the single-window method.
  const double tail =
      result.accuracy.range(f.test.size() * 3 / 4, f.test.size());
  EXPECT_GT(tail, 0.85);
  // Ensemble state stays tiny (3 members x O(C*D)).
  EXPECT_LT(result.detector_memory_bytes, 64u * 1024u);
}

}  // namespace
