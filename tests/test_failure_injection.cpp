// Failure-injection tests: the library's contract violations must fail
// loudly (EDGEDRIFT_ASSERT aborts) instead of corrupting numerics, and the
// I/O paths must reject malformed inputs instead of crashing.
#include <gtest/gtest.h>

#include <fstream>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/data/csv.hpp"
#include "edgedrift/drift/centroid_detector.hpp"
#include "edgedrift/linalg/solve.hpp"
#include "edgedrift/model/multi_instance.hpp"
#include "edgedrift/util/rng.hpp"
#include "baselines/quanttree.hpp"
#include "baselines/spll.hpp"
#include "oracle/linalg.hpp"
#include "oracle/oselm.hpp"

namespace {

using edgedrift::linalg::Matrix;
using edgedrift::util::Rng;

// NOTE: EDGEDRIFT_ASSERT is active in release builds, so death tests work
// regardless of NDEBUG.
using DeathTest = ::testing::Test;

TEST(FailureInjection, OsElmPredictBeforeInitAborts) {
  Rng rng(1);
  auto proj = edgedrift::oselm::make_projection(
      4, 3, edgedrift::oselm::Activation::kSigmoid, rng);
  edgedrift::oselm::OsElmConfig config;
  config.output_dim = 2;
  edgedrift::oselm::OsElm net(proj, config);
  std::vector<double> x(4), y(2);
  EXPECT_DEATH(net.predict(x, y), "predict\\(\\) before initialization");
}

TEST(FailureInjection, OsElmDimensionMismatchAborts) {
  Rng rng(2);
  auto proj = edgedrift::oselm::make_projection(
      4, 3, edgedrift::oselm::Activation::kSigmoid, rng);
  edgedrift::oselm::OsElmConfig config;
  config.output_dim = 2;
  edgedrift::oselm::OsElm net(proj, config);
  net.init_sequential();
  std::vector<double> wrong_x(5), t(2);
  EXPECT_DEATH(net.train(wrong_x, t), "x size mismatch");
}

TEST(FailureInjection, OsElmRejectsInvalidForgettingFactor) {
  Rng rng(3);
  auto proj = edgedrift::oselm::make_projection(
      4, 3, edgedrift::oselm::Activation::kSigmoid, rng);
  edgedrift::oselm::OsElmConfig config;
  config.output_dim = 2;
  config.forgetting_factor = 1.5;
  EXPECT_DEATH(edgedrift::oselm::OsElm(proj, config),
               "forgetting factor");
}

TEST(FailureInjection, ModelInitTrainRequiresEveryLabel) {
  Rng rng(4);
  auto proj = edgedrift::oselm::make_projection(
      4, 3, edgedrift::oselm::Activation::kSigmoid, rng);
  edgedrift::model::MultiInstanceModel model(2, proj);
  Matrix x(10, 4);
  std::vector<int> labels(10, 0);  // Label 1 never appears.
  EXPECT_DEATH(model.init_train(x, labels),
               "every label needs initial samples");
}

TEST(FailureInjection, ModelRejectsOutOfRangeLabel) {
  Rng rng(5);
  auto proj = edgedrift::oselm::make_projection(
      4, 3, edgedrift::oselm::Activation::kSigmoid, rng);
  edgedrift::model::MultiInstanceModel model(2, proj);
  model.init_sequential();
  std::vector<double> x(4);
  edgedrift::model::BatchWorkspace ws;
  EXPECT_DEATH(model.train_label(model.project(x, ws), x, 7),
               "label out of range");
}

TEST(FailureInjection, DetectorObserveBeforeCalibrateAborts) {
  edgedrift::drift::CentroidDetectorConfig config;
  config.num_labels = 2;
  config.dim = 3;
  edgedrift::drift::CentroidDetector detector(config);
  std::vector<double> x(3);
  edgedrift::drift::Observation obs;
  obs.x = x;
  obs.predicted_label = 0;
  EXPECT_DEATH(detector.observe(obs), "observe\\(\\) before calibrate");
}

TEST(FailureInjection, QuantTreeNeedsEnoughReference) {
  edgedrift::drift::QuantTreeConfig config;
  config.num_bins = 16;
  edgedrift::drift::QuantTree qt(config);
  Matrix tiny(4, 3);  // Fewer rows than bins.
  EXPECT_DEATH(qt.fit(tiny), "at least K samples");
}

TEST(FailureInjection, QuantTreeSurvivesConstantReference) {
  // Degenerate (all-identical) reference data: the tree must still build
  // and streaming must not crash (everything lands in few bins).
  edgedrift::drift::QuantTreeConfig config;
  config.num_bins = 8;
  config.batch_size = 16;
  edgedrift::drift::QuantTree qt(config);
  Matrix constant(100, 3, /*fill=*/1.0);
  qt.fit(constant);
  edgedrift::drift::Observation obs;
  std::vector<double> x(3, 1.0);
  obs.x = x;
  for (int i = 0; i < 64; ++i) {
    qt.observe(obs);  // Must not crash; detection value is unspecified.
  }
  SUCCEED();
}

TEST(FailureInjection, SpllSurvivesTinyReference) {
  edgedrift::drift::SpllConfig config;
  config.num_clusters = 2;
  config.batch_size = 8;
  config.bootstrap_trials = 50;
  edgedrift::drift::Spll spll(config);
  Rng rng(6);
  const Matrix reference = Matrix::random_gaussian(10, 3, rng);
  spll.fit(reference);  // 10 samples, 2 clusters: must still calibrate.
  EXPECT_TRUE(spll.fitted());
}

TEST(FailureInjection, PipelineProcessBeforeFitAborts) {
  edgedrift::core::PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = 4;
  config.hidden_dim = 3;
  edgedrift::core::Pipeline pipeline(config);
  std::vector<double> x(4);
  EXPECT_DEATH(pipeline.process(x), "process\\(\\) before fit");
}

TEST(FailureInjection, LuFactorRejectsNonSquare) {
  Matrix rect(3, 4);
  EXPECT_DEATH(edgedrift::linalg::lu_factor(rect), "square");
}

TEST(FailureInjection, CsvRejectsMalformedNumbers) {
  const std::string path = "/tmp/edgedrift_bad.csv";
  {
    std::ofstream out(path);
    out << "1.0,2.0\n1.0,not_a_number\n";
  }
  EXPECT_FALSE(edgedrift::data::load_csv(path).has_value());
  std::remove(path.c_str());
}

TEST(FailureInjection, CsvRejectsRaggedRows) {
  const std::string path = "/tmp/edgedrift_ragged.csv";
  {
    std::ofstream out(path);
    out << "1.0,2.0\n3.0,4.0,5.0\n";
  }
  EXPECT_FALSE(edgedrift::data::load_csv(path).has_value());
  std::remove(path.c_str());
}

TEST(FailureInjection, CsvRejectsLabelColumnOutOfRange) {
  const std::string path = "/tmp/edgedrift_labelcol.csv";
  {
    std::ofstream out(path);
    out << "1.0,2.0\n";
  }
  edgedrift::data::CsvOptions options;
  options.label_column = 5;
  EXPECT_FALSE(edgedrift::data::load_csv(path, options).has_value());
  std::remove(path.c_str());
}

TEST(FailureInjection, EmptyCsvYieldsEmptyDataset) {
  const std::string path = "/tmp/edgedrift_empty.csv";
  { std::ofstream out(path); }
  const auto loaded = edgedrift::data::load_csv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
