// Tests for the proposed centroid-displacement detector (Algorithm 1) and
// the Equation 1 threshold calibration.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "edgedrift/drift/centroid_detector.hpp"
#include "edgedrift/drift/threshold.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::drift::CentroidDetector;
using edgedrift::drift::CentroidDetectorConfig;
using edgedrift::drift::Detection;
using edgedrift::drift::Observation;
using edgedrift::linalg::Matrix;
using edgedrift::util::Rng;

// Two-class 4-D training blob around distinct anchors.
struct Calibration {
  Matrix x;
  std::vector<int> labels;
};

Calibration make_training(Rng& rng, std::size_t per_class = 200) {
  Calibration cal;
  cal.x.resize_zero(2 * per_class, 4);
  cal.labels.resize(2 * per_class);
  for (std::size_t i = 0; i < 2 * per_class; ++i) {
    const int label = i < per_class ? 0 : 1;
    cal.labels[i] = label;
    const double anchor = label == 0 ? 0.0 : 3.0;
    for (std::size_t j = 0; j < 4; ++j) {
      cal.x(i, j) = rng.gaussian(anchor, 0.2);
    }
  }
  return cal;
}

CentroidDetectorConfig base_config() {
  CentroidDetectorConfig config;
  config.num_labels = 2;
  config.dim = 4;
  config.window_size = 20;
  config.theta_error = 0.5;  // Gate for anomaly scores in tests.
  config.z = 1.0;
  config.initial_count = 0;  // Responsive recent centroids for unit tests.
  return config;
}

Observation obs_of(std::span<const double> x, int label, double score) {
  Observation obs;
  obs.x = x;
  obs.predicted_label = label;
  obs.anomaly_score = score;
  return obs;
}

TEST(Threshold, EquationOneMatchesHandComputation) {
  // distances = {1, 2, 3}: mu = 2, sigma = sqrt(2/3).
  const std::vector<double> d{1.0, 2.0, 3.0};
  const double expected = 2.0 + std::sqrt(2.0 / 3.0);
  EXPECT_NEAR(edgedrift::drift::drift_threshold_from_distances(d, 1.0),
              expected, 1e-12);
  // z scales the sigma term.
  EXPECT_NEAR(edgedrift::drift::drift_threshold_from_distances(d, 2.0),
              2.0 + 2.0 * std::sqrt(2.0 / 3.0), 1e-12);
}

TEST(Threshold, CalibrateFromLabeledData) {
  Matrix x{{0.0, 0.0}, {2.0, 0.0}, {10.0, 0.0}, {12.0, 0.0}};
  std::vector<int> labels{0, 0, 1, 1};
  Matrix centroids{{1.0, 0.0}, {11.0, 0.0}};
  // All four samples are L1-distance 1 from their centroid: mu=1, sigma=0.
  const double theta = edgedrift::drift::calibrate_drift_threshold(
      x, labels, centroids, 1.0);
  EXPECT_NEAR(theta, 1.0, 1e-12);
}

TEST(CentroidDetector, CalibrationComputesClassMeans) {
  Rng rng(1);
  auto cal = make_training(rng);
  CentroidDetector det(base_config());
  det.calibrate(cal.x, cal.labels);

  EXPECT_NEAR(det.trained_centroids()(0, 0), 0.0, 0.05);
  EXPECT_NEAR(det.trained_centroids()(1, 0), 3.0, 0.05);
  EXPECT_GT(det.theta_drift(), 0.0);
}

TEST(CentroidDetector, NoWindowOpensBelowErrorGate) {
  Rng rng(2);
  auto cal = make_training(rng);
  CentroidDetector det(base_config());
  det.calibrate(cal.x, cal.labels);

  std::vector<double> x(4, 0.0);
  for (int i = 0; i < 100; ++i) {
    const Detection d = det.observe(obs_of(x, 0, /*score=*/0.01));
    EXPECT_FALSE(d.drift);
    EXPECT_FALSE(det.window_open());
  }
}

TEST(CentroidDetector, StationaryStreamDoesNotFire) {
  // Even with the gate forced open (score above theta_error), on-concept
  // samples keep the recent centroids near the trained ones.
  Rng rng(3);
  auto cal = make_training(rng);
  CentroidDetector det(base_config());
  det.calibrate(cal.x, cal.labels);

  std::vector<double> x(4);
  int drifts = 0;
  for (int i = 0; i < 400; ++i) {
    const int label = i % 2;
    for (auto& v : x) v = rng.gaussian(label == 0 ? 0.0 : 3.0, 0.2);
    const Detection d = det.observe(obs_of(x, label, /*score=*/1.0));
    drifts += d.drift ? 1 : 0;
  }
  EXPECT_EQ(drifts, 0);
}

TEST(CentroidDetector, DetectsSuddenShiftWithinFewWindows) {
  Rng rng(4);
  auto cal = make_training(rng);
  CentroidDetector det(base_config());
  det.calibrate(cal.x, cal.labels);

  // Post-drift: both classes move by +2 in every dimension.
  std::vector<double> x(4);
  int first_detection = -1;
  for (int i = 0; i < 400; ++i) {
    const int label = i % 2;
    for (auto& v : x) v = rng.gaussian((label == 0 ? 0.0 : 3.0) + 2.0, 0.2);
    const Detection d = det.observe(obs_of(x, label, /*score=*/1.0));
    if (d.drift) {
      first_detection = i;
      break;
    }
  }
  ASSERT_GE(first_detection, 0) << "drift never detected";
  EXPECT_LT(first_detection, 200);
}

TEST(CentroidDetector, WindowClosesAndRearmsWithoutDrift) {
  Rng rng(5);
  auto cal = make_training(rng);
  auto config = base_config();
  config.window_size = 10;
  CentroidDetector det(config);
  det.calibrate(cal.x, cal.labels);

  std::vector<double> x(4);
  // One anomalous on-concept window: opens, closes, no drift.
  for (int i = 0; i < 10; ++i) {
    for (auto& v : x) v = rng.gaussian(0.0, 0.2);
    det.observe(obs_of(x, 0, 1.0));
  }
  EXPECT_FALSE(det.window_open());
  // A fresh anomalous sample must re-open the window.
  for (auto& v : x) v = rng.gaussian(0.0, 0.2);
  det.observe(obs_of(x, 0, 1.0));
  EXPECT_TRUE(det.window_open());
}

TEST(CentroidDetector, StatisticEmittedExactlyAtWindowClose) {
  Rng rng(6);
  auto cal = make_training(rng);
  auto config = base_config();
  config.window_size = 5;
  CentroidDetector det(config);
  det.calibrate(cal.x, cal.labels);

  std::vector<double> x(4, 0.0);
  for (int i = 0; i < 4; ++i) {
    const Detection d = det.observe(obs_of(x, 0, 1.0));
    EXPECT_FALSE(d.statistic_valid);
  }
  const Detection d = det.observe(obs_of(x, 0, 1.0));
  EXPECT_TRUE(d.statistic_valid);
}

TEST(CentroidDetector, ResetRestoresRecentToTrained) {
  Rng rng(7);
  auto cal = make_training(rng);
  CentroidDetector det(base_config());
  det.calibrate(cal.x, cal.labels);

  std::vector<double> x(4, 9.0);
  for (int i = 0; i < 10; ++i) det.observe(obs_of(x, 0, 1.0));
  EXPECT_GT(det.last_distance(), 0.0);
  det.reset();
  EXPECT_FALSE(det.window_open());
  EXPECT_DOUBLE_EQ(
      Matrix::max_abs_diff(det.recent_centroids(), det.trained_centroids()),
      0.0);
}

TEST(CentroidDetector, ManualThetaDriftOverridesEquationOne) {
  Rng rng(8);
  auto cal = make_training(rng);
  auto config = base_config();
  config.theta_drift = 123.0;
  CentroidDetector det(config);
  det.calibrate(cal.x, cal.labels);
  EXPECT_DOUBLE_EQ(det.theta_drift(), 123.0);
}

TEST(CentroidDetector, RearmInstallsNewReference) {
  Rng rng(9);
  auto cal = make_training(rng);
  CentroidDetector det(base_config());
  det.calibrate(cal.x, cal.labels);

  Matrix new_centroids{{5.0, 5.0, 5.0, 5.0}, {8.0, 8.0, 8.0, 8.0}};
  const std::vector<std::size_t> counts{10, 10};
  det.rearm(new_centroids, counts, 0.7);
  EXPECT_DOUBLE_EQ(det.theta_drift(), 0.7);
  EXPECT_DOUBLE_EQ(det.trained_centroids()(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(
      Matrix::max_abs_diff(det.recent_centroids(), det.trained_centroids()),
      0.0);
}

TEST(CentroidDetector, EwmaVariantAlsoDetects) {
  Rng rng(10);
  auto cal = make_training(rng);
  auto config = base_config();
  config.ewma_decay = 0.9;
  CentroidDetector det(config);
  det.calibrate(cal.x, cal.labels);

  std::vector<double> x(4);
  int first = -1;
  for (int i = 0; i < 400; ++i) {
    const int label = i % 2;
    for (auto& v : x) v = rng.gaussian((label == 0 ? 0.0 : 3.0) + 2.0, 0.2);
    if (det.observe(obs_of(x, label, 1.0)).drift) {
      first = i;
      break;
    }
  }
  EXPECT_GE(first, 0);
}

TEST(CentroidDetector, LargerWindowDetectsLater) {
  // Property from the paper's Table 3 (sudden drift): a larger window size
  // cannot detect earlier than its own window length allows.
  Rng rng(11);
  auto cal = make_training(rng);

  auto detect_at = [&](std::size_t window) -> int {
    auto config = base_config();
    config.window_size = window;
    CentroidDetector det(config);
    det.calibrate(cal.x, cal.labels);
    Rng stream_rng(99);
    std::vector<double> x(4);
    for (int i = 0; i < 2000; ++i) {
      const int label = i % 2;
      for (auto& v : x) {
        v = stream_rng.gaussian((label == 0 ? 0.0 : 3.0) + 2.0, 0.2);
      }
      if (det.observe(obs_of(x, label, 1.0)).drift) return i;
    }
    return -1;
  };

  const int small = detect_at(10);
  const int large = detect_at(100);
  ASSERT_GE(small, 0);
  ASSERT_GE(large, 0);
  EXPECT_LE(small, large);
  EXPECT_GE(large, 99);  // Cannot close a 100-window before 100 samples.
}

TEST(CentroidDetector, MemoryIsConstantInStreamLength) {
  Rng rng(12);
  auto cal = make_training(rng);
  CentroidDetector det(base_config());
  det.calibrate(cal.x, cal.labels);
  const std::size_t before = det.memory_bytes();

  std::vector<double> x(4);
  for (int i = 0; i < 5000; ++i) {
    for (auto& v : x) v = rng.gaussian(0.0, 0.2);
    det.observe(obs_of(x, i % 2, 1.0));
  }
  EXPECT_EQ(det.memory_bytes(), before);
}

TEST(CentroidDetector, NameIsStable) {
  CentroidDetector det(base_config());
  EXPECT_EQ(det.name(), "proposed");
}

TEST(CentroidDetector, LocalizesDriftedDimensions) {
  Rng rng(13);
  auto cal = make_training(rng);
  CentroidDetector det(base_config());
  det.calibrate(cal.x, cal.labels);

  // Drift only in dimensions 1 and 3: shift samples there by +2.
  std::vector<double> x(4);
  for (int i = 0; i < 200; ++i) {
    const int label = i % 2;
    const double anchor = label == 0 ? 0.0 : 3.0;
    x[0] = rng.gaussian(anchor, 0.2);
    x[1] = rng.gaussian(anchor + 2.0, 0.2);
    x[2] = rng.gaussian(anchor, 0.2);
    x[3] = rng.gaussian(anchor + 2.0, 0.2);
    det.observe(obs_of(x, label, 1.0));
  }
  const auto top = det.top_drifted_dimensions(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_TRUE((top[0] == 1 && top[1] == 3) || (top[0] == 3 && top[1] == 1))
      << "got dims " << top[0] << ", " << top[1];

  // Per-label displacements are positive for both labels.
  std::vector<double> per_label(2);
  det.per_label_distances(per_label);
  EXPECT_GT(per_label[0], 1.0);
  EXPECT_GT(per_label[1], 1.0);
}

TEST(CentroidDetector, TopDriftedDimensionsClampsK) {
  CentroidDetector det(base_config());
  Rng rng(14);
  auto cal = make_training(rng);
  det.calibrate(cal.x, cal.labels);
  EXPECT_EQ(det.top_drifted_dimensions(100).size(), 4u);  // dim = 4.
}

// The statistic: last_distance() and per_label_distances() must equal a
// full recompute from the public centroids bit for bit — through a window
// that fires and through every path that rewrites the recent or trained
// centroids.
TEST(CentroidDetector, CachedStatisticMatchesFullSweep) {
  constexpr std::size_t kDim = 6;
  for (const std::size_t labels : {1UL, 2UL, 23UL}) {
    for (const double decay : {0.0, 0.1}) {
      SCOPED_TRACE("C=" + std::to_string(labels) +
                   " ewma_decay=" + std::to_string(decay));
      Rng rng(100 + labels);
      CentroidDetectorConfig config;
      config.num_labels = labels;
      config.dim = kDim;
      config.window_size = 10;
      config.theta_error = 0.5;
      config.ewma_decay = decay;
      config.initial_count = 0;
      CentroidDetector det(config);

      const auto anchor = [](std::size_t c) {
        return 3.0 * static_cast<double>(c);
      };
      Matrix train(labels * 30, kDim);
      std::vector<int> train_labels(train.rows());
      for (std::size_t i = 0; i < train.rows(); ++i) {
        train_labels[i] = static_cast<int>(i % labels);
        for (std::size_t j = 0; j < kDim; ++j) {
          train(i, j) = rng.gaussian(anchor(i % labels), 0.2);
        }
      }
      det.calibrate(train, train_labels);

      std::vector<double> want(labels), got(labels);
      const auto expect_cache_matches = [&](const char* where) {
        double total = 0.0;
        for (std::size_t c = 0; c < labels; ++c) {
          want[c] = edgedrift::linalg::l1_distance(
              det.recent_centroids().row(c), det.trained_centroids().row(c));
          total += want[c];
        }
        det.per_label_distances(got);
        for (std::size_t c = 0; c < labels; ++c) {
          EXPECT_EQ(got[c], want[c]) << where << " label " << c;
        }
        return total;
      };

      // Every third sample is below the gate; a sample is folded (and the
      // statistic re-evaluated) when the window is open or it opens one.
      std::vector<double> x(kDim);
      std::size_t fired = 0;
      const auto drive = [&](std::size_t rows, double shift,
                             const char* where) {
        for (std::size_t i = 0; i < rows; ++i) {
          const std::size_t c = rng.uniform_index(labels);
          for (auto& v : x) v = rng.gaussian(anchor(c) + shift, 0.2);
          const double score = i % 3 == 2 ? 0.1 : 1.0;
          const bool folded =
              det.window_open() || score >= config.theta_error;
          const Detection d = det.observe(obs_of(x, static_cast<int>(c),
                                                 score));
          if (d.drift) ++fired;
          const double total = expect_cache_matches(where);
          if (folded) {
            EXPECT_EQ(det.last_distance(), total) << where;
          }
        }
      };

      drive(40, 0.0, "stationary");
      drive(60, 5.0, "shifted");
      EXPECT_GT(fired, 0u) << "the shifted windows must fire";

      det.reset();
      expect_cache_matches("reset");
      drive(15, 5.0, "after reset");

      const Matrix moved = det.recent_centroids();
      const std::vector<std::size_t> counts(det.counts().begin(),
                                            det.counts().end());
      det.rearm(moved, counts, det.theta_drift());
      expect_cache_matches("rearm");
      drive(15, 0.0, "after rearm");

      const Matrix trained = det.trained_centroids();
      Matrix recent = trained;
      for (std::size_t c = 0; c < labels; ++c) recent(c, c % kDim) += 1.5;
      det.restore(trained, recent, counts, counts, det.theta_drift(), {});
      expect_cache_matches("restore");
      drive(15, 0.0, "after restore");
    }
  }
}

}  // namespace
