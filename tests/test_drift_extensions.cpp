// Tests for the extension detectors beyond the paper's baseline set:
// EDDM (error-distance) and KSWIN (sliding-window Kolmogorov–Smirnov).
#include <gtest/gtest.h>

#include "edgedrift/util/rng.hpp"
#include "baselines/eddm.hpp"
#include "baselines/kswin.hpp"

namespace {

using edgedrift::drift::Detection;
using edgedrift::drift::Eddm;
using edgedrift::drift::EddmConfig;
using edgedrift::drift::Kswin;
using edgedrift::drift::KswinConfig;
using edgedrift::drift::Observation;
using edgedrift::util::Rng;

Observation error_obs(bool error) {
  Observation obs;
  obs.error = error;
  return obs;
}

Observation score_obs(double score) {
  Observation obs;
  obs.anomaly_score = score;
  return obs;
}

// ----------------------------------------------------------------------EDDM

TEST(Eddm, LowFalsePositiveRateOnStableErrorGaps) {
  // EDDM is known to be false-positive prone on stationary streams (the
  // early high-water mark of p' + 2s' biases the ratio down as estimates
  // tighten); the realistic contract is a LOW rate with reset-on-drift,
  // not zero.
  Rng rng(1);
  Eddm eddm;
  int drifts = 0;
  for (int i = 0; i < 20000; ++i) {
    if (eddm.observe(error_obs(rng.bernoulli(0.05))).drift) {
      ++drifts;
      eddm.reset();  // As a retraining caller would.
    }
  }
  // ~33 warm-up segments of >= 30 errors each; EDDM's documented FP rate
  // with beta_d = 0.90 on geometric gaps is roughly one in four segments.
  EXPECT_LE(drifts, 12);
}

TEST(Eddm, FiresWhenErrorsBunchUp) {
  Rng rng(2);
  Eddm eddm;
  // Long stable phase with sparse errors.
  for (int i = 0; i < 10000; ++i) {
    eddm.observe(error_obs(rng.bernoulli(0.02)));
  }
  // Errors become 25x denser: gaps collapse.
  int detected_at = -1;
  for (int i = 0; i < 4000; ++i) {
    if (eddm.observe(error_obs(rng.bernoulli(0.5))).drift) {
      detected_at = i;
      break;
    }
  }
  ASSERT_GE(detected_at, 0);
  EXPECT_LT(detected_at, 600);
}

TEST(Eddm, WarningZoneExistsBetweenThresholds) {
  // With a wide gap between the warning and drift ratios, ratios inside
  // the band must produce warnings without drifts.
  Rng rng(3);
  EddmConfig config;
  config.warning_ratio = 0.999;  // Nearly any tightening warns.
  config.drift_ratio = 0.05;     // Essentially never drifts.
  Eddm eddm(config);
  for (int i = 0; i < 10000; ++i) {
    eddm.observe(error_obs(rng.bernoulli(0.02)));
  }
  bool warned = false;
  bool drifted = false;
  for (int i = 0; i < 4000; ++i) {
    const Detection d = eddm.observe(error_obs(rng.bernoulli(0.4)));
    warned |= d.warning;
    drifted |= d.drift;
  }
  EXPECT_TRUE(warned);
  EXPECT_FALSE(drifted);
}

TEST(Eddm, ResetClearsHistory) {
  Rng rng(4);
  Eddm eddm;
  for (int i = 0; i < 1000; ++i) {
    eddm.observe(error_obs(rng.bernoulli(0.1)));
  }
  eddm.reset();
  EXPECT_EQ(eddm.errors(), 0u);
  EXPECT_DOUBLE_EQ(eddm.mean_gap(), 0.0);
}

TEST(Eddm, MemoryIsConstant) {
  Eddm eddm;
  EXPECT_EQ(eddm.memory_bytes(), sizeof(Eddm));
}

// ---------------------------------------------------------------------KSWIN

TEST(Kswin, QuietOnStationaryScores) {
  Rng rng(5);
  Kswin kswin;
  int drifts = 0;
  for (int i = 0; i < 5000; ++i) {
    drifts += kswin.insert(rng.gaussian(1.0, 0.1)) ? 1 : 0;
  }
  // alpha = 0.005 over ~4900 tests: a handful of false positives are
  // statistically expected; demand a low rate, not zero.
  EXPECT_LE(drifts, 50);
}

TEST(Kswin, DetectsDistributionShiftQuickly) {
  Rng rng(6);
  Kswin kswin;
  for (int i = 0; i < 2000; ++i) kswin.insert(rng.gaussian(1.0, 0.1));
  int detected_at = -1;
  for (int i = 0; i < 500; ++i) {
    if (kswin.insert(rng.gaussian(2.0, 0.1))) {
      detected_at = i;
      break;
    }
  }
  ASSERT_GE(detected_at, 0);
  EXPECT_LT(detected_at, 60);
}

TEST(Kswin, WindowStaysBounded) {
  Rng rng(7);
  KswinConfig config;
  config.window_size = 80;
  config.stat_size = 20;
  Kswin kswin(config);
  for (int i = 0; i < 1000; ++i) kswin.insert(rng.gaussian());
  EXPECT_LE(kswin.window_fill(), 80u);
  EXPECT_LE(kswin.memory_bytes(), 80 * sizeof(double) + sizeof(Kswin));
}

TEST(Kswin, DriftDropsOldRegime) {
  Rng rng(8);
  KswinConfig config;
  config.window_size = 80;
  config.stat_size = 20;
  Kswin kswin(config);
  for (int i = 0; i < 200; ++i) kswin.insert(rng.gaussian(0.0, 0.1));
  bool fired = false;
  for (int i = 0; i < 200 && !fired; ++i) {
    fired = kswin.insert(rng.gaussian(3.0, 0.1));
  }
  ASSERT_TRUE(fired);
  // After the cut only the recent slice remains.
  EXPECT_EQ(kswin.window_fill(), config.stat_size);
}

TEST(Kswin, ObserveRoutesAnomalyScores) {
  Rng rng(9);
  Kswin kswin;
  bool fired = false;
  for (int i = 0; i < 2000; ++i) {
    kswin.observe(score_obs(rng.gaussian(0.5, 0.05)));
  }
  for (int i = 0; i < 300 && !fired; ++i) {
    fired = kswin.observe(score_obs(rng.gaussian(1.5, 0.05))).drift;
  }
  EXPECT_TRUE(fired);
}

TEST(Kswin, ResetEmptiesWindow) {
  Rng rng(10);
  Kswin kswin;
  for (int i = 0; i < 500; ++i) kswin.insert(rng.gaussian());
  kswin.reset();
  EXPECT_EQ(kswin.window_fill(), 0u);
  EXPECT_DOUBLE_EQ(kswin.last_ks_statistic(), 0.0);
}

}  // namespace
