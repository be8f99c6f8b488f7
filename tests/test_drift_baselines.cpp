// Tests for the baseline detectors: QuantTree, SPLL, DDM, ADWIN,
// Page–Hinkley, and the multi-window ensemble extension.
#include <gtest/gtest.h>

#include <cmath>

#include "edgedrift/drift/multi_window.hpp"
#include "edgedrift/util/rng.hpp"
#include "baselines/adwin.hpp"
#include "baselines/ddm.hpp"
#include "baselines/page_hinkley.hpp"
#include "baselines/quanttree.hpp"
#include "baselines/spll.hpp"

namespace {

using edgedrift::drift::Adwin;
using edgedrift::drift::AdwinConfig;
using edgedrift::drift::Ddm;
using edgedrift::drift::Detection;
using edgedrift::drift::Observation;
using edgedrift::drift::PageHinkley;
using edgedrift::drift::PageHinkleyConfig;
using edgedrift::drift::QuantTree;
using edgedrift::drift::QuantTreeConfig;
using edgedrift::drift::Spll;
using edgedrift::drift::SpllConfig;
using edgedrift::linalg::Matrix;
using edgedrift::util::Rng;

Matrix gaussian_blob(Rng& rng, std::size_t n, std::size_t d, double mean,
                     double sigma = 0.5) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.gaussian(mean, sigma);
  }
  return x;
}

Observation feature_obs(std::span<const double> x) {
  Observation obs;
  obs.x = x;
  return obs;
}

// ----------------------------------------------------------------- QuantTree

QuantTreeConfig qt_config(std::size_t bins = 8, std::size_t batch = 64) {
  QuantTreeConfig config;
  config.num_bins = bins;
  config.batch_size = batch;
  config.alpha = 0.01;
  config.monte_carlo_trials = 2000;
  return config;
}

TEST(QuantTree, BinsArePopulatedUniformlyOnReference) {
  Rng rng(1);
  const Matrix reference = gaussian_blob(rng, 800, 5, 0.0);
  QuantTree qt(qt_config(8));
  qt.fit(reference);

  std::vector<std::size_t> counts(8, 0);
  for (std::size_t i = 0; i < reference.rows(); ++i) {
    ++counts[qt.bin_of(reference.row(i))];
  }
  for (const auto c : counts) {
    // Expected 100 per bin; accept a generous tolerance (ties move points).
    EXPECT_GT(c, 40u);
    EXPECT_LT(c, 200u);
  }
}

TEST(QuantTree, StatisticSmallOnSameDistribution) {
  Rng rng(2);
  QuantTree qt(qt_config());
  qt.fit(gaussian_blob(rng, 800, 4, 0.0));
  const Matrix same = gaussian_blob(rng, 64, 4, 0.0);
  EXPECT_LT(qt.statistic(same), qt.threshold() * 1.5);
}

TEST(QuantTree, StatisticLargeOnShiftedDistribution) {
  Rng rng(3);
  QuantTree qt(qt_config());
  qt.fit(gaussian_blob(rng, 800, 4, 0.0));
  const Matrix shifted = gaussian_blob(rng, 64, 4, 2.0);
  EXPECT_GT(qt.statistic(shifted), qt.threshold());
}

TEST(QuantTree, ObserveFiresOnlyAtBatchBoundaries) {
  Rng rng(4);
  QuantTree qt(qt_config(8, 32));
  qt.fit(gaussian_blob(rng, 400, 3, 0.0));

  const Matrix stream = gaussian_blob(rng, 31, 3, 0.0);
  for (std::size_t i = 0; i < 31; ++i) {
    const Detection d = qt.observe(feature_obs(stream.row(i)));
    EXPECT_FALSE(d.statistic_valid);
  }
  const Matrix last = gaussian_blob(rng, 1, 3, 0.0);
  const Detection d = qt.observe(feature_obs(last.row(0)));
  EXPECT_TRUE(d.statistic_valid);
}

TEST(QuantTree, DetectsDriftInStreamingMode) {
  Rng rng(5);
  QuantTree qt(qt_config(8, 64));
  qt.fit(gaussian_blob(rng, 800, 4, 0.0));

  // Two clean batches, then shifted batches.
  int detect_batch = -1;
  for (int batch = 0; batch < 6; ++batch) {
    const double mean = batch < 2 ? 0.0 : 2.0;
    const Matrix b = gaussian_blob(rng, 64, 4, mean);
    for (std::size_t i = 0; i < 64; ++i) {
      const Detection d = qt.observe(feature_obs(b.row(i)));
      if (d.drift && detect_batch < 0) detect_batch = batch;
    }
  }
  EXPECT_GE(detect_batch, 2);
  EXPECT_LE(detect_batch, 3);
}

TEST(QuantTree, FalsePositiveRateNearAlpha) {
  Rng rng(6);
  QuantTree qt(qt_config(8, 64));
  qt.fit(gaussian_blob(rng, 2000, 3, 0.0));

  int fires = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const Matrix b = gaussian_blob(rng, 64, 3, 0.0);
    if (qt.statistic(b) > qt.threshold()) ++fires;
  }
  // alpha = 0.01; allow up to ~5% (finite-reference effects inflate it).
  EXPECT_LT(fires, trials / 20 + 3);
}

TEST(QuantTree, MemoryDominatedByBatchBuffer) {
  Rng rng(7);
  QuantTreeConfig small = qt_config(8, 32);
  QuantTreeConfig large = qt_config(8, 512);
  QuantTree a(small), b(large);
  const Matrix reference = gaussian_blob(rng, 800, 10, 0.0);
  a.fit(reference);
  b.fit(reference);
  EXPECT_GT(b.memory_bytes(), a.memory_bytes() * 8);
}

TEST(QuantTree, RebuildReferenceAdaptsToNewConcept) {
  Rng rng(8);
  QuantTree qt(qt_config(8, 64));
  qt.fit(gaussian_blob(rng, 800, 4, 0.0));
  const Matrix new_concept = gaussian_blob(rng, 800, 4, 3.0);
  qt.fit(new_concept);
  // After refit, the new concept is in-distribution.
  const Matrix batch = gaussian_blob(rng, 64, 4, 3.0);
  EXPECT_LT(qt.statistic(batch), qt.threshold() * 1.5);
}

// ---------------------------------------------------------------------- SPLL

SpllConfig spll_config(std::size_t clusters = 2, std::size_t batch = 64) {
  SpllConfig config;
  config.num_clusters = clusters;
  config.batch_size = batch;
  config.bootstrap_trials = 200;
  return config;
}

TEST(Spll, StatisticSmallOnSameDistribution) {
  Rng rng(9);
  Spll spll(spll_config());
  spll.fit(gaussian_blob(rng, 600, 4, 0.0));
  const Matrix same = gaussian_blob(rng, 64, 4, 0.0);
  EXPECT_LT(spll.statistic(same), spll.threshold() * 1.2);
}

TEST(Spll, StatisticLargeOnShiftedDistribution) {
  Rng rng(10);
  Spll spll(spll_config());
  spll.fit(gaussian_blob(rng, 600, 4, 0.0));
  const Matrix shifted = gaussian_blob(rng, 64, 4, 1.5);
  EXPECT_GT(spll.statistic(shifted), spll.threshold());
}

TEST(Spll, StatisticGrowsMonotonicallyWithShift) {
  Rng rng(11);
  Spll spll(spll_config());
  spll.fit(gaussian_blob(rng, 600, 4, 0.0));
  double previous = 0.0;
  for (const double shift : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    const Matrix b = gaussian_blob(rng, 128, 4, shift);
    const double stat = spll.statistic(b);
    EXPECT_GE(stat, previous * 0.9);  // Allow sampling noise.
    previous = stat;
  }
}

TEST(Spll, DetectsDriftInStreamingMode) {
  Rng rng(12);
  Spll spll(spll_config(2, 64));
  spll.fit(gaussian_blob(rng, 600, 4, 0.0));

  int detect_batch = -1;
  for (int batch = 0; batch < 6; ++batch) {
    const double mean = batch < 2 ? 0.0 : 1.5;
    const Matrix b = gaussian_blob(rng, 64, 4, mean);
    for (std::size_t i = 0; i < 64; ++i) {
      if (spll.observe(feature_obs(b.row(i))).drift && detect_batch < 0) {
        detect_batch = batch;
      }
    }
  }
  EXPECT_EQ(detect_batch, 2);
}

TEST(Spll, MemoryIncludesReferenceWindow) {
  Rng rng(13);
  Spll spll(spll_config(2, 64));
  const Matrix reference = gaussian_blob(rng, 600, 8, 0.0);
  spll.fit(reference);
  // Must retain at least the reference window + batch buffer.
  EXPECT_GE(spll.memory_bytes(),
            reference.memory_bytes() + 64 * 8 * sizeof(double));
}

TEST(Spll, TwoClusterReferenceIsHandled) {
  Rng rng(14);
  Matrix two_blob(400, 3);
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      two_blob(i, j) = rng.gaussian(0.0, 0.3);
      two_blob(200 + i, j) = rng.gaussian(5.0, 0.3);
    }
  }
  Spll spll(spll_config(2, 64));
  spll.fit(two_blob);
  // Batches from either blob are in-distribution.
  Matrix blob_a = gaussian_blob(rng, 64, 3, 0.0, 0.3);
  Matrix blob_b = gaussian_blob(rng, 64, 3, 5.0, 0.3);
  EXPECT_LT(spll.statistic(blob_a), spll.threshold() * 1.3);
  EXPECT_LT(spll.statistic(blob_b), spll.threshold() * 1.3);
  // A batch between the blobs is out-of-distribution.
  Matrix between = gaussian_blob(rng, 64, 3, 2.5, 0.3);
  EXPECT_GT(spll.statistic(between), spll.threshold());
}

// ----------------------------------------------------------------------- DDM

Observation error_obs(bool error) {
  Observation obs;
  obs.error = error;
  return obs;
}

TEST(Ddm, QuietOnConstantErrorRate) {
  Rng rng(15);
  Ddm ddm;
  int drifts = 0;
  for (int i = 0; i < 2000; ++i) {
    const Detection d = ddm.observe(error_obs(rng.bernoulli(0.1)));
    drifts += d.drift ? 1 : 0;
  }
  EXPECT_EQ(drifts, 0);
}

TEST(Ddm, FiresWhenErrorRateJumps) {
  Rng rng(16);
  Ddm ddm;
  bool warned = false;
  int detected_at = -1;
  for (int i = 0; i < 4000; ++i) {
    const double p = i < 2000 ? 0.05 : 0.5;
    const Detection d = ddm.observe(error_obs(rng.bernoulli(p)));
    warned |= d.warning;
    if (d.drift) {
      detected_at = i;
      break;
    }
  }
  ASSERT_GE(detected_at, 2000);
  EXPECT_LT(detected_at, 2400);
  EXPECT_TRUE(warned);
}

TEST(Ddm, ResetClearsState) {
  Rng rng(17);
  Ddm ddm;
  for (int i = 0; i < 100; ++i) ddm.observe(error_obs(rng.bernoulli(0.2)));
  ddm.reset();
  EXPECT_EQ(ddm.samples(), 0u);
  // Laplace-smoothed rate returns to the (1)/(2) prior after reset.
  EXPECT_DOUBLE_EQ(ddm.error_rate(), 0.5);
}

// --------------------------------------------------------------------- ADWIN

TEST(Adwin, WindowGrowsOnStationaryStream) {
  Rng rng(18);
  Adwin adwin;
  for (int i = 0; i < 1000; ++i) adwin.insert(rng.bernoulli(0.3) ? 1.0 : 0.0);
  EXPECT_EQ(adwin.window_length(), 1000u);
  EXPECT_NEAR(adwin.mean(), 0.3, 0.06);
}

TEST(Adwin, ShrinksWindowAndFiresOnMeanShift) {
  Rng rng(19);
  Adwin adwin;
  bool fired = false;
  for (int i = 0; i < 1000; ++i) adwin.insert(rng.bernoulli(0.1) ? 1.0 : 0.0);
  for (int i = 0; i < 1000 && !fired; ++i) {
    fired = adwin.insert(rng.bernoulli(0.7) ? 1.0 : 0.0);
  }
  EXPECT_TRUE(fired);
  // The old low-mean data must have been dropped.
  EXPECT_LT(adwin.window_length(), 1500u);
  EXPECT_GT(adwin.mean(), 0.29);
}

TEST(Adwin, MemoryIsLogarithmicInWindow) {
  Rng rng(20);
  Adwin adwin;
  for (int i = 0; i < 20000; ++i) adwin.insert(rng.uniform());
  // 20000 samples compressed into exponential buckets: far below raw size.
  EXPECT_LT(adwin.memory_bytes(), 20000 * sizeof(double) / 10);
}

TEST(Adwin, ObserveRoutesErrorSignal) {
  Rng rng(21);
  Adwin adwin;
  bool fired = false;
  for (int i = 0; i < 800; ++i) {
    fired |= adwin.observe(error_obs(false)).drift;
  }
  EXPECT_FALSE(fired);
  for (int i = 0; i < 800 && !fired; ++i) {
    fired |= adwin.observe(error_obs(true)).drift;
  }
  EXPECT_TRUE(fired);
}

// -------------------------------------------------------------- Page-Hinkley

TEST(PageHinkley, QuietOnStationaryScores) {
  Rng rng(22);
  PageHinkleyConfig config;
  config.lambda = 20.0;
  PageHinkley ph(config);
  int fires = 0;
  for (int i = 0; i < 5000; ++i) {
    fires += ph.insert(rng.gaussian(1.0, 0.2)) ? 1 : 0;
  }
  EXPECT_EQ(fires, 0);
}

TEST(PageHinkley, FiresOnLevelShift) {
  Rng rng(23);
  PageHinkleyConfig config;
  config.lambda = 20.0;
  PageHinkley ph(config);
  for (int i = 0; i < 2000; ++i) ph.insert(rng.gaussian(1.0, 0.2));
  int detected_at = -1;
  for (int i = 0; i < 2000; ++i) {
    if (ph.insert(rng.gaussian(2.0, 0.2))) {
      detected_at = i;
      break;
    }
  }
  ASSERT_GE(detected_at, 0);
  EXPECT_LT(detected_at, 100);
}

// --------------------------------------------------------------- MultiWindow

TEST(MultiWindow, MembersHaveRequestedWindowSizes) {
  edgedrift::drift::CentroidDetectorConfig base;
  base.num_labels = 2;
  base.dim = 4;
  base.theta_error = 0.5;
  base.initial_count = 0;
  const std::vector<std::size_t> windows{10, 50, 150};
  edgedrift::drift::MultiWindowDetector ensemble(base, windows);
  ASSERT_EQ(ensemble.members(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ensemble.member(i).config().window_size, windows[i]);
  }
}

TEST(MultiWindow, MajorityVoteFiresOnRealDrift) {
  Rng rng(24);
  edgedrift::drift::CentroidDetectorConfig base;
  base.num_labels = 1;
  base.dim = 4;
  base.theta_error = 0.5;
  base.initial_count = 0;
  const std::vector<std::size_t> windows{10, 20, 40};
  edgedrift::drift::MultiWindowDetector ensemble(base, windows);

  Matrix train(200, 4);
  std::vector<int> labels(200, 0);
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t j = 0; j < 4; ++j) train(i, j) = rng.gaussian(0.0, 0.2);
  }
  ensemble.calibrate(train, labels);

  std::vector<double> x(4);
  int fired_at = -1;
  for (int i = 0; i < 600; ++i) {
    for (auto& v : x) v = rng.gaussian(2.0, 0.2);
    Observation obs;
    obs.x = x;
    obs.predicted_label = 0;
    obs.anomaly_score = 1.0;
    if (ensemble.observe(obs).drift) {
      fired_at = i;
      break;
    }
  }
  ASSERT_GE(fired_at, 0);
  // Majority of {10,20,40} windows: needs at least 2 windows to close.
  EXPECT_GE(fired_at, 19);
}

TEST(MultiWindow, QuietOnStationaryStream) {
  Rng rng(25);
  edgedrift::drift::CentroidDetectorConfig base;
  base.num_labels = 1;
  base.dim = 4;
  base.theta_error = 0.5;
  base.initial_count = 0;
  const std::vector<std::size_t> windows{10, 20};
  edgedrift::drift::MultiWindowDetector ensemble(base, windows);

  Matrix train(200, 4);
  std::vector<int> labels(200, 0);
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t j = 0; j < 4; ++j) train(i, j) = rng.gaussian(0.0, 0.2);
  }
  ensemble.calibrate(train, labels);

  std::vector<double> x(4);
  int drifts = 0;
  for (int i = 0; i < 600; ++i) {
    for (auto& v : x) v = rng.gaussian(0.0, 0.2);
    Observation obs;
    obs.x = x;
    obs.predicted_label = 0;
    obs.anomaly_score = 1.0;
    drifts += ensemble.observe(obs).drift ? 1 : 0;
  }
  EXPECT_EQ(drifts, 0);
}

}  // namespace
