// QuantTree (Boracchi et al., ICML 2018): histogram-based change detection
// for multivariate streams.
//
// Construction recursively splits the reference data with axis-aligned cuts
// so each of the K bins holds the same fraction of reference points; by the
// probability-integral argument of the paper, the distribution of the test
// statistic then depends only on (B, K), not on the data distribution, so
// the detection threshold can be calibrated once by Monte Carlo over
// multinomial draws.
//
// This is the paper's first batch baseline: it buffers B samples per test
// (the memory cost Table 4 charges it for) and emits one Pearson statistic
// per full batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "edgedrift/drift/detector.hpp"
#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::drift {

/// QuantTree tunables.
struct QuantTreeConfig {
  std::size_t num_bins = 32;     ///< K (paper: 32 for NSL-KDD, 16 for fan).
  std::size_t batch_size = 480;  ///< B (paper: 480 / 235).
  double alpha = 0.01;           ///< False-positive rate of the threshold.
  std::size_t monte_carlo_trials = 4000;
  std::uint64_t seed = 7;
};

/// Histogram change detector with a distribution-free threshold.
class QuantTree : public Detector {
 public:
  explicit QuantTree(QuantTreeConfig config);

  /// Builds the tree from reference (pre-drift) data and calibrates the
  /// Pearson-statistic threshold by Monte Carlo.
  void fit(const linalg::Matrix& reference);

  /// Bin index of a single sample (exposed for tests).
  std::size_t bin_of(std::span<const double> x) const;

  /// Pearson statistic of an explicit batch (exposed for tests/benches).
  double statistic(const linalg::Matrix& batch) const;

  double threshold() const { return threshold_; }

  // Detector interface -------------------------------------------------
  Detection observe(const Observation& obs) override;
  void reset() override;
  /// Fits the reference on the features; the labels are not read.
  void calibrate(const linalg::Matrix& x, std::span<const int>) override {
    fit(x);
  }
  std::size_t memory_bytes() const override;
  std::string_view name() const override { return "quanttree"; }

 private:
  struct Split {
    std::size_t dim = 0;     ///< Axis of the cut.
    double threshold = 0.0;  ///< Cut position.
    bool low_side = true;    ///< Bin takes x[dim] <= threshold if true.
  };

  void calibrate_threshold();
  double pearson_statistic(std::span<const std::size_t> counts,
                           std::size_t batch_rows) const;

  QuantTreeConfig config_;
  std::vector<Split> splits_;       ///< K-1 cuts; last bin is the remainder.
  std::vector<double> bin_probs_;   ///< Target probabilities (uniform 1/K).
  double threshold_ = 0.0;
  bool fitted_ = false;

  linalg::Matrix buffer_;           ///< B x D test-batch buffer.
  std::size_t buffered_ = 0;
  std::vector<std::size_t> counts_; ///< Bin counters reused per batch.
};

}  // namespace edgedrift::drift
