#include "baselines/quanttree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "edgedrift/util/assert.hpp"
#include "edgedrift/util/rng.hpp"

namespace edgedrift::drift {

QuantTree::QuantTree(QuantTreeConfig config) : config_(config) {
  EDGEDRIFT_ASSERT(config_.num_bins >= 2, "need at least two bins");
  EDGEDRIFT_ASSERT(config_.batch_size > 0, "batch size must be positive");
  EDGEDRIFT_ASSERT(config_.alpha > 0.0 && config_.alpha < 1.0,
                   "alpha must be in (0, 1)");
  bin_probs_.assign(config_.num_bins, 1.0 / double(config_.num_bins));
  counts_.assign(config_.num_bins, 0);
}

void QuantTree::fit(const linalg::Matrix& reference) {
  const std::size_t n = reference.rows();
  const std::size_t k = config_.num_bins;
  EDGEDRIFT_ASSERT(n >= k, "reference must hold at least K samples");

  util::Rng rng(config_.seed);
  splits_.clear();
  splits_.reserve(k - 1);

  // Remaining reference rows not yet captured by a bin.
  std::vector<std::size_t> remaining(n);
  std::iota(remaining.begin(), remaining.end(), 0);
  std::vector<double> values;

  for (std::size_t bin = 0; bin + 1 < k; ++bin) {
    // Target count for this bin out of what remains: keep the residual bins
    // balanced, i.e. floor(remaining / bins_left).
    const std::size_t bins_left = k - bin;
    const std::size_t take = std::max<std::size_t>(
        1, remaining.size() / bins_left);

    Split split;
    split.dim = rng.uniform_index(reference.cols());
    split.low_side = rng.bernoulli(0.5);

    values.resize(remaining.size());
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      values[i] = reference(remaining[i], split.dim);
    }
    // The cut captures exactly `take` points from the chosen tail.
    const auto nth = values.begin() + (take - 1);
    if (split.low_side) {
      std::nth_element(values.begin(), nth, values.end());
    } else {
      std::nth_element(values.begin(), nth, values.end(),
                       std::greater<double>());
    }
    split.threshold = *nth;
    splits_.push_back(split);

    // Remove captured points. Ties on the threshold can capture more than
    // `take` points; that is fine — the Monte Carlo calibration below uses
    // the ideal uniform probabilities, matching the QuantTree analysis.
    std::vector<std::size_t> kept;
    kept.reserve(remaining.size());
    for (const std::size_t row : remaining) {
      const double v = reference(row, split.dim);
      const bool captured =
          split.low_side ? (v <= split.threshold) : (v >= split.threshold);
      if (!captured) kept.push_back(row);
    }
    // Degenerate reference (many identical values) can capture everything;
    // keep at least one point per residual bin by re-adding arbitrarily.
    if (kept.empty()) kept.push_back(remaining.front());
    remaining.swap(kept);
  }

  calibrate_threshold();
  buffer_.resize_zero(config_.batch_size, reference.cols());
  buffered_ = 0;
  fitted_ = true;
}

std::size_t QuantTree::bin_of(std::span<const double> x) const {
  EDGEDRIFT_ASSERT(fitted_, "bin_of() before fit()");
  for (std::size_t k = 0; k < splits_.size(); ++k) {
    const Split& s = splits_[k];
    const double v = x[s.dim];
    const bool captured = s.low_side ? (v <= s.threshold) : (v >= s.threshold);
    if (captured) return k;
  }
  return splits_.size();  // Remainder bin.
}

double QuantTree::statistic(const linalg::Matrix& batch) const {
  EDGEDRIFT_ASSERT(fitted_, "statistic() before fit()");
  std::vector<std::size_t> counts(config_.num_bins, 0);
  for (std::size_t i = 0; i < batch.rows(); ++i) {
    ++counts[bin_of(batch.row(i))];
  }
  return pearson_statistic(counts, batch.rows());
}

double QuantTree::pearson_statistic(std::span<const std::size_t> counts,
                                    std::size_t batch_rows) const {
  const double b = static_cast<double>(batch_rows);
  double stat = 0.0;
  for (std::size_t k = 0; k < config_.num_bins; ++k) {
    const double expected = b * bin_probs_[k];
    const double delta = static_cast<double>(counts[k]) - expected;
    stat += delta * delta / expected;
  }
  return stat;
}

void QuantTree::calibrate_threshold() {
  // Under H0 the bin counts are (asymptotically in the reference size)
  // multinomial(B, pi); simulate the Pearson statistic and take the
  // (1 - alpha) quantile.
  util::Rng rng(config_.seed ^ 0xabcdef12345ULL);
  const std::size_t trials = config_.monte_carlo_trials;
  std::vector<double> stats(trials);
  std::vector<std::size_t> counts(config_.num_bins);
  for (std::size_t t = 0; t < trials; ++t) {
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < config_.batch_size; ++i) {
      // Uniform bins: direct index draw.
      ++counts[rng.uniform_index(config_.num_bins)];
    }
    stats[t] = pearson_statistic(counts, config_.batch_size);
  }
  std::sort(stats.begin(), stats.end());
  const auto idx = static_cast<std::size_t>(
      std::min<double>(double(trials) - 1.0,
                       std::ceil((1.0 - config_.alpha) * double(trials))));
  threshold_ = stats[idx];
}

Detection QuantTree::observe(const Observation& obs) {
  EDGEDRIFT_ASSERT(fitted_, "observe() before fit()");
  EDGEDRIFT_ASSERT(obs.x.size() == buffer_.cols(), "sample dim mismatch");
  buffer_.set_row(buffered_++, obs.x);
  Detection result;
  if (buffered_ == config_.batch_size) {
    // Full batch: bin it, emit the Pearson statistic, drop the buffer.
    std::fill(counts_.begin(), counts_.end(), 0);
    for (std::size_t i = 0; i < buffered_; ++i) {
      ++counts_[bin_of(buffer_.row(i))];
    }
    result.statistic = pearson_statistic(counts_, buffered_);
    result.statistic_valid = true;
    result.drift = result.statistic > threshold_;
    buffered_ = 0;
  }
  return result;
}

void QuantTree::reset() { buffered_ = 0; }

std::size_t QuantTree::memory_bytes() const {
  // The dominant term is the B x D batch buffer — exactly what makes batch
  // detectors unsuitable for a 264 kB microcontroller (paper Section 5.3).
  return buffer_.memory_bytes() + splits_.capacity() * sizeof(Split) +
         bin_probs_.capacity() * sizeof(double) +
         counts_.capacity() * sizeof(std::size_t);
}

}  // namespace edgedrift::drift
