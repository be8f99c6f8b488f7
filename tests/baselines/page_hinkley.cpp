#include "baselines/page_hinkley.hpp"

#include <algorithm>

namespace edgedrift::drift {

PageHinkley::PageHinkley(PageHinkleyConfig config) : config_(config) {}

Detection PageHinkley::observe(const Observation& obs) {
  const double value =
      config_.use_anomaly_score ? obs.anomaly_score : (obs.error ? 1.0 : 0.0);
  Detection result;
  result.drift = insert(value);
  result.statistic = cumulative_ - minimum_;
  result.statistic_valid = samples_ >= config_.min_samples;
  return result;
}

bool PageHinkley::insert(double value) {
  ++samples_;
  // Incremental mean of everything seen since the last reset.
  running_mean_ += (value - running_mean_) / static_cast<double>(samples_);
  cumulative_ = config_.alpha * cumulative_ +
                (value - running_mean_ - config_.delta);
  minimum_ = std::min(minimum_, cumulative_);
  if (samples_ < config_.min_samples) return false;
  return cumulative_ - minimum_ > config_.lambda;
}

void PageHinkley::reset() {
  samples_ = 0;
  running_mean_ = 0.0;
  cumulative_ = 0.0;
  minimum_ = 0.0;
}

}  // namespace edgedrift::drift
