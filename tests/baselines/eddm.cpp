#include "baselines/eddm.hpp"

#include <cmath>

namespace edgedrift::drift {

Eddm::Eddm(EddmConfig config) : config_(config) {}

Detection Eddm::observe(const Observation& obs) {
  ++samples_;
  Detection result;
  if (!obs.error) return result;

  // Gap between this error and the previous one.
  const double gap = static_cast<double>(samples_ - last_error_at_);
  last_error_at_ = samples_;
  ++errors_;

  // Welford update of the gap mean/variance.
  const double delta = gap - gap_mean_;
  gap_mean_ += delta / static_cast<double>(errors_);
  gap_m2_ += delta * (gap - gap_mean_);

  if (errors_ < config_.min_errors) return result;

  const double variance = gap_m2_ / static_cast<double>(errors_);
  const double score = gap_mean_ + 2.0 * std::sqrt(std::max(0.0, variance));
  if (score > best_score_) best_score_ = score;
  if (best_score_ <= 0.0) return result;

  const double ratio = score / best_score_;
  result.statistic = ratio;
  result.statistic_valid = true;
  if (ratio < config_.drift_ratio) {
    result.drift = true;
  } else if (ratio < config_.warning_ratio) {
    result.warning = true;
  }
  return result;
}

void Eddm::reset() {
  samples_ = 0;
  errors_ = 0;
  last_error_at_ = 0;
  gap_mean_ = 0.0;
  gap_m2_ = 0.0;
  best_score_ = 0.0;
}

}  // namespace edgedrift::drift
