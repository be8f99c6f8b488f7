#include "baselines/ddm.hpp"

#include <cmath>

namespace edgedrift::drift {

Ddm::Ddm(DdmConfig config) : config_(config) {}

double Ddm::error_rate() const {
  // Laplace-smoothed error rate: keeps p (and hence s) strictly positive so
  // an error-free warm-up cannot register a degenerate zero minimum that
  // would make every later error fire a drift.
  return (static_cast<double>(errors_) + 1.0) /
         (static_cast<double>(samples_) + 2.0);
}

Detection Ddm::observe(const Observation& obs) {
  ++samples_;
  if (obs.error) ++errors_;

  Detection result;
  if (samples_ < config_.min_samples) return result;

  const double p = error_rate();
  const double s = std::sqrt(p * (1.0 - p) / static_cast<double>(samples_));
  result.statistic = p + s;
  result.statistic_valid = true;

  if (!has_min_ || p + s < min_p_plus_s_) {
    min_p_plus_s_ = p + s;
    min_p_ = p;
    min_s_ = s;
    has_min_ = true;
  }

  if (p + s > min_p_ + config_.drift_factor * min_s_) {
    result.drift = true;
  } else if (p + s > min_p_ + config_.warning_factor * min_s_) {
    result.warning = true;
  }
  return result;
}

void Ddm::reset() {
  samples_ = 0;
  errors_ = 0;
  min_p_plus_s_ = 0.0;
  min_p_ = 0.0;
  min_s_ = 0.0;
  has_min_ = false;
}

}  // namespace edgedrift::drift
