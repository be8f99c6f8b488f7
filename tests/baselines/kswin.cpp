#include "baselines/kswin.hpp"

#include <algorithm>
#include <cmath>

#include "edgedrift/util/assert.hpp"

namespace edgedrift::drift {

Kswin::Kswin(KswinConfig config) : config_(config), rng_(config.seed) {
  EDGEDRIFT_ASSERT(config_.stat_size > 0, "stat_size must be positive");
  EDGEDRIFT_ASSERT(config_.window_size >= 2 * config_.stat_size,
                   "window must hold at least two stat slices");
  EDGEDRIFT_ASSERT(config_.alpha > 0.0 && config_.alpha < 1.0,
                   "alpha must be in (0, 1)");
  // Two-sample KS critical value: c(alpha) * sqrt((n+m)/(n*m)) with
  // n = m = stat_size and c(alpha) = sqrt(-ln(alpha/2) / 2).
  const double n = static_cast<double>(config_.stat_size);
  threshold_ = std::sqrt(-std::log(config_.alpha / 2.0) / 2.0) *
               std::sqrt(2.0 / n);
}

double Kswin::ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double inv_a = 1.0 / static_cast<double>(a.size());
  const double inv_b = 1.0 / static_cast<double>(b.size());
  std::size_t ia = 0, ib = 0;
  double cdf_a = 0.0, cdf_b = 0.0, best = 0.0;
  while (ia < a.size() && ib < b.size()) {
    if (a[ia] <= b[ib]) {
      cdf_a = static_cast<double>(++ia) * inv_a;
    } else {
      cdf_b = static_cast<double>(++ib) * inv_b;
    }
    best = std::max(best, std::abs(cdf_a - cdf_b));
  }
  return best;
}

bool Kswin::insert(double value) {
  window_.push_back(value);
  if (window_.size() > config_.window_size) window_.pop_front();
  if (window_.size() < config_.window_size) {
    last_stat_ = 0.0;
    return false;
  }

  // Recent slice: the newest stat_size values.
  std::vector<double> recent(window_.end() - config_.stat_size,
                             window_.end());
  // Older part: uniform subsample of stat_size values from the rest.
  const std::size_t older_len = window_.size() - config_.stat_size;
  std::vector<double> older(config_.stat_size);
  for (auto& v : older) {
    v = window_[rng_.uniform_index(older_len)];
  }

  last_stat_ = ks_statistic(std::move(recent), std::move(older));
  if (last_stat_ > threshold_) {
    // Drop the old regime: keep only the recent slice, as KSWIN does.
    window_.erase(window_.begin(), window_.end() - config_.stat_size);
    return true;
  }
  return false;
}

Detection Kswin::observe(const Observation& obs) {
  const double value =
      config_.use_anomaly_score ? obs.anomaly_score : (obs.error ? 1.0 : 0.0);
  Detection result;
  result.drift = insert(value);
  result.statistic = last_stat_;
  result.statistic_valid = window_fill() >= config_.window_size ||
                           result.drift;
  return result;
}

void Kswin::reset() {
  window_.clear();
  last_stat_ = 0.0;
}

std::size_t Kswin::memory_bytes() const {
  return window_.size() * sizeof(double) + sizeof(*this);
}

}  // namespace edgedrift::drift
