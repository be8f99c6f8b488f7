#include "baselines/adwin.hpp"

#include <cmath>

#include "edgedrift/util/assert.hpp"

namespace edgedrift::drift {

Adwin::Adwin(AdwinConfig config) : config_(config) {
  EDGEDRIFT_ASSERT(config_.delta > 0.0 && config_.delta < 1.0,
                   "delta must be in (0, 1)");
  EDGEDRIFT_ASSERT(config_.max_buckets >= 2, "need at least two buckets/row");
  rows_.emplace_back();
}

Detection Adwin::observe(const Observation& obs) {
  const double value =
      config_.use_anomaly_score ? obs.anomaly_score : (obs.error ? 1.0 : 0.0);
  Detection result;
  result.drift = insert(value);
  result.statistic = mean();
  result.statistic_valid = true;
  return result;
}

bool Adwin::insert(double value) {
  rows_[0].push_front(Bucket{value, 1});
  total_sum_ += value;
  total_count_ += 1;
  compress();

  if (++inserts_since_check_ < config_.check_every) return false;
  inserts_since_check_ = 0;
  return detect_cut();
}

void Adwin::compress() {
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (rows_[r].size() <= config_.max_buckets) break;
    // Merge the two oldest buckets of this row into one bucket of the next.
    Bucket oldest = rows_[r].back();
    rows_[r].pop_back();
    Bucket second = rows_[r].back();
    rows_[r].pop_back();
    if (r + 1 == rows_.size()) rows_.emplace_back();
    rows_[r + 1].push_front(
        Bucket{oldest.sum + second.sum, oldest.count + second.count});
  }
}

bool Adwin::detect_cut() {
  bool any_cut = false;
  bool cut_found = true;
  while (cut_found && total_count_ > config_.min_window) {
    cut_found = false;
    double sum0 = 0.0;
    std::size_t n0 = 0;
    // Walk boundaries from the oldest end of the window.
    for (std::size_t ri = rows_.size(); ri-- > 0 && !cut_found;) {
      for (auto it = rows_[ri].rbegin(); it != rows_[ri].rend(); ++it) {
        sum0 += it->sum;
        n0 += it->count;
        const std::size_t n1 = total_count_ - n0;
        if (n1 == 0) break;
        const double mean0 = sum0 / static_cast<double>(n0);
        const double mean1 =
            (total_sum_ - sum0) / static_cast<double>(n1);
        const double m =
            1.0 / (1.0 / static_cast<double>(n0) +
                   1.0 / static_cast<double>(n1));
        const double delta_prime =
            config_.delta / static_cast<double>(total_count_);
        const double eps =
            std::sqrt(std::log(4.0 / delta_prime) / (2.0 * m));
        if (std::abs(mean0 - mean1) > eps) {
          // Drop the oldest bucket and rescan.
          for (std::size_t rj = rows_.size(); rj-- > 0;) {
            if (!rows_[rj].empty()) {
              total_sum_ -= rows_[rj].back().sum;
              total_count_ -= rows_[rj].back().count;
              rows_[rj].pop_back();
              break;
            }
          }
          any_cut = true;
          cut_found = true;
          break;
        }
      }
    }
  }
  return any_cut;
}

double Adwin::mean() const {
  return total_count_ == 0
             ? 0.0
             : total_sum_ / static_cast<double>(total_count_);
}

void Adwin::reset() {
  rows_.clear();
  rows_.emplace_back();
  total_sum_ = 0.0;
  total_count_ = 0;
  inserts_since_check_ = 0;
}

std::size_t Adwin::memory_bytes() const {
  std::size_t buckets = 0;
  for (const auto& row : rows_) buckets += row.size();
  return buckets * sizeof(Bucket) + rows_.capacity() * sizeof(rows_[0]);
}

}  // namespace edgedrift::drift
