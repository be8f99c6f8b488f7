#include "edgedrift/drift/multi_window.hpp"

#include <algorithm>

#include "edgedrift/util/assert.hpp"

namespace edgedrift::drift {

MultiWindowDetector::MultiWindowDetector(
    CentroidDetectorConfig base, std::span<const std::size_t> window_sizes,
    VotePolicy policy)
    : policy_(policy) {
  EDGEDRIFT_ASSERT(!window_sizes.empty(), "need at least one window size");
  members_.reserve(window_sizes.size());
  for (const std::size_t w : window_sizes) {
    CentroidDetectorConfig config = base;
    config.window_size = w;
    members_.push_back(std::make_unique<CentroidDetector>(config));
  }
  member_fired_.assign(members_.size(), false);
}

void MultiWindowDetector::calibrate(const linalg::Matrix& x,
                                    std::span<const int> labels) {
  for (auto& m : members_) m->calibrate(x, labels);
}

Detection MultiWindowDetector::observe(const Observation& obs) {
  // Members latch their drift verdicts: windows of different lengths close
  // on different samples, so a vote is counted until the ensemble either
  // fires or is reset.
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const Detection d = members_[i]->observe(obs);
    if (d.drift) member_fired_[i] = true;
  }
  const auto votes = static_cast<std::size_t>(
      std::count(member_fired_.begin(), member_fired_.end(), true));

  Detection result;
  result.statistic = static_cast<double>(votes);
  result.statistic_valid = true;
  if (vote_passes(votes)) {
    result.drift = true;
    std::fill(member_fired_.begin(), member_fired_.end(), false);
  }
  return result;
}

bool MultiWindowDetector::vote_passes(std::size_t votes) const {
  switch (policy_) {
    case VotePolicy::kAny:
      return votes >= 1;
    case VotePolicy::kMajority:
      return votes * 2 > members_.size();
    case VotePolicy::kAll:
      return votes == members_.size();
  }
  return false;
}

void MultiWindowDetector::reset() {
  for (auto& m : members_) m->reset();
  std::fill(member_fired_.begin(), member_fired_.end(), false);
}

void MultiWindowDetector::set_anomaly_gate(double theta_error) {
  for (auto& m : members_) m->set_anomaly_gate(theta_error);
}

void MultiWindowDetector::rearm(const linalg::Matrix& centroids,
                                std::span<const std::size_t> counts,
                                double theta_drift) {
  for (auto& m : members_) m->rearm(centroids, counts, theta_drift);
  std::fill(member_fired_.begin(), member_fired_.end(), false);
}

std::size_t MultiWindowDetector::memory_bytes() const {
  std::size_t bytes = member_fired_.capacity() / 8 + sizeof(*this);
  for (const auto& m : members_) bytes += m->memory_bytes();
  return bytes;
}

}  // namespace edgedrift::drift
