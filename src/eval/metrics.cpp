#include "edgedrift/eval/metrics.hpp"

#include <algorithm>

#include "edgedrift/util/assert.hpp"

namespace edgedrift::eval {

double StreamingAccuracy::overall() const {
  return range(0, correct_.size());
}

double StreamingAccuracy::range(std::size_t begin, std::size_t end) const {
  EDGEDRIFT_ASSERT(begin <= end && end <= correct_.size(),
                   "range out of bounds");
  if (begin == end) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (correct_[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(end - begin);
}

std::vector<double> StreamingAccuracy::windowed(std::size_t window) const {
  EDGEDRIFT_ASSERT(window > 0, "window must be positive");
  std::vector<double> series;
  for (std::size_t begin = 0; begin + window <= correct_.size();
       begin += window) {
    series.push_back(range(begin, begin + window));
  }
  return series;
}

std::optional<std::size_t> DetectionLog::delay(std::size_t drift_at) const {
  for (const std::size_t d : detections_) {
    if (d >= drift_at) return d - drift_at;
  }
  return std::nullopt;
}

std::size_t DetectionLog::false_alarms(std::size_t drift_at) const {
  return static_cast<std::size_t>(
      std::count_if(detections_.begin(), detections_.end(),
                    [drift_at](std::size_t d) { return d < drift_at; }));
}

PrequentialAccuracy::PrequentialAccuracy(double fading_factor)
    : fading_factor_(fading_factor) {
  EDGEDRIFT_ASSERT(fading_factor > 0.0 && fading_factor <= 1.0,
                   "fading factor must be in (0, 1]");
}

double PrequentialAccuracy::record(bool correct) {
  weighted_correct_ =
      (correct ? 1.0 : 0.0) + fading_factor_ * weighted_correct_;
  weighted_count_ = 1.0 + fading_factor_ * weighted_count_;
  ++samples_;
  return value();
}

double PrequentialAccuracy::value() const {
  return weighted_count_ > 0.0 ? weighted_correct_ / weighted_count_ : 0.0;
}

void PrequentialAccuracy::reset() {
  weighted_correct_ = 0.0;
  weighted_count_ = 0.0;
  samples_ = 0;
}

}  // namespace edgedrift::eval
