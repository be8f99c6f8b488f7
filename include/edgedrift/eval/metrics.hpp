// Streaming evaluation metrics: accuracy over time (Figure 4), final
// accuracy and detection delay (Table 2), window-size-vs-delay (Table 3).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace edgedrift::eval {

/// Records per-sample correctness and derives overall / windowed accuracy.
class StreamingAccuracy {
 public:
  void record(bool correct) { correct_.push_back(correct); }

  std::size_t samples() const { return correct_.size(); }

  /// Fraction correct over the whole stream.
  double overall() const;

  /// Fraction correct over [begin, end).
  double range(std::size_t begin, std::size_t end) const;

  /// Non-overlapping windowed accuracy series (the Figure 4 curve): one
  /// value per full window of `window` samples.
  std::vector<double> windowed(std::size_t window) const;

  const std::vector<bool>& raw() const { return correct_; }

  void clear() { correct_.clear(); }

 private:
  std::vector<bool> correct_;
};

/// Records the sample indices where a detector fired and derives the delay
/// and false-alarm statistics the paper reports.
class DetectionLog {
 public:
  void record(std::size_t sample_index) { detections_.push_back(sample_index); }

  const std::vector<std::size_t>& detections() const { return detections_; }
  std::size_t count() const { return detections_.size(); }

  /// Samples between the true drift point and the first detection at or
  /// after it; nullopt when the drift was never detected. This is the
  /// "delay" column of Tables 2 and 3.
  std::optional<std::size_t> delay(std::size_t drift_at) const;

  /// Detections strictly before the true drift point (false alarms).
  std::size_t false_alarms(std::size_t drift_at) const;

  void clear() { detections_.clear(); }

 private:
  std::vector<std::size_t> detections_;
};

/// Prequential (test-then-train) accuracy with an exponential fading
/// factor — the standard streaming-evaluation metric (Gama et al.):
///   S_t = correct_t + alpha * S_{t-1},  N_t = 1 + alpha * N_{t-1},
///   accuracy_t = S_t / N_t.
/// alpha = 1 recovers the running mean; alpha < 1 emphasizes the recent
/// past, which is what one wants around concept drifts.
class PrequentialAccuracy {
 public:
  explicit PrequentialAccuracy(double fading_factor = 0.999);

  /// Records one test-then-train outcome and returns the current estimate.
  double record(bool correct);

  double value() const;
  std::size_t samples() const { return samples_; }
  double fading_factor() const { return fading_factor_; }
  void reset();

 private:
  double fading_factor_;
  double weighted_correct_ = 0.0;
  double weighted_count_ = 0.0;
  std::size_t samples_ = 0;
};

}  // namespace edgedrift::eval
