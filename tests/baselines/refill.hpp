// The post-recovery reference refill of a batch detector (QuantTree, SPLL)
// as an adapter that core::Pipeline drives like any other detector. A batch
// detector tests each batch against a reference fitted at calibrate(); a
// reconstruction moves the concept, so rearm() starts a refill. The next
// rows are collected untested (no detection fires), and once the buffer is
// full calibrate() re-fits the reference on them and testing resumes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>

#include "edgedrift/drift/detector.hpp"
#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::baselines {

class RefillOnRearm final : public drift::Detector {
 public:
  /// `inner` fits an unlabeled reference in calibrate(); a refill holds at
  /// least `min_rows` rows.
  RefillOnRearm(std::unique_ptr<drift::Detector> inner, std::size_t min_rows)
      : inner_(std::move(inner)), min_rows_(min_rows) {}

  const drift::Detector& inner() const { return *inner_; }

  drift::Detection observe(const drift::Observation& obs) override {
    if (!refilling()) return inner_->observe(obs);
    buffer_.set_row(fill_++, obs.x);
    if (!refilling()) inner_->calibrate(buffer_, {});
    return {};
  }
  void reset() override { inner_->reset(); }
  /// Calibrates the inner detector and sizes the refill buffer to at least
  /// the training rows: a reference of only one batch makes the fit so
  /// noisy the detector re-fires on its own calibration error.
  void calibrate(const linalg::Matrix& x,
                 std::span<const int> labels) override {
    inner_->calibrate(x, labels);
    buffer_.resize_zero(std::max(min_rows_, x.rows()), x.cols());
    fill_ = buffer_.rows();
  }
  /// reset(), then a refill.
  void rearm(const linalg::Matrix&, std::span<const std::size_t>,
             double) override {
    inner_->reset();
    fill_ = 0;
  }
  /// The inner detector's state plus the refill buffer.
  std::size_t memory_bytes() const override {
    return inner_->memory_bytes() + buffer_.memory_bytes();
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  /// True while a refill collects rows.
  bool refilling() const { return fill_ < buffer_.rows(); }

  std::unique_ptr<drift::Detector> inner_;
  std::size_t min_rows_;
  linalg::Matrix buffer_;
  std::size_t fill_ = 0;
};

}  // namespace edgedrift::baselines
