// A standalone OS-ELM regressor (Liang et al., 2006) with the ONLAD
// forgetting mechanism (Tsukada et al., 2020) as an option: one (beta, P)
// pair over a shared random projection, trained through the library's
// OS-ELM functions (edgedrift/oselm/oselm.hpp) on its own beta as block 0.
// The library trains only model::MultiInstanceModel's packed ensemble; this
// class is the reference the tests and benches compare against, and the
// network under the oracle's Autoencoder and Classifier.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/oselm/oselm.hpp"
#include "edgedrift/oselm/projection.hpp"

namespace edgedrift::oselm {

/// A single OS-ELM regressor over a shared random projection.
class OsElm {
 public:
  /// Creates an untrained instance. Before the first init_train() /
  /// init_sequential() call, predict() is invalid.
  OsElm(ProjectionPtr projection, OsElmConfig config);

  std::size_t input_dim() const { return projection_->input_dim(); }
  std::size_t hidden_dim() const { return projection_->hidden_dim(); }
  std::size_t output_dim() const { return config_.output_dim; }
  const OsElmConfig& config() const { return config_; }
  const ProjectionPtr& projection() const { return projection_; }

  bool initialized() const { return initialized_; }

  /// Batch initial training on rows of X (inputs) and T (targets):
  /// P = (H^T H + lambda I)^-1, beta = P H^T T.
  void init_train(const linalg::Matrix& x, const linalg::Matrix& t);

  /// Data-free initialization: P = I / lambda, beta = 0. This is the
  /// recursive-least-squares prior that lets a model start training purely
  /// sequentially (used by the drift-reconstruction phase, Algorithm 2).
  void init_sequential();

  /// Sequential training on one (x, t) pair — the batch-size-1 fast path.
  void train(std::span<const double> x, std::span<const double> t);

  /// y = prediction for x. `y` must have length output_dim(). The hidden
  /// activation lives on the stack (heap only for unusually wide hidden
  /// layers), so concurrent predict() calls on a frozen model never share
  /// scratch.
  void predict(std::span<const double> x, std::span<double> y) const;

  /// Batch prediction; rows of the result are predictions.
  linalg::Matrix predict_batch(const linalg::Matrix& x) const;

  /// Resets beta and P to the data-free prior, keeping the projection.
  void reset();

  /// Restores trained state. Shapes must match the projection and output
  /// dim.
  void restore_state(linalg::Matrix beta, linalg::Matrix p,
                     std::size_t samples_seen);

  /// Number of training samples absorbed since the last reset/init.
  std::size_t samples_seen() const { return samples_seen_; }

  const linalg::Matrix& beta() const { return beta_; }
  const linalg::Matrix& p() const { return p_; }

  /// Bytes of trainable state (beta + P + scratch). Pass
  /// include_projection=true to add the shared projection weights.
  std::size_t memory_bytes(bool include_projection = false) const;

 private:
  void hidden(std::span<const double> x, std::span<double> h) const {
    projection_->hidden(x, h);
  }

  ProjectionPtr projection_;
  OsElmConfig config_;
  linalg::Matrix beta_;  ///< hidden_dim x output_dim.
  linalg::Matrix p_;     ///< hidden_dim x hidden_dim.
  bool initialized_ = false;
  std::size_t samples_seen_ = 0;

  // Per-sample training scratch, reused to keep the hot path
  // allocation-free. predict() deliberately does not touch these so it is
  // safe to call concurrently on a frozen model.
  std::vector<double> h_scratch_;
  std::vector<double> ph_scratch_;
  std::vector<double> err_scratch_;
};

}  // namespace edgedrift::oselm
