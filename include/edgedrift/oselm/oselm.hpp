// OS-ELM: Online Sequential Extreme Learning Machine (Liang et al., 2006)
// with the ONLAD forgetting mechanism (Tsukada et al., 2020) as an option.
//
// Model: y = beta^T g(A^T x + b) where the projection (A, b) is random and
// fixed; only beta (hidden_dim x output_dim) is trained. Training state is
// the pair (beta, P) with P = (H^T H + lambda I)^-1 over everything seen so
// far. The batch phase computes P by Cholesky (solve_batch()); every
// subsequent sample is one rank-1 Sherman–Morrison step (train_step()), so
// no inversion ever happens on-device — the property the paper relies on
// for the 264 kB Raspberry Pi Pico target.
//
// The OS-ELM arithmetic is written once, in the three free functions below,
// which OsElm and model::MultiInstanceModel both train through.
// train_step() updates beta in place as a column block of a larger matrix:
// OsElm passes its own beta as block 0, and the model passes its packed
// ensemble beta with the label's block, so a block holds the bits a
// standalone OsElm trained on the same samples holds.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/oselm/projection.hpp"

namespace edgedrift::oselm {

/// Hyper-parameters of one OS-ELM instance.
struct OsElmConfig {
  std::size_t output_dim = 0;      ///< Target dimensionality.
  double reg_lambda = 1e-2;        ///< Ridge term of the initial training.
  double forgetting_factor = 1.0;  ///< 1.0 = plain OS-ELM; <1.0 = ONLAD.
};

/// P = I / reg_lambda: the data-free recursive-least-squares prior.
void set_p_prior(linalg::Matrix& p, double reg_lambda);

/// Batch initial training on rows of X (inputs) and T (targets):
/// P = (H^T H + lambda I)^-1 and beta = P H^T T, with H the projection of X.
void solve_batch(const Projection& projection, const linalg::Matrix& x,
                 const linalg::Matrix& t, double reg_lambda,
                 linalg::Matrix& beta, linalg::Matrix& p);

/// One sequential step on the sample with hidden activation h and target t,
/// in place on the column block beta[:, col : col + t.size()) and on P:
/// the forgetting-aware Sherman–Morrison P update (resetting P to the prior
/// when it has numerically exploded), err = t - beta_block^T h with the
/// pre-update block, then beta_block += (P h) err^T. `ph` (length
/// hidden_dim) and `err` (length t.size()) are scratch.
void train_step(const OsElmConfig& config, linalg::Matrix& beta,
                std::size_t col, linalg::Matrix& p, std::span<const double> h,
                std::span<const double> t, std::span<double> ph,
                std::span<double> err);

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
