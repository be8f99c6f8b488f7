// OS-ELM: Online Sequential Extreme Learning Machine (Liang et al., 2006)
// with the ONLAD forgetting mechanism (Tsukada et al., 2020) as an option.
//
// Model: y = beta^T g(A^T x + b) where the projection (A, b) is random and
// fixed; only beta (hidden_dim x output_dim) is trained. Training state is
// the pair (beta, P) with P = (H^T H + lambda I)^-1 over everything seen so
// far. The batch phase computes P by Cholesky; every subsequent sample is a
// rank-1 Sherman–Morrison step, so no inversion ever happens on-device —
// the property the paper relies on for the 264 kB Raspberry Pi Pico target.
#pragma once

#include <cstddef>
#include <cstdint>
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

  /// Sequential training with a precomputed hidden activation. `h` must be
  /// this network's projection of the trained sample (bit-equal to what
  /// hidden() would produce); the ensemble hot path computes it once per
  /// sample and shares it across prediction and training.
  void train_from_hidden(std::span<const double> h,
                         std::span<const double> t);

  /// y = prediction for x. `y` must have length output_dim(). The hidden
  /// activation lives on the stack (heap only for unusually wide hidden
  /// layers), so concurrent predict() calls on a frozen model never share
  /// scratch.
  void predict(std::span<const double> x, std::span<double> y) const;

  /// Batch prediction; rows of the result are predictions.
  linalg::Matrix predict_batch(const linalg::Matrix& x) const;

  /// Resets beta and P to the data-free prior, keeping the projection.
  void reset();

  /// Restores trained state (deserialization path). Shapes must match the
  /// projection and output dim.
  void restore_state(linalg::Matrix beta, linalg::Matrix p,
                     std::size_t samples_seen);

  /// Number of training samples absorbed since the last reset/init.
  std::size_t samples_seen() const { return samples_seen_; }

  const linalg::Matrix& beta() const { return beta_; }
  const linalg::Matrix& p() const { return p_; }

  /// Monotone counter bumped on every mutation of beta (init, sequential
  /// training, reset, restore). Ensemble owners that keep a packed mirror
  /// of beta use it to detect when a block must be re-packed.
  std::uint64_t beta_version() const { return beta_version_; }

  /// Rank-1 factors of the most recent sequential train step:
  /// beta_new = beta_old + last_update_ph ⊗ last_update_err. Valid until
  /// the next training call. Lets an ensemble owner replay the exact
  /// element-wise update into a packed mirror of beta without recomputing
  /// it (see MultiInstanceModel's packed ensemble beta).
  std::span<const double> last_update_ph() const { return ph_scratch_; }
  std::span<const double> last_update_err() const { return err_scratch_; }

  /// Bytes of trainable state (beta + P + scratch). Pass
  /// include_projection=true to add the shared projection weights.
  std::size_t memory_bytes(bool include_projection = false) const;

 private:
  void hidden(std::span<const double> x, std::span<double> h) const {
    projection_->hidden(x, h);
  }

  /// RLS covariance resetting: restores P to the data-free prior, keeping
  /// beta (used when the forgetting factor makes P numerically explode).
  void reset_p_to_prior();

  /// Shared body of train()/train_from_hidden(): runs the P update and the
  /// beta rank-1 step against the activation already in h_scratch_.
  void train_on_hidden(std::span<const double> t);

  ProjectionPtr projection_;
  OsElmConfig config_;
  linalg::Matrix beta_;  ///< hidden_dim x output_dim.
  linalg::Matrix p_;     ///< hidden_dim x hidden_dim.
  bool initialized_ = false;
  std::size_t samples_seen_ = 0;
  std::uint64_t beta_version_ = 1;  ///< Bumped on every beta mutation.

  // Per-sample training scratch, reused to keep the hot path
  // allocation-free. predict() deliberately does not touch these so it is
  // safe to call concurrently on a frozen model.
  std::vector<double> h_scratch_;
  std::vector<double> ph_scratch_;
  std::vector<double> err_scratch_;
};

}  // namespace edgedrift::oselm
