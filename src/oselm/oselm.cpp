#include "edgedrift/oselm/oselm.hpp"

#include <algorithm>
#include <cmath>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/linalg/solve.hpp"
#include "edgedrift/linalg/updates.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::oselm {

OsElm::OsElm(ProjectionPtr projection, OsElmConfig config)
    : projection_(std::move(projection)), config_(config) {
  EDGEDRIFT_ASSERT(projection_ != nullptr, "projection must not be null");
  EDGEDRIFT_ASSERT(config_.output_dim > 0, "output_dim must be positive");
  EDGEDRIFT_ASSERT(config_.reg_lambda > 0.0, "reg_lambda must be positive");
  EDGEDRIFT_ASSERT(
      config_.forgetting_factor > 0.0 && config_.forgetting_factor <= 1.0,
      "forgetting factor must be in (0, 1]");
  const std::size_t h = projection_->hidden_dim();
  beta_.resize_zero(h, config_.output_dim);
  p_.resize_zero(h, h);
  h_scratch_.resize(h);
  ph_scratch_.resize(h);
  err_scratch_.resize(config_.output_dim);
}

void OsElm::init_train(const linalg::Matrix& x, const linalg::Matrix& t) {
  EDGEDRIFT_ASSERT(x.rows() == t.rows(), "X/T row mismatch");
  EDGEDRIFT_ASSERT(x.cols() == input_dim(), "X feature dim mismatch");
  EDGEDRIFT_ASSERT(t.cols() == output_dim(), "T target dim mismatch");
  const linalg::Matrix h = projection_->hidden_batch(x);
  p_ = linalg::regularized_gram_inverse(h, config_.reg_lambda);
  beta_ = linalg::matmul(p_, linalg::matmul_at_b(h, t));
  initialized_ = true;
  samples_seen_ = x.rows();
  ++beta_version_;
}

void OsElm::init_sequential() {
  beta_.fill(0.0);
  p_.fill(0.0);
  const double prior = 1.0 / config_.reg_lambda;
  for (std::size_t i = 0; i < p_.rows(); ++i) p_(i, i) = prior;
  initialized_ = true;
  samples_seen_ = 0;
  ++beta_version_;
}

void OsElm::train(std::span<const double> x, std::span<const double> t) {
  EDGEDRIFT_ASSERT(initialized_, "train() before initialization");
  EDGEDRIFT_ASSERT(x.size() == input_dim(), "x size mismatch");
  EDGEDRIFT_ASSERT(t.size() == output_dim(), "t size mismatch");
  hidden(x, h_scratch_);
  train_on_hidden(t);
}

void OsElm::train_from_hidden(std::span<const double> h,
                              std::span<const double> t) {
  EDGEDRIFT_ASSERT(initialized_, "train_from_hidden() before initialization");
  EDGEDRIFT_ASSERT(h.size() == hidden_dim(), "h size mismatch");
  EDGEDRIFT_ASSERT(t.size() == output_dim(), "t size mismatch");
  std::copy(h.begin(), h.end(), h_scratch_.begin());
  train_on_hidden(t);
}

void OsElm::train_on_hidden(std::span<const double> t) {
  // Covariance-resetting safeguard: with a forgetting factor, P grows like
  // alpha^-t in unexcited directions and eventually overflows (a known RLS
  // failure mode). When the trace explodes or the rank-1 step reports a
  // loss of positive definiteness, restart P from the prior while keeping
  // the learned beta — the standard RLS remedy.
  if (config_.forgetting_factor < 1.0) {
    double trace = 0.0;
    for (std::size_t i = 0; i < hidden_dim(); ++i) trace += p_(i, i);
    if (!std::isfinite(trace) ||
        trace > 1e9 * static_cast<double>(hidden_dim())) {
      reset_p_to_prior();
    }
  }
  // P <- forgetting-aware Sherman–Morrison step.
  if (!linalg::oselm_p_update(p_, h_scratch_, config_.forgetting_factor,
                              ph_scratch_)) {
    reset_p_to_prior();
    const bool ok = linalg::oselm_p_update(
        p_, h_scratch_, config_.forgetting_factor, ph_scratch_);
    EDGEDRIFT_ASSERT(ok, "P update failed even from the prior");
  }
  // err = t - beta^T h (prediction error with the pre-update beta). The
  // beta^T h reconstruction is the same kernel the fused ensemble scorer
  // uses, so training reuses a vectorized path instead of a strided
  // column-wise scalar loop.
  linalg::matvec_transposed(beta_, h_scratch_, err_scratch_);
  for (std::size_t o = 0; o < output_dim(); ++o) {
    err_scratch_[o] = t[o] - err_scratch_[o];
  }
  // beta <- beta + (P_new h) err^T.
  linalg::matvec(p_, h_scratch_, ph_scratch_);
  linalg::ger(beta_, 1.0, ph_scratch_, err_scratch_);
  ++beta_version_;
  ++samples_seen_;
}

void OsElm::predict(std::span<const double> x, std::span<double> y) const {
  EDGEDRIFT_ASSERT(initialized_, "predict() before initialization");
  EDGEDRIFT_ASSERT(x.size() == input_dim(), "x size mismatch");
  EDGEDRIFT_ASSERT(y.size() == output_dim(), "y size mismatch");
  // The hidden activation lives on the stack (heap only for unusually wide
  // hidden layers) so concurrent predict() calls on a frozen model never
  // share scratch.
  constexpr std::size_t kStackHidden = 256;
  double stack_buf[kStackHidden];
  std::vector<double> heap_buf;
  std::span<double> h;
  if (hidden_dim() <= kStackHidden) {
    h = std::span<double>(stack_buf, hidden_dim());
  } else {
    heap_buf.resize(hidden_dim());
    h = heap_buf;
  }
  hidden(x, h);
  linalg::matvec_transposed(beta_, h, y);
}

linalg::Matrix OsElm::predict_batch(const linalg::Matrix& x) const {
  EDGEDRIFT_ASSERT(initialized_, "predict_batch() before initialization");
  return linalg::matmul_parallel(projection_->hidden_batch(x), beta_);
}

void OsElm::reset() { init_sequential(); }

void OsElm::restore_state(linalg::Matrix beta, linalg::Matrix p,
                          std::size_t samples_seen) {
  EDGEDRIFT_ASSERT(beta.rows() == hidden_dim() && beta.cols() == output_dim(),
                   "restored beta shape mismatch");
  EDGEDRIFT_ASSERT(p.rows() == hidden_dim() && p.cols() == hidden_dim(),
                   "restored P shape mismatch");
  beta_ = std::move(beta);
  p_ = std::move(p);
  samples_seen_ = samples_seen;
  initialized_ = true;
  ++beta_version_;
}

void OsElm::reset_p_to_prior() {
  p_.fill(0.0);
  const double prior = 1.0 / config_.reg_lambda;
  for (std::size_t i = 0; i < p_.rows(); ++i) p_(i, i) = prior;
}

std::size_t OsElm::memory_bytes(bool include_projection) const {
  std::size_t bytes = beta_.memory_bytes() + p_.memory_bytes() +
                      (h_scratch_.capacity() + ph_scratch_.capacity() +
                       err_scratch_.capacity()) *
                          sizeof(double);
  if (include_projection) bytes += projection_->memory_bytes();
  return bytes;
}

}  // namespace edgedrift::oselm
