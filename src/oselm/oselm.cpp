#include "edgedrift/oselm/oselm.hpp"

#include <cmath>
#include <utility>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/solve.hpp"
#include "edgedrift/linalg/updates.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::oselm {

void set_p_prior(linalg::Matrix& p, double reg_lambda) {
  p.fill(0.0);
  const double prior = 1.0 / reg_lambda;
  for (std::size_t i = 0; i < p.rows(); ++i) p(i, i) = prior;
}

void solve_batch(const Projection& projection, const linalg::Matrix& x,
                 const linalg::Matrix& t, double reg_lambda,
                 linalg::Matrix& beta, linalg::Matrix& p) {
  EDGEDRIFT_ASSERT(x.rows() == t.rows(), "X/T row mismatch");
  EDGEDRIFT_ASSERT(x.cols() == projection.input_dim(), "X feature dim mismatch");
  const linalg::Matrix h = projection.hidden_batch(x);
  p = linalg::regularized_gram_inverse(h, reg_lambda);
  beta = linalg::matmul(p, linalg::matmul_at_b(h, t));
}

void train_step(const OsElmConfig& config, linalg::Matrix& beta,
                std::size_t col, linalg::Matrix& p, std::span<const double> h,
                std::span<const double> t, std::span<double> ph,
                std::span<double> err) {
  EDGEDRIFT_ASSERT(h.size() == p.rows() && ph.size() == p.rows(),
                   "h size mismatch");
  EDGEDRIFT_ASSERT(t.size() == err.size(), "t size mismatch");
  // Covariance-resetting safeguard: with a forgetting factor, P grows like
  // alpha^-t in unexcited directions and eventually overflows (a known RLS
  // failure mode). When the trace explodes or the rank-1 step reports a
  // loss of positive definiteness, restart P from the prior while keeping
  // the learned beta — the standard RLS remedy.
  if (config.forgetting_factor < 1.0) {
    double trace = 0.0;
    for (std::size_t i = 0; i < p.rows(); ++i) trace += p(i, i);
    if (!std::isfinite(trace) ||
        trace > 1e9 * static_cast<double>(p.rows())) {
      set_p_prior(p, config.reg_lambda);
    }
  }
  // P <- forgetting-aware Sherman–Morrison step.
  if (!linalg::oselm_p_update(p, h, config.forgetting_factor, ph)) {
    set_p_prior(p, config.reg_lambda);
    const bool ok = linalg::oselm_p_update(p, h, config.forgetting_factor, ph);
    EDGEDRIFT_ASSERT(ok, "P update failed even from the prior");
  }
  // err = t - beta^T h (prediction error with the pre-update beta), through
  // the same per-element chain as the ensemble scorer's reconstruction.
  linalg::matvec_transposed_block(beta, col, h, err);
  for (std::size_t o = 0; o < err.size(); ++o) err[o] = t[o] - err[o];
  // beta <- beta + (P_new h) err^T.
  linalg::matvec(p, h, ph);
  linalg::ger_block(beta, col, 1.0, ph, err);
}

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
  EDGEDRIFT_ASSERT(t.cols() == output_dim(), "T target dim mismatch");
  solve_batch(*projection_, x, t, config_.reg_lambda, beta_, p_);
  initialized_ = true;
  samples_seen_ = x.rows();
}

void OsElm::init_sequential() {
  beta_.fill(0.0);
  set_p_prior(p_, config_.reg_lambda);
  initialized_ = true;
  samples_seen_ = 0;
}

void OsElm::train(std::span<const double> x, std::span<const double> t) {
  EDGEDRIFT_ASSERT(initialized_, "train() before initialization");
  EDGEDRIFT_ASSERT(x.size() == input_dim(), "x size mismatch");
  EDGEDRIFT_ASSERT(t.size() == output_dim(), "t size mismatch");
  hidden(x, h_scratch_);
  train_step(config_, beta_, 0, p_, h_scratch_, t, ph_scratch_, err_scratch_);
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
