#include "oracle/oselm.hpp"

#include <utility>

#include "edgedrift/linalg/gemm.hpp"
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
  linalg::Matrix out;
  linalg::matmul_parallel_into(projection_->hidden_batch(x), beta_, out);
  return out;
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
