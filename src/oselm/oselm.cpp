#include "edgedrift/oselm/oselm.hpp"

#include <cmath>

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

}  // namespace edgedrift::oselm
