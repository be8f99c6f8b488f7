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
// which model::MultiInstanceModel trains through (as does the standalone
// OS-ELM the tests and benches compare against, tests/oracle/oselm.hpp).
// train_step() updates beta in place as a column block of a larger matrix:
// the model passes its packed ensemble beta with the label's block, so a
// block holds the bits a standalone OS-ELM trained on the same samples
// holds.
#pragma once

#include <cstddef>
#include <span>

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

}  // namespace edgedrift::oselm
