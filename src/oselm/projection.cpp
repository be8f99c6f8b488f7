#include "edgedrift/oselm/projection.hpp"

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/util/assert.hpp"
#include "edgedrift/util/digest.hpp"
#include "edgedrift/util/rng.hpp"

namespace edgedrift::oselm {

Projection::Projection(std::size_t input_dim, std::size_t hidden_dim,
                       Activation act, util::Rng& rng, double scale)
    : alpha_(linalg::Matrix::random_uniform(input_dim, hidden_dim, rng, -scale,
                                            scale)),
      bias_(hidden_dim),
      act_(act) {
  EDGEDRIFT_ASSERT(input_dim > 0 && hidden_dim > 0,
                   "projection dims must be positive");
  for (auto& b : bias_) b = rng.uniform(-scale, scale);
  fingerprint_ = compute_fingerprint();
}

Projection::Projection(linalg::Matrix alpha, std::vector<double> bias,
                       Activation act)
    : alpha_(std::move(alpha)), bias_(std::move(bias)), act_(act) {
  EDGEDRIFT_ASSERT(alpha_.rows() > 0 && alpha_.cols() > 0,
                   "projection dims must be positive");
  EDGEDRIFT_ASSERT(bias_.size() == alpha_.cols(),
                   "bias length must match hidden dim");
  fingerprint_ = compute_fingerprint();
}

std::uint64_t Projection::compute_fingerprint() const {
  // Doubles hash by byte pattern, which is exactly the contract needed:
  // equal fingerprints must imply bit-identical hidden() output, and the
  // projection weights are immutable after construction.
  const std::uint64_t shape[3] = {alpha_.rows(), alpha_.cols(),
                                  static_cast<std::uint64_t>(act_)};
  std::uint64_t h = util::digest64(shape, sizeof(shape));
  h = util::digest64(alpha_.data(), alpha_.size() * sizeof(double), h);
  return util::digest64(bias_.data(), bias_.size() * sizeof(double), h);
}

void Projection::hidden(std::span<const double> x,
                        std::span<double> hidden) const {
  EDGEDRIFT_ASSERT(x.size() == input_dim(), "projection input size mismatch");
  EDGEDRIFT_ASSERT(hidden.size() == hidden_dim(),
                   "projection output size mismatch");
  // hidden = A^T x + b  (A is [d, h], x is a row sample).
  linalg::matvec_transposed(alpha_, x, hidden);
  for (std::size_t j = 0; j < hidden.size(); ++j) hidden[j] += bias_[j];
  apply_activation(act_, hidden);
}

linalg::Matrix Projection::hidden_batch(const linalg::Matrix& x) const {
  linalg::Matrix h;
  hidden_batch_into(x, h);
  return h;
}

void Projection::hidden_batch_into(linalg::ConstMatrixView x,
                                   linalg::Matrix& h) const {
  EDGEDRIFT_ASSERT(x.cols() == input_dim(), "projection batch size mismatch");
  linalg::matmul_parallel_into(x, alpha_, h);
  for (std::size_t r = 0; r < h.rows(); ++r) {
    auto row = h.row(r);
    for (std::size_t j = 0; j < row.size(); ++j) row[j] += bias_[j];
    apply_activation(act_, row);
  }
}

void Projection::hidden_batch_into(
    linalg::ConstMatrixView x, linalg::Matrix& h,
    const linalg::PackedGemmB& packed_alpha) const {
  EDGEDRIFT_ASSERT(x.cols() == input_dim(), "projection batch size mismatch");
  linalg::matmul_packed_parallel_into(x, alpha_, packed_alpha, h);
  for (std::size_t r = 0; r < h.rows(); ++r) {
    auto row = h.row(r);
    for (std::size_t j = 0; j < row.size(); ++j) row[j] += bias_[j];
    apply_activation(act_, row);
  }
}

void Projection::pack_alpha(linalg::PackedGemmB& out) const {
  linalg::pack_gemm_b(alpha_, out);
}

std::size_t Projection::memory_bytes() const {
  return alpha_.memory_bytes() + bias_.capacity() * sizeof(double);
}

ProjectionPtr make_projection(std::size_t input_dim, std::size_t hidden_dim,
                              Activation act, util::Rng& rng, double scale) {
  return std::make_shared<const Projection>(input_dim, hidden_dim, act, rng,
                                            scale);
}

}  // namespace edgedrift::oselm
