#include "oracle/autoencoder.hpp"

#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::oselm {
namespace {

OsElmConfig autoencoder_config(const ProjectionPtr& projection,
                               double reg_lambda, double forgetting_factor) {
  EDGEDRIFT_ASSERT(projection != nullptr, "projection must not be null");
  OsElmConfig config;
  config.output_dim = projection->input_dim();
  config.reg_lambda = reg_lambda;
  config.forgetting_factor = forgetting_factor;
  return config;
}

}  // namespace

Autoencoder::Autoencoder(ProjectionPtr projection, double reg_lambda,
                         double forgetting_factor)
    : net_(projection,
           autoencoder_config(projection, reg_lambda, forgetting_factor)) {}

void Autoencoder::init_train(const linalg::Matrix& x) {
  net_.init_train(x, x);
}

double Autoencoder::score(std::span<const double> x) const {
  // Reconstruction scratch on the stack (heap fallback for wide inputs) so
  // concurrent score() calls on a frozen model never share state.
  constexpr std::size_t kStackDim = 256;
  double stack_buf[kStackDim];
  std::vector<double> heap_buf;
  std::span<double> recon;
  if (x.size() <= kStackDim) {
    recon = std::span<double>(stack_buf, x.size());
  } else {
    heap_buf.resize(x.size());
    recon = heap_buf;
  }
  net_.predict(x, recon);
  // squared_l2_distance is the one MSE kernel shared with the ensemble's
  // scoring core, which keeps score() bit-identical to its f64 rows.
  return linalg::squared_l2_distance(x, recon) /
         static_cast<double>(x.size());
}

}  // namespace edgedrift::oselm
