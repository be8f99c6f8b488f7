#include "oracle/reference_instance.hpp"

#include <utility>

#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::oracle {

oselm::Autoencoder reference_instance(const model::MultiInstanceModel& model,
                                      std::size_t label) {
  oselm::Autoencoder instance(model.projection(), model.config().reg_lambda,
                              model.config().forgetting_factor);
  const std::size_t n = model.input_dim();
  linalg::Matrix beta(model.hidden_dim(), n);
  for (std::size_t i = 0; i < beta.rows(); ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      beta(i, j) = model.packed_beta()(i, label * n + j);
    }
  }
  instance.restore_state(std::move(beta), model.p(label),
                         model.samples_seen(label));
  return instance;
}

}  // namespace edgedrift::oracle
