#include "edgedrift/drift/reconstructor.hpp"

#include <algorithm>

#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::drift {

Reconstructor::Reconstructor(ReconstructorConfig config,
                             std::size_t num_labels, std::size_t dim)
    : config_(config),
      coords_(num_labels, dim),
      coord_counts_(num_labels, 0),
      init_scratch_(dim, 0.0) {
  EDGEDRIFT_ASSERT(num_labels > 0 && dim > 0,
                   "labels and dim must be positive");
  EDGEDRIFT_ASSERT(config_.n_search <= config_.n_update,
                   "N_search must not exceed N_update");
  EDGEDRIFT_ASSERT(config_.n_update <= config_.n_total,
                   "N_update must not exceed N");
  EDGEDRIFT_ASSERT(config_.n_update <= config_.n_total / 2,
                   "coordinate refinement must end before model training "
                   "(N_update <= N/2)");
  EDGEDRIFT_ASSERT(config_.n_total > 0, "N must be positive");
}

void Reconstructor::begin(model::MultiInstanceModel& model,
                          const linalg::Matrix& seed_coords) {
  EDGEDRIFT_ASSERT(seed_coords.rows() == coords_.rows() &&
                       seed_coords.cols() == coords_.cols(),
                   "seed coordinate shape mismatch");
  model.init_sequential();
  linalg::copy(seed_coords.flat(), coords_.flat());
  std::fill(coord_counts_.begin(), coord_counts_.end(), 0);
  count_ = 0;
  distances_ = {};
  phase_ = steps::phase_at(count_, config_);
}

bool Reconstructor::step(std::span<const double> x,
                         std::span<const double> hidden,
                         model::MultiInstanceModel& model,
                         model::BatchWorkspace& ws) {
  EDGEDRIFT_ASSERT(active(), "step() without begin()");
  EDGEDRIFT_ASSERT(x.size() == coords_.cols(), "sample dim mismatch");
  ++count_;  // Algorithm 2 line 2 increments before the phase tests.
  phase_ = steps::reconstruct_row<double>(
      coords_.flat(), std::span(coord_counts_), std::span(init_scratch_),
      distances_, x, count_, config_,
      [&] { return model.predict(x, ws, hidden).label; },
      [&](std::size_t label) { model.train_label(hidden, x, label); });
  // The N-th sample reports completion, so Algorithm 1 clears its drift
  // flag.
  return phase_ != ReconstructionPhase::kIdle;
}

void Reconstructor::permute(std::span<const std::size_t> perm) {
  EDGEDRIFT_ASSERT(perm.size() == coords_.rows(), "permutation arity");
  steps::permute_rows(coords_.flat(), coords_.cols(), perm);
  steps::permute_rows(std::span(coord_counts_), 1, perm);
}

double Reconstructor::suggested_theta_drift(double z) const {
  return distances_.threshold(z);
}

std::size_t Reconstructor::memory_bytes() const {
  return sizeof(*this) + coords_.memory_bytes() +
         coord_counts_.capacity() * sizeof(std::size_t) +
         init_scratch_.capacity() * sizeof(double);
}

}  // namespace edgedrift::drift
