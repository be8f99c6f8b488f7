#include "edgedrift/drift/reconstructor.hpp"

#include <algorithm>
#include <cmath>

#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::drift {

Reconstructor::Reconstructor(ReconstructorConfig config,
                             std::size_t num_labels, std::size_t dim)
    : config_(config), coords_(num_labels, dim) {
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
  EDGEDRIFT_ASSERT(seed_coords.rows() == coords_.num_clusters() &&
                       seed_coords.cols() == coords_.dim(),
                   "seed coordinate shape mismatch");
  model.init_sequential();
  std::vector<std::size_t> zeros(coords_.num_clusters(), 0);
  coords_.set_centroids(seed_coords, zeros);
  count_ = 0;
  dist_count_ = 0;
  dist_mean_ = 0.0;
  dist_m2_ = 0.0;
  phase_ = config_.n_search > 0 ? ReconstructionPhase::kSearchCoords
                                : ReconstructionPhase::kUpdateCoords;
  update_phase();
}

bool Reconstructor::step(std::span<const double> x,
                         model::MultiInstanceModel& model,
                         model::BatchWorkspace& ws) {
  EDGEDRIFT_ASSERT(active(), "step() without begin()");
  EDGEDRIFT_ASSERT(x.size() == coords_.dim(), "sample dim mismatch");
  ++count_;  // Algorithm 2 line 2 increments before the phase tests.
  if (count_ >= config_.n_total) {
    // Algorithm 2 lines 13-15: the N-th sample does no work; reconstruction
    // reports completion so Algorithm 1 clears its drift flag.
    phase_ = ReconstructionPhase::kIdle;
    return false;
  }
  update_phase();

  switch (phase_) {
    case ReconstructionPhase::kSearchCoords:
      // "C initial samples are selected as initial coordinates of C labels"
      // (paper Section 3.3): the first C streamed samples seed the
      // coordinates unconditionally — the begin() seeds are placeholders
      // and must not win the spread contest against real data. Later
      // samples substitute via the Algorithm 3 spread maximization.
      if (count_ <= coords_.num_clusters()) {
        linalg::copy(x, coords_.centroid_mutable(count_ - 1));
      } else {
        coords_.spread_init(x);
      }
      break;
    case ReconstructionPhase::kUpdateCoords:
      coords_.update(x);
      break;
    case ReconstructionPhase::kTrainNearest: {
      const std::size_t label = coords_.nearest(x);
      model.train_label(x, label);
      // Track Equation 1 distances against the rebuilt coordinates so the
      // detector can be re-armed for the new concept.
      const double d = linalg::l1_distance(x, coords_.centroid(label));
      ++dist_count_;
      const double delta = d - dist_mean_;
      dist_mean_ += delta / static_cast<double>(dist_count_);
      dist_m2_ += delta * (d - dist_mean_);
      break;
    }
    case ReconstructionPhase::kTrainPredict: {
      // Fused predict-then-train: projects the sample once and shares the
      // hidden vector between the ensemble scorer and the winning
      // instance's update (identical semantics to predict + train_label on
      // the predicted label).
      const model::Prediction pred = model.train_closest(x, ws);
      const double d = linalg::l1_distance(x, coords_.centroid(pred.label));
      ++dist_count_;
      const double delta = d - dist_mean_;
      dist_mean_ += delta / static_cast<double>(dist_count_);
      dist_m2_ += delta * (d - dist_mean_);
      break;
    }
    case ReconstructionPhase::kIdle:
      break;
  }
  return true;
}

std::size_t Reconstructor::train_chunk(linalg::ConstMatrixView x,
                                       linalg::ConstMatrixView h,
                                       model::MultiInstanceModel& model,
                                       model::BatchWorkspace& ws,
                                       std::span<model::Prediction> preds,
                                       std::span<std::size_t> labels,
                                       model::ChunkTrainStats* stats) {
  EDGEDRIFT_ASSERT(active(), "train_chunk() without begin()");
  EDGEDRIFT_ASSERT(x.cols() == coords_.dim(), "chunk dim mismatch");
  EDGEDRIFT_ASSERT(preds.size() >= x.rows() && labels.size() >= x.rows(),
                   "chunk scratch too small");
  // c0 is the Algorithm 2 count the first row would get from step()'s
  // pre-increment. Only the training phases chunk; the coordinate phases
  // are order-sensitive sequential recursions and the N-th (finishing)
  // sample must flow through step() so completion reporting is unchanged.
  const std::size_t c0 = count_ + 1;
  if (c0 >= config_.n_total || c0 < config_.n_update) return 0;
  const std::size_t half = config_.n_total / 2;
  const bool nearest_phase = c0 < half;
  const std::size_t cap = (nearest_phase ? half : config_.n_total) - c0;
  const std::size_t take = std::min(x.rows(), cap);
  if (take < 2) return 0;  // A 1-row "chunk" is just a worse rank-1 step.
  const linalg::ConstMatrixView xc(x, 0, take), hc(h, 0, take);
  if (nearest_phase) {
    // Coordinates are frozen in the training phases, so per-row nearest()
    // matches the sequential loop exactly.
    for (std::size_t r = 0; r < take; ++r) {
      labels[r] = coords_.nearest(xc.row(r));
    }
  } else {
    // Self-labeling: the whole chunk predicts against the pre-chunk model
    // (sequentially, row r would see the model trained through row r-1 —
    // the chunked-training approximation).
    model.predict_batch(xc, ws, preds.subspan(0, take), &hc);
    for (std::size_t r = 0; r < take; ++r) labels[r] = preds[r].label;
  }
  const model::ChunkTrainStats done = model.train_buckets_from_hidden(
      xc, hc, std::span<const std::size_t>(labels.data(), take), ws);
  if (stats != nullptr) {
    stats->rows += done.rows;
    stats->buckets += done.buckets;
    stats->replica_refreshes += done.replica_refreshes;
  }
  // Equation 1 Welford statistics, per row in stream order against the
  // frozen coordinates — identical accumulation chain to the sequential
  // loop (only the trained model differs).
  for (std::size_t r = 0; r < take; ++r) {
    const double d =
        linalg::l1_distance(xc.row(r), coords_.centroid(labels[r]));
    ++dist_count_;
    const double delta = d - dist_mean_;
    dist_mean_ += delta / static_cast<double>(dist_count_);
    dist_m2_ += delta * (d - dist_mean_);
  }
  count_ += take;
  update_phase();  // Same post-step phase bookkeeping as step().
  return take;
}

void Reconstructor::update_phase() {
  if (phase_ == ReconstructionPhase::kIdle) return;
  if (count_ < config_.n_search) {
    phase_ = ReconstructionPhase::kSearchCoords;
  } else if (count_ < config_.n_update) {
    // Entering the refinement phase: the coordinates currently hold real
    // samples placed by Init_Coord, so give each a unit weight.
    if (phase_ == ReconstructionPhase::kSearchCoords) coords_.set_counts(1);
    phase_ = ReconstructionPhase::kUpdateCoords;
  } else if (count_ < config_.n_total / 2) {
    phase_ = ReconstructionPhase::kTrainNearest;
  } else {
    phase_ = ReconstructionPhase::kTrainPredict;
  }
}

double Reconstructor::suggested_theta_drift(double z) const {
  if (dist_count_ == 0) return 0.0;
  const double variance = dist_m2_ / static_cast<double>(dist_count_);
  return dist_mean_ + z * std::sqrt(std::max(0.0, variance));
}

std::size_t Reconstructor::memory_bytes() const {
  return coords_.memory_bytes() + sizeof(*this) - sizeof(coords_);
}

}  // namespace edgedrift::drift
