// Discriminative-model reconstruction after a detected drift
// (paper Algorithms 2, 3 and 4).
//
// Reconstruction is a four-phase pass over the next N streamed samples,
// fully sequential (no sample buffer):
//   phase 1, count < N_search : Init_Coord — greedily re-place the C label
//            coordinates so their summed pairwise L1 distance is maximal
//            (a sequential k-means++-style spreading, Algorithm 3);
//   phase 2, count < N_update : Update_Coord — sequential k-means refinement
//            of the coordinates (Algorithm 4);
//   phase 3, count < N/2      : train the OS-ELM instance of the
//            nearest-coordinate label on each sample;
//   phase 4, count < N        : train the instance chosen by the model's own
//            prediction (self-labeling).
// The paper's pseudocode writes the phases as chained `if count < ...`
// tests; we implement them as exclusive phases, which is the reading
// consistent with Section 3.3's prose and with the per-stage timing
// breakdown of Table 6.
//
// While running, the reconstructor also accumulates the Equation 1 distance
// statistics of phase 3/4 samples so the detector can be re-armed with a
// threshold matched to the new concept.
#pragma once

#include <cstddef>
#include <span>

#include "edgedrift/cluster/sequential_kmeans.hpp"
#include "edgedrift/model/multi_instance.hpp"

namespace edgedrift::drift {

/// Phase lengths of Algorithm 2.
struct ReconstructorConfig {
  std::size_t n_search = 20;   ///< N_search: samples spent spreading coords.
  std::size_t n_update = 120;  ///< N_update: samples spent refining coords.
  std::size_t n_total = 600;   ///< N: samples until reconstruction finishes.
};

/// Current phase of a running reconstruction.
enum class ReconstructionPhase {
  kIdle,          ///< Not reconstructing.
  kSearchCoords,  ///< Algorithm 3 (Init_Coord).
  kUpdateCoords,  ///< Algorithm 4 (Update_Coord).
  kTrainNearest,  ///< Algorithm 2 lines 8-9.
  kTrainPredict,  ///< Algorithm 2 lines 11-12.
};

/// Streaming model reconstruction driver.
class Reconstructor {
 public:
  Reconstructor(ReconstructorConfig config, std::size_t num_labels,
                std::size_t dim);

  /// Starts a reconstruction: resets every model instance to the sequential
  /// prior and seeds the coordinate store from `seed_coords` (typically the
  /// detector's recent test centroids) with zero counts.
  void begin(model::MultiInstanceModel& model,
             const linalg::Matrix& seed_coords);

  /// Consumes one sample (Algorithm 2 body). Returns true while the
  /// reconstruction is still running, false once count reached N — mirroring
  /// Reconstruct_Model()'s return value feeding Algorithm 1's `drift` flag.
  /// `ws` is the caller's model scratch (phase 4's self-labeling predict).
  bool step(std::span<const double> x, model::MultiInstanceModel& model,
            model::BatchWorkspace& ws);

  /// Chunked variant of step() for the training phases (3 and 4) only:
  /// consumes up to x.rows() samples in one pass and returns how many were
  /// taken (0 = caller must fall back to per-sample step(), i.e. the
  /// coordinate phases, the finishing sample, or a tail of one row).
  /// `h` must be the model's hidden activations of the rows of `x` (the
  /// score_batch() contract on supplied hidden rows); `labels` and `preds`
  /// are caller scratch of at least x.rows() entries. A chunk never
  /// straddles a phase boundary and never performs the finishing sample, so
  /// completion always flows through step(). Semantics vs the sequential
  /// loop: phase-3 winner labels come from the frozen coordinates (exact —
  /// coordinates do not move during training phases); phase-4 self-labels
  /// are predicted for the whole chunk against the pre-chunk model (the
  /// chunked-training approximation); the Equation 1 Welford statistics
  /// accumulate per row in stream order against the frozen coordinates
  /// (exact). Bucketed rank-k
  /// training per winning instance replaces the per-sample rank-1 steps —
  /// decision-equivalent, not bit-identical; callers gate it behind
  /// PipelineConfig::train_chunk > 1. `stats` (optional) accumulates what
  /// the bucketed update did for the obs counters.
  std::size_t train_chunk(linalg::ConstMatrixView x, linalg::ConstMatrixView h,
                          model::MultiInstanceModel& model,
                          model::BatchWorkspace& ws,
                          std::span<model::Prediction> preds,
                          std::span<std::size_t> labels,
                          model::ChunkTrainStats* stats);

  bool active() const { return phase_ != ReconstructionPhase::kIdle; }
  ReconstructionPhase phase() const { return phase_; }
  std::size_t count() const { return count_; }
  const ReconstructorConfig& config() const { return config_; }

  /// Rebuilt label coordinates (valid during/after a reconstruction).
  const cluster::SequentialKMeans& coords() const { return coords_; }
  cluster::SequentialKMeans& coords_mutable() { return coords_; }

  /// Equation 1 threshold recomputed over the training-phase samples of the
  /// finished reconstruction; 0 when no sample contributed.
  double suggested_theta_drift(double z) const;

  /// Bytes of reconstruction state.
  std::size_t memory_bytes() const;

 private:
  void update_phase();

  ReconstructorConfig config_;
  cluster::SequentialKMeans coords_;
  ReconstructionPhase phase_ = ReconstructionPhase::kIdle;
  std::size_t count_ = 0;

  // Welford accumulator over sample-to-own-coordinate L1 distances.
  std::size_t dist_count_ = 0;
  double dist_mean_ = 0.0;
  double dist_m2_ = 0.0;
};

}  // namespace edgedrift::drift
