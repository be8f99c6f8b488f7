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
//
// The row step itself — the phase from the count, the coordinate steps, the
// label that trains and the Equation 1 accumulator — is
// steps::reconstruct_row (drift/steps.hpp), which mcu::StaticPipeline runs
// at float; this class holds its double state (C x D coordinates, their
// counts, Init_Coord's scratch row) and supplies the OS-ELM prediction and
// training on MultiInstanceModel.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "edgedrift/drift/steps.hpp"
#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/model/multi_instance.hpp"

namespace edgedrift::drift {

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

  /// Consumes one sample (Algorithm 2 body, steps::reconstruct_row).
  /// Returns true while the reconstruction is still running, false once
  /// count reached N — mirroring Reconstruct_Model()'s return value feeding
  /// Algorithm 1's `drift` flag. `hidden` is x's hidden row
  /// (MultiInstanceModel::project()): the training phases self-label and
  /// train from it, and the caller scores it again for its emitted
  /// prediction, so x is projected once. `ws` is the caller's model scratch.
  bool step(std::span<const double> x, std::span<const double> hidden,
            model::MultiInstanceModel& model, model::BatchWorkspace& ws);

  bool active() const { return phase_ != ReconstructionPhase::kIdle; }
  ReconstructionPhase phase() const { return phase_; }
  std::size_t count() const { return count_; }
  const ReconstructorConfig& config() const { return config_; }

  /// Rebuilt label coordinates, C x D (valid during/after a
  /// reconstruction), and the samples each absorbed in Update_Coord.
  const linalg::Matrix& coords() const { return coords_; }
  std::span<const std::size_t> coord_counts() const { return coord_counts_; }

  /// Reorders the coordinates and their counts so position i holds the old
  /// coordinate perm[i] (the re-alignment with the pre-drift labels).
  void permute(std::span<const std::size_t> perm);

  /// Equation 1 threshold recomputed over the training-phase samples of the
  /// finished reconstruction; 0 when no sample contributed.
  double suggested_theta_drift(double z) const;

  /// Bytes of reconstruction state.
  std::size_t memory_bytes() const;

 private:
  ReconstructorConfig config_;
  linalg::Matrix coords_;
  std::vector<std::size_t> coord_counts_;
  std::vector<double> init_scratch_;  ///< Init_Coord's saved coordinate.
  ReconstructionPhase phase_ = ReconstructionPhase::kIdle;
  std::size_t count_ = 0;
  /// Equation 1 over sample-to-own-coordinate L1 distances.
  steps::Welford<double> distances_;
};

}  // namespace edgedrift::drift
