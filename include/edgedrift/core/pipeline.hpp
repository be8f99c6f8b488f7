// edgedrift::Pipeline — the public facade tying together the paper's full
// proposed system: the multi-instance OS-ELM discriminative model
// (Section 3.1), a pluggable concept-drift detector (Algorithm 1's centroid
// method by default, its multi-window ensemble, or a detector built outside
// the library and handed in through drift::DetectorSpec's factory) and its
// drift response: streaming model reconstruction (Algorithms 2-4), or
// detect-only monitoring.
//
// Typical use:
//   core::PipelineConfig config;
//   config.num_labels = 2; config.input_dim = 38; config.hidden_dim = 22;
//   core::Pipeline pipeline(config);
//   pipeline.fit(train_x, train_labels);
//   for (each streamed sample x) {
//     auto step = pipeline.process(x);
//     // step.prediction, step.drift_detected, step.reconstructing ...
//   }
// or, when samples arrive in blocks:
//   std::vector<core::PipelineStep> steps;
//   pipeline.process_rows(block, {}, steps);   // == process() row by row
//
// Model ownership: a pipeline holds its model through a std::shared_ptr.
// Pipelines built on one template (the sharing constructor, which
// io::load_pipeline uses to load a template delta) score against one model
// object. Every write (fit(), a recovery's reset,
// training and permutation, model_mutable()) goes through one private
// accessor that first copies the model unless this pipeline is its only
// owner, so a shared model is never written in place; scoring reads it
// through MultiInstanceModel's const API.
//
// Counting: each sample, detection, window and recovery is counted once,
// in the pipeline's obs::Counters book; stats() returns its snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "edgedrift/drift/centroid_detector.hpp"
#include "edgedrift/drift/detector_factory.hpp"
#include "edgedrift/drift/reconstructor.hpp"
#include "edgedrift/model/multi_instance.hpp"
#include "edgedrift/obs/stream_obs.hpp"
#include "edgedrift/oselm/activation.hpp"

namespace edgedrift::core {

/// What the pipeline does once its detector fires.
enum class RecoveryPolicy {
  /// Streaming model reconstruction (paper Algorithms 2-4): reset the
  /// instances, re-place the label coordinates, self-label retrain, then
  /// re-arm the detector against the rebuilt concept.
  kReconstruct,
  /// Record the detection and reset the detector; the model is left
  /// untouched. For monitoring/evaluation of detectors in isolation.
  kDetectOnly,
};

/// Everything configurable about the streaming system.
struct PipelineConfig {
  std::size_t num_labels = 2;
  std::size_t input_dim = 0;
  std::size_t hidden_dim = 22;  ///< Paper: 22 for both datasets.
  oselm::Activation activation = oselm::Activation::kSigmoid;
  double weight_scale = 1.0;
  double reg_lambda = 1e-2;

  /// Anomaly gate of Algorithm 1 line 8. <= 0 auto-calibrates from the
  /// training scores as mean + theta_error_z * stddev.
  double theta_error = 0.0;
  double theta_error_z = 3.0;

  /// Eq. 1 tuning parameter for the drift threshold.
  double z = 1.0;

  /// Detector window / behaviour (num_labels/dim/theta_* filled by fit()).
  std::size_t window_size = 100;
  double ewma_decay = 0.0;
  long detector_initial_count = -1;

  /// Which drift detector runs the detect-and-retrain loop.
  drift::DetectorSpec detector;

  /// What a detection triggers.
  RecoveryPolicy recovery = RecoveryPolicy::kReconstruct;

  drift::ReconstructorConfig reconstruction;

  /// Largest block process_rows() scores through the GEMM kernels at once
  /// (bounds the batch workspace size).
  std::size_t max_batch_rows = 256;

  /// Scoring numerics tier (linalg/numerics.hpp): kExactF64 is the
  /// bit-identical reference, kFastF32/kQuantI8 score against the
  /// packed-beta replicas under the error-bounded drift-decision-
  /// equivalence contract. Training is f64 in every tier; theta_error
  /// calibration runs through the same tier as streaming scoring, so the
  /// gate is consistent with the scores it gates.
  linalg::NumericsTier numerics = linalg::NumericsTier::kExactF64;

  /// Runtime observability (obs::StreamObs): counters, stage latency
  /// histograms and the drift journal. Recording is observation-only —
  /// obs-on and obs-off runs are bit-identical (tests/test_obs.cpp) — and
  /// allocation-free on the steady-state path. The counters always count;
  /// obs.enabled = false, or compiling with EDGEDRIFT_NO_OBS, switches off
  /// the latency timing and the journal.
  obs::ObsOptions obs;

  std::uint64_t seed = 1;
};

/// One processed sample.
struct PipelineStep {
  model::Prediction prediction;   ///< Label + anomaly score.
  bool drift_detected = false;    ///< Drift fired on this sample.
  bool reconstructing = false;    ///< A recovery consumed this sample.
  bool reconstruction_finished = false;  ///< This sample completed it.
  double statistic = 0.0;         ///< Detector distance when a window closed.
  bool statistic_valid = false;
};

/// A stream's counters (samples, drifts, recoveries, ...): a snapshot of
/// its one counter book, obs::Counters.
using PipelineStats = obs::CounterSnapshot;

/// The detect-and-retrain system behind one object.
class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config);

  /// Builds a pipeline on `share_with`'s model instead of drawing a
  /// projection and building one: the two share that model until either
  /// writes it, and the writer copies it first. `config` must carry the
  /// model's shape and numerics tier; the rest of the pipeline (detector,
  /// recovery, scratch) is built from `config` as usual.
  Pipeline(PipelineConfig config, const Pipeline& share_with);

  /// Batch initial training: fits the per-label autoencoders, calibrates
  /// theta_error from the training scores, then calibrates the detector
  /// (trained centroids + theta_drift via Eq. 1 for the centroid family)
  /// in a single pass.
  void fit(const linalg::Matrix& x, std::span<const int> labels);

  /// Processes one streamed sample through the detect-and-retrain loop.
  /// `true_label` (optional) feeds the error-rate detectors (DDM, EDDM,
  /// ADWIN) their supervised mistake stream; it is never shown to the model.
  PipelineStep process(std::span<const double> x, int true_label = -1);

  /// The row-range core: processes every row of `x` in order and appends
  /// one step per row to `out` (never cleared; grown geometrically, so an
  /// uncollected backlog costs amortized O(1) per row). Sample-for-sample
  /// bit-identical to calling process() row by row, in every numerics tier.
  /// `true_labels` is empty or holds one label per row (-1 = no label).
  ///
  /// While the model is frozen, rows are pre-scored in chunks of up to
  /// max_batch_rows, each one call into the model's scoring core
  /// (MultiInstanceModel::score_batch), where a row scores the same in a
  /// block of any size; once a detection starts a recovery, the remaining
  /// rows go one by one through the recovery path, which projects each
  /// row once and trains the model with one rank-1 step per sample. `x` is
  /// a view, so a PipelineManager ring page range or a caller batch is read
  /// in place; the internal chunk buffers are grow-only.
  ///
  /// `hidden` (optional) supplies the hidden-space projection: row i holds
  /// g(x.row(i) * A + b) for this pipeline's projection or any projection
  /// with an equal fingerprint (see projection_fingerprint()). This is the
  /// scatter half of the serving layer's coalesced drain — one shared GEMM
  /// projects a whole projection group's mega-batch and each member scores
  /// its rows here. The projection is row-independent and never retrained,
  /// so the steps are the same as without it, in every tier.
  void process_rows(linalg::ConstMatrixView x,
                    std::span<const int> true_labels,
                    std::vector<PipelineStep>& out,
                    const linalg::ConstMatrixView* hidden = nullptr);

  /// Identity of this pipeline's shared-projection coalescing group: the
  /// projection's alpha/bias/shape/activation fingerprint folded with the
  /// numerics tier. Equal values guarantee bit-identical hidden batches and
  /// the same scoring replica format, which is the precondition for the
  /// serving layer to share one projection GEMM across streams. Recorded at
  /// construction, carried through checkpoints (the restored projection
  /// recomputes the same digest from the same bytes).
  std::uint64_t projection_fingerprint() const { return projection_fp_; }

  bool fitted() const { return fitted_; }
  /// True while a reconstruction (Algorithms 2-4) trains the model; false
  /// while the model is frozen, so predictions are a pure function of the
  /// sample (the precondition for batch pre-scoring).
  bool recovering() const {
    return state_ == RecoveryState::kReconstructing;
  }

  const PipelineConfig& config() const { return config_; }
  /// The model this pipeline scores against. Pipelines that share a model
  /// return the same object until one of them writes it.
  const model::MultiInstanceModel& model() const { return *model_; }
  const drift::Detector& detector() const { return *detector_; }
  const drift::Reconstructor& reconstructor() const { return reconstructor_; }
  double theta_error() const { return theta_error_; }
  /// This pipeline's counters. Like obs(), safe to read while samples are
  /// in flight (each field is a relaxed atomic).
  PipelineStats stats() const { return obs_->counters.snapshot(); }

  /// The runtime observability block: the counter book, the latency
  /// histograms and the drift journal. Unlike the other accessors, reading
  /// it (obs().snapshot(...)) is safe while samples are in flight — every
  /// field is a relaxed atomic or seqlock-guarded record.
  const obs::StreamObs& obs() const { return *obs_; }
  obs::StreamObs& obs() { return *obs_; }

  /// The centroid detector when the configured kind is kCentroid and no
  /// factory is set, nullptr otherwise. Centroid-specific introspection
  /// (theta_drift, top_drifted_dimensions, ...) goes through here.
  const drift::CentroidDetector* centroid_detector() const {
    return centroid_;
  }
  drift::CentroidDetector* centroid_detector_mutable() { return centroid_; }

  // Persistence hooks (see io/checkpoint.hpp): mutable access to the
  // trained state and a way to mark the pipeline usable after that state
  // has been restored externally. model_mutable() is a write: it copies a
  // shared model first, so the returned model is this pipeline's own.
  model::MultiInstanceModel& model_mutable() { return model_for_write(); }
  drift::Detector& detector_mutable() { return *detector_; }
  void finish_restore(double theta_error) {
    theta_error_ = theta_error;
    fitted_ = true;
  }

  /// Bytes of the complete on-device state (model + detector + recovery
  /// bookkeeping) — what must fit the Pico's 264 kB. Counts the whole
  /// model whether or not it is shared.
  std::size_t memory_bytes() const;

  /// Bytes of the detection-and-recovery state alone (detector, recovery
  /// bookkeeping, centroid tracker) — the Table 4 figure.
  std::size_t detector_memory_bytes() const;

 private:
  /// Where the detect-and-retrain loop currently is.
  enum class RecoveryState {
    kIdle,            ///< Normal detection.
    kReconstructing,  ///< Algorithms 2-4 are consuming samples.
  };

  /// Running per-predicted-label centroids — the pipeline's own estimate of
  /// the current concept, used to seed recoveries for detectors that track
  /// no centroids themselves.
  struct RecentTracker {
    linalg::Matrix centroids;
    std::vector<std::size_t> counts;
  };

  /// Both public constructors: builds around `model`, or draws the
  /// projection and builds a fresh model when it is null.
  Pipeline(PipelineConfig config,
           std::shared_ptr<model::MultiInstanceModel> model);

  /// The model for writing. Copies it first unless this pipeline is its
  /// only owner, so no pipeline writes a model that another one reads.
  model::MultiInstanceModel& model_for_write();

  /// Predicts every row of a frozen-model block into `out` with one call
  /// into the model's scoring core, using the caller's `hidden` rows when
  /// non-null, and times it into obs score: a 1-row block on the sampled
  /// ticks, a longer block as one per-row mean.
  void score_rows(linalg::ConstMatrixView x,
                  const linalg::ConstMatrixView* hidden,
                  std::span<model::Prediction> out);
  /// Detector observation for one frozen-model sample.
  PipelineStep frozen_step(std::span<const double> x,
                           const model::Prediction& pred, int true_label);

  /// The recovery path for one sample while a reconstruction trains the
  /// model: x is projected once, Algorithm 2's row step trains from that
  /// hidden row and the emitted prediction scores it; then the tracker,
  /// the finish and the counters.
  PipelineStep recover(std::span<const double> x);
  void record_drift_event(const drift::Detection& detection);
  void start_recovery();
  void finish_reconstruction();
  void update_tracker(std::size_t label, std::span<const double> x);

  PipelineConfig config_;
  std::shared_ptr<model::MultiInstanceModel> model_;
  std::unique_ptr<drift::Detector> detector_;
  drift::CentroidDetector* centroid_ = nullptr;  ///< Downcast view or null.
  drift::Reconstructor reconstructor_;
  /// Cached coalescing-group digest (projection fingerprint folded with the
  /// numerics tier); immutable after construction, read by the drain
  /// planner's sort comparator on every planning pass.
  std::uint64_t projection_fp_ = 0;
  double theta_error_ = 0.0;
  bool fitted_ = false;

  RecoveryState state_ = RecoveryState::kIdle;

  // Observability: the recording block itself (counters included), the
  // tick counter selecting which samples get clock-timed score/detect
  // stages, and the preallocated scratch the journal's per-label
  // displacement terms are staged through (all written only by the
  // consumer thread).
  /// Heap-held so Pipeline stays movable (the obs block owns atomics).
  std::unique_ptr<obs::StreamObs> obs_;
  /// Hot-path copies of obs_->enabled()/latency_sample_mask(): at a few
  /// hundred ns per sample the double dereference through the unique_ptr
  /// is measurable, the two immutable values are not.
  bool obs_enabled_ = false;
  std::uint64_t obs_mask_ = 0;
  std::uint64_t obs_tick_ = 0;
  std::vector<double> obs_label_dist_;

  // Concept tracking for detectors without centroid state.
  bool tracker_enabled_ = false;
  RecentTracker tracker_;
  linalg::Matrix trained_means_;  ///< Per-label anchor for re-alignment.

  // Model scratch, reused across calls: the pipeline is the thread of
  // control, so one workspace serves every model call it issues and keeps
  // the steady-state loop free of heap allocations. Input chunks are read
  // in place through ConstMatrixView — no staging matrix.
  model::BatchWorkspace batch_ws_;
  std::vector<model::Prediction> chunk_preds_;
};

}  // namespace edgedrift::core
