#include "edgedrift/core/pipeline.hpp"

#include <algorithm>
#include <vector>

#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"
#include "edgedrift/util/rng.hpp"

namespace edgedrift::core {
namespace {

drift::CentroidDetectorConfig detector_config(const PipelineConfig& config) {
  drift::CentroidDetectorConfig det;
  det.num_labels = config.num_labels;
  det.dim = config.input_dim;
  det.window_size = config.window_size;
  det.theta_error = config.theta_error;  // May be re-set after calibration.
  det.theta_drift = 0.0;                 // Always from Eq. 1.
  det.z = config.z;
  det.ewma_decay = config.ewma_decay;
  det.initial_count = config.detector_initial_count;
  return det;
}

/// Per-label mean of a labeled batch.
linalg::Matrix per_label_means(const linalg::Matrix& x,
                               std::span<const int> labels,
                               std::size_t num_labels) {
  linalg::Matrix means(num_labels, x.cols());
  std::vector<std::size_t> counts(num_labels, 0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto label = static_cast<std::size_t>(labels[i]);
    linalg::axpy(1.0, x.row(i), means.row(label));
    ++counts[label];
  }
  for (std::size_t c = 0; c < num_labels; ++c) {
    if (counts[c] == 0) continue;
    const double inv = 1.0 / static_cast<double>(counts[c]);
    for (auto& v : means.row(c)) v *= inv;
  }
  return means;
}

}  // namespace

Pipeline::Pipeline(PipelineConfig config) : Pipeline(config, nullptr) {}

Pipeline::Pipeline(PipelineConfig config, const Pipeline& share_with)
    : Pipeline(config, share_with.model_) {}

Pipeline::Pipeline(PipelineConfig config,
                   std::shared_ptr<model::MultiInstanceModel> model)
    : config_(config),
      model_(std::move(model)),
      reconstructor_(config.reconstruction, config.num_labels,
                     config.input_dim),
      obs_(std::make_unique<obs::StreamObs>(config.obs, config.num_labels)),
      obs_enabled_(obs_->enabled()),
      obs_mask_(obs_->latency_sample_mask()) {
  EDGEDRIFT_ASSERT(config_.input_dim > 0, "input_dim must be set");
  EDGEDRIFT_ASSERT(config_.num_labels > 0, "num_labels must be set");
  EDGEDRIFT_ASSERT(config_.max_batch_rows > 0, "max_batch_rows must be > 0");
  // Journal scratch: per_label_distances() writes into this preallocated
  // span on the drift branch, keeping event recording heap-free.
  obs_label_dist_.resize(config_.num_labels, 0.0);
  if (model_ == nullptr) {
    util::Rng rng(config_.seed);
    auto projection =
        oselm::make_projection(config_.input_dim, config_.hidden_dim,
                               config_.activation, rng, config_.weight_scale);
    model_ = std::make_shared<model::MultiInstanceModel>(
        config_.num_labels, std::move(projection), config_.reg_lambda);
    model_->set_numerics_tier(config_.numerics);
  }
  EDGEDRIFT_ASSERT(model_->num_labels() == config_.num_labels &&
                       model_->input_dim() == config_.input_dim &&
                       model_->hidden_dim() == config_.hidden_dim &&
                       model_->numerics_tier() == config_.numerics,
                   "shared model does not match the pipeline config");
  detector_ =
      drift::make_detector(config_.detector, detector_config(config_));
  if (config_.detector.kind == drift::DetectorKind::kCentroid) {
    centroid_ = static_cast<drift::CentroidDetector*>(detector_.get());
  }
  // Cache the coalescing-group digest: the projection is immutable for the
  // pipeline's whole life (recovery retrains beta, reconstruction keeps the
  // projection, checkpoint restore builds a new Pipeline) and the numerics
  // tier is fixed at construction, so the fold never changes. The drain
  // planner reads this in its sort comparator every planning pass.
  std::uint64_t fp = model_->projection()->fingerprint();
  fp ^= static_cast<std::uint64_t>(config_.numerics) +
        0x9e3779b97f4a7c15ULL + (fp << 6) + (fp >> 2);
  projection_fp_ = fp;
}

void Pipeline::fit(const linalg::Matrix& x, std::span<const int> labels) {
  model_for_write().init_train(x, labels);

  // Pre-grow the streaming scratch to the steady-state geometry up front:
  // the calibration pass below reuses the batch workspace, and even the
  // first process()/process_rows() call after fit() touches the heap zero
  // times (the buffers are grow-only; pinned by tests/test_allocation_free).
  batch_ws_.reserve(config_.max_batch_rows, config_.input_dim,
                    config_.hidden_dim, config_.num_labels, config_.numerics);
  chunk_preds_.reserve(config_.max_batch_rows);

  if (config_.theta_error <= 0.0) {
    // Auto-calibrate the anomaly gate from the training scores: a window
    // should open only for samples the trained model reconstructs badly.
    // Score in max_batch_rows chunks — a row scores the same in a block of
    // any size (pinned by tests/test_fused_scoring), so the chunking never
    // moves the calibrated gate.
    std::vector<double> scores(x.rows());
    std::size_t i = 0;
    while (i < x.rows()) {
      const std::size_t chunk =
          std::min(x.rows() - i, config_.max_batch_rows);
      // Rows [i, i+chunk) are contiguous in x — score them in place.
      model_->score_batch({x, i, i + chunk}, batch_ws_);
      for (std::size_t r = 0; r < chunk; ++r) {
        scores[i + r] =
            batch_ws_.scores(r, static_cast<std::size_t>(labels[i + r]));
      }
      i += chunk;
    }
    theta_error_ = linalg::mean(scores) +
                   config_.theta_error_z * linalg::stddev_population(scores);
  } else {
    theta_error_ = config_.theta_error;
  }
  // Set the gate first, then calibrate once — the detector sees its final
  // configuration in a single pass.
  detector_->set_anomaly_gate(theta_error_);
  detector_->calibrate(x, labels);

  // Concept bookkeeping for recoveries. Detectors that track no centroids
  // of their own get a pipeline-owned running estimate; everyone gets a
  // per-label anchor for post-reconstruction re-alignment.
  train_rows_ = x.rows();
  trained_means_ = per_label_means(x, labels, config_.num_labels);
  tracker_enabled_ = detector_->reconstruction_seed() == nullptr;
  if (tracker_enabled_) {
    tracker_.centroids = trained_means_;
    tracker_.counts.assign(config_.num_labels, 1);
  }
  if (detector_->needs_reference_data()) {
    // After a recovery the batch detector's reference is stale; it is
    // re-fit from a fresh window at least as large as the training
    // reference — a reference of only one batch makes the fit so noisy the
    // detector re-fires on its own calibration error.
    const std::size_t rows =
        std::max(detector_->reference_rows(), train_rows_);
    refit_buffer_.resize_zero(rows, config_.input_dim);
  }
  state_ = RecoveryState::kIdle;
  refit_fill_ = 0;
  fitted_ = true;
}

PipelineStep Pipeline::process(std::span<const double> x, int true_label) {
  EDGEDRIFT_ASSERT(fitted_, "process() before fit()");
  if (recovering()) return recover(x);
  model::Prediction pred;
  score_rows(linalg::ConstMatrixView(x), nullptr, {&pred, 1});
  return frozen_step(x, pred, true_label);
}

void Pipeline::process_rows(linalg::ConstMatrixView x,
                            std::span<const int> true_labels,
                            std::vector<PipelineStep>& out,
                            const linalg::ConstMatrixView* hidden) {
  EDGEDRIFT_ASSERT(fitted_, "process_rows() before fit()");
  EDGEDRIFT_ASSERT(true_labels.empty() || true_labels.size() == x.rows(),
                   "true_labels must be empty or one per row");
  EDGEDRIFT_ASSERT(hidden == nullptr ||
                       (hidden->rows() == x.rows() &&
                        hidden->cols() == config_.hidden_dim),
                   "hidden block must be row-parallel to x");
  const std::size_t n = x.rows();
  const auto label_of = [&](std::size_t r) {
    return true_labels.empty() ? -1 : true_labels[r];
  };
  // One step per row, written in place. resize() grows the vector
  // geometrically; an exact-fit reserve would reallocate and copy a
  // caller's whole uncollected backlog on every call.
  const std::size_t base = out.size();
  out.resize(base + n);
  PipelineStep* const steps = out.data() + base;
  std::size_t i = 0;
  while (i < n) {
    if (recovering()) {
      steps[i] = recover(x.row(i));
      ++i;
      continue;
    }
    // While frozen, predictions are a pure per-sample function of the
    // model: pre-score up to max_batch_rows rows in one call into the
    // model's scoring core, then run the detector sequentially over them.
    // The rows are contiguous, so they feed the kernels as a view — no
    // staging copy, whether x is a caller batch or a ring page range.
    const std::size_t chunk = std::min(n - i, config_.max_batch_rows);
    const linalg::ConstMatrixView rows{x, i, i + chunk};
    const linalg::ConstMatrixView h =
        hidden != nullptr ? linalg::ConstMatrixView{*hidden, i, i + chunk}
                          : rows;
    chunk_preds_.resize(chunk);
    score_rows(rows, hidden != nullptr ? &h : nullptr, chunk_preds_);
    std::size_t consumed = 0;
    while (consumed < chunk) {
      const std::size_t r = i + consumed;
      steps[r] = frozen_step(x.row(r), chunk_preds_[consumed], label_of(r));
      ++consumed;
      // A detection just started a recovery: the remaining pre-scored
      // predictions are stale (the model is about to retrain).
      if (recovering()) break;
    }
    if (chunk > 1) obs_->counters.add_batch_chunk(consumed);
    i += consumed;
  }
}

void Pipeline::score_rows(linalg::ConstMatrixView x,
                          const linalg::ConstMatrixView* hidden,
                          std::span<model::Prediction> out) {
  // Score-stage latency. A 1-row block is clock-timed on every Nth sample
  // (the tick is advanced by frozen_step after this sample completes, so
  // score and detect time the same samples); a longer block takes one clock
  // pair and records its mean per-sample cost.
  const bool timed =
      obs_enabled_ && (x.rows() > 1 || (obs_tick_ & obs_mask_) == 0);
  const std::uint64_t obs_t0 = timed ? obs::now_ns() : 0;
  model_->predict_batch(x, batch_ws_, out, hidden);
  if (timed) obs_->score.record((obs::now_ns() - obs_t0) / x.rows());
}

PipelineStep Pipeline::frozen_step(std::span<const double> x,
                                   const model::Prediction& pred,
                                   int true_label) {
  obs::Counters& counters = obs_->counters;
  counters.add_samples();
  PipelineStep step;
  step.prediction = pred;
  if (tracker_enabled_) update_tracker(pred.label, x);

  if (state_ == RecoveryState::kCollectingReference) {
    step.collecting_reference = true;
    refit_buffer_.set_row(refit_fill_++, x);
    if (refit_fill_ == refit_buffer_.rows()) {
      detector_->rebuild_reference(refit_buffer_);
      state_ = RecoveryState::kIdle;
    }
    ++obs_tick_;
    return step;
  }

  drift::Observation obs;
  obs.x = x;
  obs.predicted_label = static_cast<int>(pred.label);
  obs.anomaly_score = pred.score;
  obs.error = true_label >= 0 &&
              static_cast<std::size_t>(true_label) != pred.label;
  const bool window_was_open =
      centroid_ != nullptr && centroid_->window_open();
  const bool timed_detect = obs_enabled_ && (obs_tick_ & obs_mask_) == 0;
  ++obs_tick_;
  const std::uint64_t obs_t0 = timed_detect ? obs::now_ns() : 0;
  const drift::Detection detection = detector_->observe(obs);
  if (timed_detect) obs_->detect.record(obs::now_ns() - obs_t0);
  // Window accounting: the centroid family exposes its anomaly window
  // directly (count open transitions); for everything else each emitted
  // statistic marks one completed evaluation window.
  if (centroid_ != nullptr ? !window_was_open && centroid_->window_open()
                           : detection.statistic_valid) {
    counters.add_window_opened();
  }
  step.statistic = detection.statistic;
  step.statistic_valid = detection.statistic_valid;

  if (detection.drift) {
    step.drift_detected = true;
    counters.add_drift();
    if (obs_enabled_) record_drift_event(detection);
    start_recovery();
  }
  return step;
}

void Pipeline::record_drift_event(const drift::Detection& detection) {
  std::span<const double> distances;
  double theta = 0.0;
  if (centroid_ != nullptr) {
    centroid_->per_label_distances(obs_label_dist_);
    distances = obs_label_dist_;
    theta = centroid_->theta_drift();
  }
  const obs::RecoveryAction action =
      config_.recovery == RecoveryPolicy::kReconstruct
          ? obs::RecoveryAction::kReconstruct
          : obs::RecoveryAction::kNone;
  // The sample counter was already advanced for this sample.
  obs_->journal.begin_event(obs_->counters.samples() - 1,
                            detection.statistic, theta,
                           static_cast<std::uint32_t>(config_.window_size),
                           action, distances);
}

PipelineStep Pipeline::recover(std::span<const double> x) {
  const std::uint64_t obs_t0 = obs_enabled_ ? obs::now_ns() : 0;
  // start_recovery() already took the private copy; this is the owner check.
  model::MultiInstanceModel& model = model_for_write();

  // One projection per row: Algorithm 2's training and the emitted
  // prediction read the same hidden row, which training never changes.
  const std::span<const double> hidden = model.project(x, batch_ws_);
  PipelineStep step;
  step.reconstructing = true;
  const bool finished = !reconstructor_.step(x, hidden, model, batch_ws_);
  // Report the model's current prediction so accuracy accounting stays
  // per-sample.
  step.prediction = model.predict(x, batch_ws_, hidden);
  if (tracker_enabled_) update_tracker(step.prediction.label, x);
  if (finished) {
    finish_reconstruction();
    step.reconstruction_finished = true;
  }

  obs::Counters& counters = obs_->counters;
  counters.add_samples();
  counters.add_recovery_sample();
  if (obs_enabled_) obs_->reconstruct.record(obs::now_ns() - obs_t0);
  ++obs_tick_;
  return step;
}

void Pipeline::start_recovery() {
  if (config_.recovery == RecoveryPolicy::kDetectOnly) {
    // Record-and-rearm: the model is left alone, the detector restarts
    // against its existing reference.
    detector_->reset();
    return;
  }
  // Seed from the detector's own recent centroids when it tracks them, else
  // from the pipeline's running estimate of the new concept.
  const linalg::Matrix* seed = detector_->reconstruction_seed();
  reconstructor_.begin(model_for_write(),
                       seed != nullptr ? *seed : tracker_.centroids);
  state_ = RecoveryState::kReconstructing;
}

void Pipeline::finish_reconstruction() {
  // Re-align the rebuilt clusters with the pre-drift label identities:
  // optimally match the rebuilt coordinates against the detector's frozen
  // reference centroids (or the pipeline's per-label anchor when the
  // detector tracks none), then permute coordinates and model instances
  // together.
  const linalg::Matrix& coords = reconstructor_.coords();
  const linalg::Matrix* ref = detector_->reference_centroids();
  const linalg::Matrix& reference =
      ref != nullptr ? *ref : trained_means_;
  EDGEDRIFT_ASSERT(reference.rows() == coords.rows() &&
                       reference.cols() == coords.cols(),
                   "reference centroid shape mismatch");
  // Finish-time scratch: a reconstruction ends once per N samples, so the
  // match allocates here rather than holding C x C costs in every stream.
  const std::size_t n = config_.num_labels;
  std::vector<double> cost(n * n);
  std::vector<std::size_t> index(2 * n);  // The permutation, then scratch.
  const std::span<std::size_t> perm = std::span(index).first(n);
  drift::steps::match_rows(reference.flat(), coords.flat(), config_.input_dim,
                           perm, std::span(cost), std::span(index).last(n));
  bool identity = true;
  for (std::size_t i = 0; i < perm.size(); ++i) identity &= perm[i] == i;
  if (!identity) {
    reconstructor_.permute(perm);
    model_for_write().apply_permutation(perm);
  }
  // The rebuilt coordinates are the anchor for any later recovery.
  trained_means_ = coords;

  // Re-arm the detector: the rebuilt coordinates become the new trained
  // centroids, with an Eq. 1 threshold recomputed over the reconstruction's
  // training-phase samples.
  detector_->rearm(coords, reconstructor_.coord_counts(),
                   reconstructor_.suggested_theta_drift(config_.z));
  obs_->counters.add_recovery();
  if (obs_enabled_) obs_->journal.complete_event(reconstructor_.count());
  if (detector_->needs_reference_data()) {
    begin_reference_collection();
  } else {
    state_ = RecoveryState::kIdle;
  }
}

void Pipeline::begin_reference_collection() {
  state_ = RecoveryState::kCollectingReference;
  refit_fill_ = 0;
}

void Pipeline::update_tracker(std::size_t label, std::span<const double> x) {
  linalg::running_mean_update(tracker_.centroids.row(label), x,
                              tracker_.counts[label]);
  ++tracker_.counts[label];
}

model::MultiInstanceModel& Pipeline::model_for_write() {
  // A shared model has another owner (another pipeline, or the template
  // holder that outlives them), which may be reading it on another thread:
  // write a private copy instead. The copy shares the immutable projection.
  if (model_.use_count() != 1) {
    model_ = std::make_shared<model::MultiInstanceModel>(*model_);
  }
  return *model_;
}

std::size_t Pipeline::memory_bytes() const {
  return model_->memory_bytes() + detector_memory_bytes();
}

std::size_t Pipeline::detector_memory_bytes() const {
  std::size_t bytes = detector_->memory_bytes() +
                      reconstructor_.memory_bytes() +
                      refit_buffer_.memory_bytes();
  if (tracker_enabled_) {
    bytes += tracker_.centroids.memory_bytes() +
             tracker_.counts.capacity() * sizeof(std::size_t);
  }
  return bytes;
}

}  // namespace edgedrift::core
