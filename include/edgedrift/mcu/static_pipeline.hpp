// MCU deployment profile: the complete proposed system (multi-instance
// OS-ELM autoencoders + Algorithm 1 detector + Algorithms 2-4
// reconstruction) in fixed-capacity float32 storage with ZERO heap
// allocations after construction.
//
// This mirrors what the paper actually ran on the Raspberry Pi Pico:
// float32 weights, statically sized buffers, purely sequential updates.
// Because every dimension is a template parameter, the whole memory story
// is a compile-time fact:
//
//   using FanPipeline = mcu::StaticPipeline<511, 22, 1>;
//   static_assert(sizeof(FanPipeline) < 264 * 1024);   // fits the Pico
//
// State is loaded from a fitted core::Pipeline (trained off-device with the
// double-precision library, shipped via io::checkpoint or directly), after
// which the device runs prediction, drift detection and reconstruction with
// no dynamic memory and no double-precision math on the hot path.
//
// Algorithms 1-4 themselves — the window, Algorithm 2's row step with its
// coordinate phases, Equation 1's re-arm, the label match and permutation —
// are the library's shared steps (drift/steps.hpp) instantiated at float, so
// the device decides as core::Pipeline does (tests/test_mcu_conformance.cpp).
// Only the OS-ELM math (projection, scoring, rank-1 training, instance
// reset) is written here. Like the library, a reconstruction projects each
// sample once: training and the emitted prediction read one hidden vector.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/drift/steps.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::mcu {

/// Per-step outcome, mirroring core::PipelineStep.
struct StaticStep {
  std::size_t label = 0;
  float score = 0.0f;
  bool drift_detected = false;
  bool reconstructing = false;
  bool reconstruction_finished = false;
};

/// Fixed-capacity float32 implementation of the proposed system.
///
/// kDim    — feature dimensionality (e.g. 38 or 511)
/// kHidden — hidden nodes of every OS-ELM instance (paper: 22)
/// kLabels — number of class labels / autoencoder instances
template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
class StaticPipeline {
  static_assert(kHidden < kDim,
                "autoencoders must be undercomplete (hidden < input)");
  static_assert(kLabels >= 1, "need at least one label");

 public:
  StaticPipeline() = default;

  /// Copies a fitted double-precision pipeline's state, narrowing to
  /// float32. Returns false, changing nothing, for a pipeline the device
  /// does not run: a detector other than the centroid one, a recovery other
  /// than kReconstruct, or an activation other than sigmoid. The pipeline's
  /// dimensions must match the template caps.
  [[nodiscard]] bool load(const core::Pipeline& pipeline);

  bool loaded() const { return loaded_; }

  /// Full Algorithm 1 step: prediction, anomaly gate, window update,
  /// drift check, and — when a drift is active — the Algorithm 2 phases.
  StaticStep process(std::span<const float> x);

  /// Label prediction only (lines 6-7).
  std::size_t predict(std::span<const float> x, float& score_out) const;

  /// Anomaly score of one instance.
  float score_of(std::span<const float> x, std::size_t label) const;

  /// One sequential OS-ELM training step on the given instance.
  void train_label(std::span<const float> x, std::size_t label);

  float theta_error() const { return theta_error_; }
  float theta_drift() const { return theta_drift_; }
  bool reconstructing() const { return recon_count_ > 0; }

  /// Compile-time state size (the quantity checked against the 264 kB
  /// Pico budget).
  static constexpr std::size_t state_bytes() {
    return sizeof(StaticPipeline);
  }

 private:
  void hidden_of(std::span<const float> x,
                 std::array<float, kHidden>& h) const;

  /// Anomaly score of one instance from an already-projected hidden vector
  /// (the fused predict() projects once and scores every label from it).
  float score_from_hidden(const std::array<float, kHidden>& h,
                          std::span<const float> x, std::size_t label) const;

  /// predict() assuming h_scratch_ already holds the projection of x.
  std::size_t predict_from_hidden(std::span<const float> x,
                                  float& score_out) const;

  /// OS-ELM step assuming h_scratch_ already holds the projection of x
  /// (valid right after predict()/score_of() on the same sample). Leaves
  /// h_scratch_ as it found it.
  void train_with_current_hidden(std::span<const float> x, std::size_t label);

  /// Algorithm 2 for one sample of a running reconstruction
  /// (steps::reconstruct_row), then the emitted prediction, from one
  /// projection of x.
  void reconstruct(std::span<const float> x, StaticStep& step);

  /// The finishing sample's re-alignment and re-arm: matches the rebuilt
  /// coordinates to the pre-drift centroids, permutes coordinates and
  /// instances together, and re-arms Algorithm 1 on the coordinates.
  void finish_reconstruction();

  // ---- projection (shared by every instance) ----
  std::array<float, kDim * kHidden> alpha_{};
  std::array<float, kHidden> bias_{};

  // ---- per-instance trainable state ----
  std::array<float, kLabels * kHidden * kDim> beta_{};
  std::array<float, kLabels * kHidden * kHidden> p_{};

  // ---- detector state (Algorithm 1) ----
  std::array<float, kLabels * kDim> trained_centroids_{};
  std::array<float, kLabels * kDim> recent_centroids_{};
  std::array<std::uint32_t, kLabels> counts_{};
  float theta_error_ = 0.0f;
  float theta_drift_ = 0.0f;
  float ewma_decay_ = 0.0f;
  std::uint32_t window_size_ = 100;
  long initial_count_ = -1;  ///< detector_initial_count.
  drift::steps::Window window_;

  // ---- reconstruction state (Algorithms 2-4) ----
  std::array<float, kLabels * kDim> coords_{};
  std::array<std::uint32_t, kLabels> coord_counts_{};
  std::uint32_t recon_count_ = 0;  ///< 0 = idle; otherwise Algorithm 2 count.
  float z_ = 1.0f;
  float p_prior_ = 100.0f;  ///< 1 / reg_lambda, for post-drift P resets.
  drift::ReconstructorConfig phases_;  ///< Algorithm 2's phase lengths.
  drift::steps::Welford<float> distances_;  ///< Equation 1's re-arm.

  // ---- scratch ----
  mutable std::array<float, kHidden> h_scratch_{};
  /// A reconstructed sample while scoring or training; Init_Coord's saved
  /// coordinate while a reconstruction spreads its coordinates.
  mutable std::array<float, kDim> recon_scratch_{};
  std::array<float, kHidden> ph_scratch_{};

  bool loaded_ = false;
};

// ===========================================================================
// implementation
// ===========================================================================

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
bool StaticPipeline<kDim, kHidden, kLabels>::load(
    const core::Pipeline& pipeline) {
  EDGEDRIFT_ASSERT(pipeline.fitted(), "load() needs a fitted pipeline");
  const auto& config = pipeline.config();
  EDGEDRIFT_ASSERT(config.input_dim == kDim, "input_dim mismatch");
  EDGEDRIFT_ASSERT(config.hidden_dim == kHidden, "hidden_dim mismatch");
  EDGEDRIFT_ASSERT(config.num_labels == kLabels, "num_labels mismatch");
  const drift::CentroidDetector* centroid = pipeline.centroid_detector();
  if (centroid == nullptr ||
      config.recovery != core::RecoveryPolicy::kReconstruct ||
      config.activation != oselm::Activation::kSigmoid) {
    return false;
  }

  const auto& projection = *pipeline.model().projection();
  for (std::size_t d = 0; d < kDim; ++d) {
    for (std::size_t h = 0; h < kHidden; ++h) {
      alpha_[d * kHidden + h] =
          static_cast<float>(projection.alpha()(d, h));
    }
  }
  for (std::size_t h = 0; h < kHidden; ++h) {
    bias_[h] = static_cast<float>(projection.bias()[h]);
  }

  const auto& model = pipeline.model();
  for (std::size_t c = 0; c < kLabels; ++c) {
    for (std::size_t h = 0; h < kHidden; ++h) {
      for (std::size_t d = 0; d < kDim; ++d) {
        beta_[(c * kHidden + h) * kDim + d] =
            static_cast<float>(model.packed_beta()(h, c * kDim + d));
      }
      for (std::size_t h2 = 0; h2 < kHidden; ++h2) {
        p_[(c * kHidden + h) * kHidden + h2] =
            static_cast<float>(model.p(c)(h, h2));
      }
    }
  }

  const auto& detector = *centroid;
  for (std::size_t c = 0; c < kLabels; ++c) {
    for (std::size_t d = 0; d < kDim; ++d) {
      trained_centroids_[c * kDim + d] =
          static_cast<float>(detector.trained_centroids()(c, d));
      recent_centroids_[c * kDim + d] =
          static_cast<float>(detector.recent_centroids()(c, d));
    }
    counts_[c] = static_cast<std::uint32_t>(detector.counts()[c]);
  }
  theta_error_ = static_cast<float>(pipeline.theta_error());
  theta_drift_ = static_cast<float>(detector.theta_drift());
  ewma_decay_ = static_cast<float>(config.ewma_decay);
  initial_count_ = config.detector_initial_count;
  window_size_ = static_cast<std::uint32_t>(config.window_size);
  z_ = static_cast<float>(config.z);
  phases_ = config.reconstruction;
  p_prior_ = static_cast<float>(1.0 / config.reg_lambda);
  window_ = {};
  recon_count_ = 0;
  loaded_ = true;
  return true;
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
void StaticPipeline<kDim, kHidden, kLabels>::hidden_of(
    std::span<const float> x, std::array<float, kHidden>& h) const {
  for (std::size_t j = 0; j < kHidden; ++j) h[j] = bias_[j];
  for (std::size_t d = 0; d < kDim; ++d) {
    const float xd = x[d];
    if (xd == 0.0f) continue;
    const float* arow = alpha_.data() + d * kHidden;
    for (std::size_t j = 0; j < kHidden; ++j) h[j] += xd * arow[j];
  }
  for (std::size_t j = 0; j < kHidden; ++j) {
    h[j] = 1.0f / (1.0f + std::exp(-h[j]));  // Sigmoid, as the paper uses.
  }
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
float StaticPipeline<kDim, kHidden, kLabels>::score_from_hidden(
    const std::array<float, kHidden>& h, std::span<const float> x,
    std::size_t label) const {
  const float* beta = beta_.data() + label * kHidden * kDim;
  float acc = 0.0f;
  for (std::size_t d = 0; d < kDim; ++d) recon_scratch_[d] = 0.0f;
  for (std::size_t hi = 0; hi < kHidden; ++hi) {
    const float hv = h[hi];
    const float* brow = beta + hi * kDim;
    for (std::size_t d = 0; d < kDim; ++d) {
      recon_scratch_[d] += hv * brow[d];
    }
  }
  for (std::size_t d = 0; d < kDim; ++d) {
    const float delta = x[d] - recon_scratch_[d];
    acc += delta * delta;
  }
  return acc / static_cast<float>(kDim);
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
float StaticPipeline<kDim, kHidden, kLabels>::score_of(
    std::span<const float> x, std::size_t label) const {
  hidden_of(x, h_scratch_);
  return score_from_hidden(h_scratch_, x, label);
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
std::size_t StaticPipeline<kDim, kHidden, kLabels>::predict(
    std::span<const float> x, float& score_out) const {
  // Fused ensemble scoring: the projection is shared by every instance, so
  // compute it once and score all kLabels instances from it (the per-label
  // path recomputed it kLabels times). h_scratch_ still holds the sample's
  // hidden vector afterwards, which the training path reuses.
  hidden_of(x, h_scratch_);
  return predict_from_hidden(x, score_out);
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
std::size_t StaticPipeline<kDim, kHidden, kLabels>::predict_from_hidden(
    std::span<const float> x, float& score_out) const {
  std::size_t best = 0;
  float best_score = score_from_hidden(h_scratch_, x, 0);
  for (std::size_t c = 1; c < kLabels; ++c) {
    const float s = score_from_hidden(h_scratch_, x, c);
    if (s < best_score) {
      best_score = s;
      best = c;
    }
  }
  score_out = best_score;
  return best;
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
void StaticPipeline<kDim, kHidden, kLabels>::train_label(
    std::span<const float> x, std::size_t label) {
  hidden_of(x, h_scratch_);
  train_with_current_hidden(x, label);
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
void StaticPipeline<kDim, kHidden, kLabels>::train_with_current_hidden(
    std::span<const float> x, std::size_t label) {
  float* p = p_.data() + label * kHidden * kHidden;
  // ph = P h; hph = h^T P h.
  float hph = 0.0f;
  for (std::size_t i = 0; i < kHidden; ++i) {
    const float* prow = p + i * kHidden;
    float acc = 0.0f;
    for (std::size_t j = 0; j < kHidden; ++j) acc += prow[j] * h_scratch_[j];
    ph_scratch_[i] = acc;
    hph += h_scratch_[i] * acc;
  }
  const float denom = 1.0f + hph;
  // P <- P - ph ph^T / denom.
  const float inv = 1.0f / denom;
  for (std::size_t i = 0; i < kHidden; ++i) {
    const float phi = ph_scratch_[i] * inv;
    float* prow = p + i * kHidden;
    for (std::size_t j = 0; j < kHidden; ++j) {
      prow[j] -= phi * ph_scratch_[j];
    }
  }
  // ph_new = P_new h.
  for (std::size_t i = 0; i < kHidden; ++i) {
    const float* prow = p + i * kHidden;
    float acc = 0.0f;
    for (std::size_t j = 0; j < kHidden; ++j) acc += prow[j] * h_scratch_[j];
    ph_scratch_[i] = acc;
  }
  // beta <- beta + ph_new (x - beta^T h)^T, computed row-wise.
  float* beta = beta_.data() + label * kHidden * kDim;
  for (std::size_t d = 0; d < kDim; ++d) recon_scratch_[d] = x[d];
  for (std::size_t h = 0; h < kHidden; ++h) {
    const float hv = h_scratch_[h];
    const float* brow = beta + h * kDim;
    for (std::size_t d = 0; d < kDim; ++d) {
      recon_scratch_[d] -= hv * brow[d];
    }
  }
  for (std::size_t h = 0; h < kHidden; ++h) {
    const float scale = ph_scratch_[h];
    float* brow = beta + h * kDim;
    for (std::size_t d = 0; d < kDim; ++d) {
      brow[d] += scale * recon_scratch_[d];
    }
  }
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
StaticStep StaticPipeline<kDim, kHidden, kLabels>::process(
    std::span<const float> x) {
  EDGEDRIFT_ASSERT(loaded_, "process() before load()");
  EDGEDRIFT_ASSERT(x.size() == kDim, "sample dim mismatch");
  StaticStep step;
  if (recon_count_ > 0) {
    reconstruct(x, step);
    return step;
  }

  // ---- Algorithm 1 main loop ----
  step.label = predict(x, step.score);
  if (drift::steps::window_observe(
          window_, x, step.label, step.score, theta_error_, window_size_,
          ewma_decay_, std::span<float>(recent_centroids_),
          std::span<std::uint32_t>(counts_)) &&
      drift::steps::window_distance<float>(recent_centroids_,
                                           trained_centroids_, kDim) >=
          theta_drift_) {
    step.drift_detected = true;
    // Enter reconstruction seeded from the recent centroids, with every
    // instance reset to the sequential prior (beta = 0, P = I / lambda).
    coords_ = recent_centroids_;
    coord_counts_.fill(0);
    beta_.fill(0.0f);
    p_.fill(0.0f);
    for (std::size_t c = 0; c < kLabels; ++c) {
      float* p = p_.data() + c * kHidden * kHidden;
      for (std::size_t h = 0; h < kHidden; ++h) {
        p[h * kHidden + h] = p_prior_;
      }
    }
    distances_ = {};
    recon_count_ = 1;
  }
  return step;
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
void StaticPipeline<kDim, kHidden, kLabels>::reconstruct(
    std::span<const float> x, StaticStep& step) {
  step.reconstructing = true;
  // One projection per sample: phases 3-4 train from h_scratch_ and the
  // emitted prediction scores it, after the training, as the library does.
  hidden_of(x, h_scratch_);
  const drift::ReconstructionPhase phase =
      drift::steps::reconstruct_row<float>(
          coords_, std::span<std::uint32_t>(coord_counts_), recon_scratch_,
          distances_, x, recon_count_++, phases_,
          [&] {
            float ignored;
            return predict_from_hidden(x, ignored);
          },
          [&](std::size_t label) { train_with_current_hidden(x, label); });
  step.label = predict_from_hidden(x, step.score);
  if (phase == drift::ReconstructionPhase::kIdle) {
    // The N-th sample, in the library's order: predict, then re-align and
    // re-arm.
    finish_reconstruction();
    step.reconstruction_finished = true;
  }
}

template <std::size_t kDim, std::size_t kHidden, std::size_t kLabels>
void StaticPipeline<kDim, kHidden, kLabels>::finish_reconstruction() {
  namespace steps = drift::steps;
  std::array<std::size_t, kLabels> perm{};
  std::array<std::size_t, kLabels> work{};
  std::array<float, kLabels * kLabels> cost{};
  steps::match_rows<float>(trained_centroids_, coords_, kDim, perm, cost,
                           work);
  steps::permute_rows<float>(coords_, kDim, perm);
  steps::permute_rows<std::uint32_t>(coord_counts_, 1, perm);
  steps::permute_rows<float>(beta_, kHidden * kDim, perm);
  steps::permute_rows<float>(p_, kHidden * kHidden, perm);
  trained_centroids_ = coords_;
  recent_centroids_ = coords_;
  steps::rearm_counts<std::uint32_t, std::uint32_t>(counts_, initial_count_,
                                                   coord_counts_);
  theta_drift_ = steps::rearm_theta(theta_drift_, distances_.threshold(z_));
  window_ = {};
  recon_count_ = 0;
}

}  // namespace edgedrift::mcu
